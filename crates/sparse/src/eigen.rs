//! Dense symmetric eigendecomposition.
//!
//! PACT's second congruence transform diagonalizes the internal
//! susceptance matrix `E'`. For small networks (and as the test oracle for
//! the Lanczos path) a full dense decomposition is used: Householder
//! tridiagonalization followed by the implicit-shift QL iteration — the
//! classic EISPACK `tred2`/`tql2` pair.
//!
//! The tridiagonal-only entry point [`eig_tridiagonal`] is also the
//! workhorse the Lanczos solver uses to extract Ritz values/vectors from
//! its tridiagonal matrix `T` (eq. 17 of the paper);
//! [`eig_tridiagonal_last_row`] gives its convergence checks the Ritz
//! values and the last eigenvector row without the `O(k³)` vectors.

use crate::dense::DMat;

/// Error from the dense symmetric eigensolver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EigenError {
    /// The QL iteration failed to converge (more than 50 sweeps for one
    /// eigenvalue — essentially impossible for finite symmetric input).
    NotConverged {
        /// Index of the eigenvalue whose QL iteration exceeded the limit.
        index: usize,
    },
    /// The input matrix contains a NaN or infinite entry. Detected before
    /// iterating: the QL deflation floor is derived from the matrix norm,
    /// and a NaN norm makes every deflation comparison silently false.
    NonFinite {
        /// Row (for [`sym_eig`]) or tridiagonal index (for
        /// [`eig_tridiagonal`]) of the first non-finite entry.
        index: usize,
    },
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenError::NotConverged { index } => {
                write!(f, "QL iteration failed to converge at eigenvalue {index}")
            }
            EigenError::NonFinite { index } => {
                write!(f, "non-finite entry at row {index} of the eigenproblem")
            }
        }
    }
}

impl std::error::Error for EigenError {}

/// Result of a symmetric eigendecomposition `A = Z Λ Zᵀ`.
#[derive(Clone, Debug)]
pub struct SymEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, ordered like `values`.
    pub vectors: DMat<f64>,
}

/// Full eigendecomposition of a dense symmetric matrix.
///
/// Only the lower triangle is referenced.
///
/// # Errors
///
/// Returns [`EigenError`] if the QL iteration fails to converge (more than
/// 50 sweeps for one eigenvalue — essentially impossible for symmetric
/// input).
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// ```
/// use pact_sparse::{DMat, sym_eig};
/// let a = DMat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = sym_eig(&a)?;
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), pact_sparse::EigenError>(())
/// ```
pub fn sym_eig(a: &DMat<f64>) -> Result<SymEig, EigenError> {
    assert_eq!(a.nrows(), a.ncols(), "sym_eig needs a square matrix");
    let n = a.nrows();
    if n == 0 {
        return Ok(SymEig {
            values: Vec::new(),
            vectors: DMat::zeros(0, 0),
        });
    }
    // Only the lower triangle is referenced; reject poisoned input up
    // front so a NaN cannot defeat the deflation floor inside tql2.
    for i in 0..n {
        for j in 0..=i {
            if !a[(i, j)].is_finite() {
                return Err(EigenError::NonFinite { index: i });
            }
        }
    }
    let (mut d, mut e, mut z) = tred2(a);
    tql2(&mut d, &mut e, &mut z)?;
    sort_ascending(&mut d, &mut z);
    Ok(SymEig {
        values: d,
        vectors: z,
    })
}

/// Eigendecomposition of a symmetric tridiagonal matrix with diagonal `d`
/// and off-diagonal `e` (`e.len() == d.len() - 1`; pass `&[]` for 1×1).
///
/// Returns eigenvalues ascending and, when `want_vectors`, the orthonormal
/// eigenvector matrix (otherwise an empty matrix).
///
/// # Errors
///
/// Returns [`EigenError`] on QL non-convergence.
pub fn eig_tridiagonal(
    d: &[f64],
    e: &[f64],
    want_vectors: bool,
) -> Result<(Vec<f64>, DMat<f64>), EigenError> {
    let z = if want_vectors {
        DMat::identity(d.len())
    } else {
        DMat::zeros(0, 0)
    };
    tridiagonal_ql(d, e, z)
}

/// Eigenvalues (ascending) and the **last row** of the eigenvector matrix
/// of the symmetric tridiagonal matrix `(d, e)` — the only part of the
/// eigenvectors a Lanczos convergence test reads (`β_k·|z_kj|`).
///
/// The QL rotations act on each row of the accumulated eigenvector matrix
/// independently, so running them on the single row `e_kᵀ` costs `O(k)`
/// per sweep instead of `O(k²)` and yields exactly the last row of
/// [`eig_tridiagonal`]'s full matrix: eigenvalues and row are bitwise
/// equal to the full solve's.
///
/// # Errors
///
/// See [`eig_tridiagonal`].
pub fn eig_tridiagonal_last_row(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Vec<f64>), EigenError> {
    let n = d.len();
    let mut z = DMat::zeros(usize::from(n > 0), n);
    if n > 0 {
        z[(0, n - 1)] = 1.0;
    }
    let (vals, z) = tridiagonal_ql(d, e, z)?;
    let row = if n > 0 { z.row(0) } else { Vec::new() };
    Ok((vals, row))
}

/// Shared body of the tridiagonal entry points: validates `(d, e)`, runs
/// the QL iteration accumulating rotations into the rows of `z` (none when
/// `z` has no rows), and sorts ascending.
fn tridiagonal_ql(
    d: &[f64],
    e: &[f64],
    mut z: DMat<f64>,
) -> Result<(Vec<f64>, DMat<f64>), EigenError> {
    let n = d.len();
    assert!(n == 0 || e.len() == n - 1, "off-diagonal length mismatch");
    if n == 0 {
        return Ok((Vec::new(), DMat::zeros(0, 0)));
    }
    for (i, v) in d.iter().enumerate() {
        if !v.is_finite() {
            return Err(EigenError::NonFinite { index: i });
        }
    }
    for (i, v) in e.iter().enumerate() {
        if !v.is_finite() {
            return Err(EigenError::NonFinite { index: i });
        }
    }
    let mut dd = d.to_vec();
    // tql2 wants e shifted: e[i] = subdiagonal below d[i], with e[n-1] = 0.
    let mut ee = vec![0.0; n];
    ee[..n - 1].copy_from_slice(e);
    let with_z = z.nrows() > 0;
    tql2_raw(&mut dd, &mut ee, &mut z, with_z)?;
    if with_z {
        sort_ascending(&mut dd, &mut z);
    } else {
        dd.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    Ok((dd, z))
}

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// (EISPACK `tred2`). Returns `(d, e, z)` where `d` is the diagonal, `e`
/// the subdiagonal (`e[0]` unused, length n), and `z` the accumulated
/// orthogonal transformation with `zᵀ a z = tridiag(d, e)`.
fn tred2(a: &DMat<f64>) -> (Vec<f64>, Vec<f64>, DMat<f64>) {
    let n = a.nrows();
    let mut z = a.clone();
    // Use lower triangle only: force symmetry from the lower part.
    for j in 0..n {
        for i in 0..j {
            z[(i, j)] = z[(j, i)];
        }
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        let mut scale = 0.0;
        if l > 0 {
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let mut f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                f = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in j + 1..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f += e[j] * z[(i, j)];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let upd = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= upd;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        let l = i;
        if d[i] != 0.0 {
            for j in 0..l {
                let mut g = 0.0;
                for k in 0..l {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..l {
                    z[(k, j)] -= g * z[(k, i)];
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..l {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
    (d, e, z)
}

/// Implicit-shift QL on a tridiagonal matrix with eigenvector accumulation
/// (EISPACK `tql2`). `e[0]` unused on entry; eigenvalues land in `d`.
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut DMat<f64>) -> Result<(), EigenError> {
    let n = d.len();
    // Shift e for the loop convention used in tql2_raw: e[i] below d[i].
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    tql2_raw(d, e, z, true)
}

/// Core QL iteration. `e[i]` is the subdiagonal entry coupling `d[i]` and
/// `d[i+1]`; `e[n-1]` must be zero. When `with_z`, plane rotations are
/// accumulated into `z`.
fn tql2_raw(
    d: &mut [f64],
    e: &mut [f64],
    z: &mut DMat<f64>,
    with_z: bool,
) -> Result<(), EigenError> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    // Absolute deflation floor: inside a cluster of near-zero eigenvalues
    // the relative test `|e| ≤ ε(|d_m|+|d_{m+1}|)` can never fire (the
    // right-hand side is itself ~0) and the iteration stalls. Couplings
    // at rounding level of the overall matrix scale are converged for any
    // backward-stable purpose, so deflate them too.
    let anorm = (0..n)
        .map(|i| d[i].abs() + e[i].abs())
        .fold(0.0f64, f64::max);
    let floor = f64::EPSILON * anorm;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find small subdiagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON.mul_add(dd, floor) {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(EigenError::NotConverged { index: l });
            }
            // Form shift (Wilkinson).
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if with_z {
                    for k in 0..z.nrows() {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenvalues ascending, permuting eigenvector columns to match.
fn sort_ascending(d: &mut [f64], z: &mut DMat<f64>) {
    let n = d.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap());
    let sorted_d: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    d.copy_from_slice(&sorted_d);
    if z.ncols() == n && z.nrows() > 0 {
        let zn = z.nrows();
        let mut sorted = DMat::zeros(zn, n);
        for (newj, &oldj) in idx.iter().enumerate() {
            sorted.col_mut(newj).copy_from_slice(z.col(oldj));
        }
        *z = sorted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymEig) -> DMat<f64> {
        let lam = DMat::from_diag(&e.values);
        e.vectors.matmul(&lam).matmul(&e.vectors.transpose())
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let a = DMat::from_diag(&[3.0, 1.0, 2.0]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(e.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn two_by_two_known() {
        let a = DMat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // A dense SPD-ish symmetric matrix.
        let n = 12;
        let a = DMat::from_fn(n, n, |i, j| {
            let x = (i as f64 - j as f64).abs();
            (-x / 3.0).exp() + if i == j { 2.0 } else { 0.0 }
        });
        let e = sym_eig(&a).unwrap();
        let rec = reconstruct(&e);
        assert!((&rec - &a).norm_max() < 1e-10, "reconstruction failed");
        let qtq = e.vectors.transpose().matmul(&e.vectors);
        assert!((&qtq - &DMat::identity(n)).norm_max() < 1e-10);
        // ascending order
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        let a = DMat::identity(5);
        let e = sym_eig(&a).unwrap();
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn tridiagonal_matches_dense() {
        let d = [2.0, 3.0, 4.0, 5.0];
        let e = [1.0, 0.5, 0.25];
        let (vals, vecs) = eig_tridiagonal(&d, &e, true).unwrap();
        // Compare against the dense path.
        let mut a = DMat::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = d[i];
        }
        for i in 0..3 {
            a[(i, i + 1)] = e[i];
            a[(i + 1, i)] = e[i];
        }
        let dense = sym_eig(&a).unwrap();
        for (u, v) in vals.iter().zip(&dense.values) {
            assert!((u - v).abs() < 1e-10);
        }
        // Residual check A z = λ z.
        for k in 0..4 {
            let zk: Vec<f64> = (0..4).map(|i| vecs[(i, k)]).collect();
            let az = a.matvec(&zk);
            for i in 0..4 {
                assert!((az[i] - vals[k] * zk[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn tridiagonal_values_only() {
        let (vals, vecs) = eig_tridiagonal(&[1.0, 2.0], &[0.0], false).unwrap();
        assert_eq!(vals, vec![1.0, 2.0]);
        assert_eq!(vecs.nrows(), 0);
    }

    #[test]
    fn empty_and_single() {
        let e = sym_eig(&DMat::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
        let (vals, _) = eig_tridiagonal(&[7.0], &[], true).unwrap();
        assert_eq!(vals, vec![7.0]);
    }

    /// The last-row solve against the full solve, bit for bit.
    fn assert_last_row_matches_full(d: &[f64], e: &[f64], what: &str) {
        let (vals, z) = eig_tridiagonal(d, e, true).unwrap();
        let (vals_row, row) = eig_tridiagonal_last_row(d, e).unwrap();
        let n = d.len();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&vals_row), bits(&vals), "{what}: eigenvalues differ");
        let full_row: Vec<f64> = (0..n).map(|j| z[(n - 1, j)]).collect();
        assert_eq!(bits(&row), bits(&full_row), "{what}: last row differs");
    }

    #[test]
    fn last_row_matches_full_solve_on_random_tridiagonals() {
        let mut rng = crate::XorShiftRng::seed_from_u64(0x7d1a);
        for n in [1usize, 2, 3, 7, 40, 150] {
            for _ in 0..4 {
                let d: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-3.0, 3.0)).collect();
                let e: Vec<f64> = (1..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
                assert_last_row_matches_full(&d, &e, &format!("random n={n}"));
            }
        }
    }

    #[test]
    fn last_row_matches_full_solve_on_lanczos_like_spectra() {
        // A Lanczos T of a decaying spectrum: positive, rapidly shrinking
        // diagonal and couplings, a few converged extreme Ritz values.
        let mut rng = crate::XorShiftRng::seed_from_u64(0x1a2c05);
        for n in [10usize, 60, 200] {
            let d: Vec<f64> = (0..n)
                .map(|i| 1e-9 * (-(i as f64) / 6.0).exp() * rng.gen_range_f64(0.5, 1.5))
                .collect();
            let e: Vec<f64> = (1..n)
                .map(|i| 1e-10 * (-(i as f64) / 8.0).exp() * rng.gen_range_f64(0.1, 1.0))
                .collect();
            assert_last_row_matches_full(&d, &e, &format!("decaying n={n}"));
        }
    }

    #[test]
    fn last_row_matches_full_solve_on_clustered_and_repeated_eigenvalues() {
        // A repeated eigenvalue with rounding-level couplings.
        let n = 30;
        let d = vec![2.0; n];
        let e: Vec<f64> = (1..n).map(|i| 1e-18 * i as f64).collect();
        assert_last_row_matches_full(&d, &e, "repeated");
        // A cluster of near-zero eigenvalues beside a few large ones: the
        // absolute deflation floor, not the relative test, ends the QL
        // sweeps inside the cluster.
        let mut d = vec![1e-17; n];
        d[..3].copy_from_slice(&[5.0, 4.0, 3.0]);
        let e: Vec<f64> = (1..n).map(|i| if i < 4 { 0.5 } else { 1e-18 }).collect();
        assert_last_row_matches_full(&d, &e, "near-zero cluster");
        // Exactly decoupled blocks with equal spectra.
        let d = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let e = [0.3, 0.0, 0.3, 0.0, 0.3];
        assert_last_row_matches_full(&d, &e, "decoupled copies");
        assert_last_row_matches_full(&[0.0; 5], &[0.0; 4], "zero matrix");
    }

    #[test]
    fn last_row_of_empty_matrix_is_empty() {
        let (vals, row) = eig_tridiagonal_last_row(&[], &[]).unwrap();
        assert!(vals.is_empty() && row.is_empty());
        assert!(matches!(
            eig_tridiagonal_last_row(&[1.0, f64::NAN], &[0.0]),
            Err(EigenError::NonFinite { index: 1 })
        ));
    }

    #[test]
    fn negative_semidefinite_spectrum() {
        // Graph Laplacian of a triangle: eigenvalues {0, 3, 3}.
        let a = DMat::from_rows(&[&[2.0, -1.0, -1.0], &[-1.0, 2.0, -1.0], &[-1.0, -1.0, 2.0]]);
        let e = sym_eig(&a).unwrap();
        assert!(e.values[0].abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }
}
