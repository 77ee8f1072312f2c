//! Sparse LU factorization with partial pivoting (Gilbert–Peierls),
//! generic over [`Scalar`] so the same kernel serves real MNA systems
//! (DC/transient) and complex ones (AC sweeps).
//!
//! This is the linear-solver core of the `pact-circuit` HSPICE stand-in.
//! The algorithm factors one column at a time: a depth-first search over
//! the partially-built `L` finds the nonzero pattern of `L⁻¹ a_j`
//! (topologically ordered), the numeric sparse triangular solve fills it
//! in, and a threshold partial pivot (diagonal preferred) is chosen.
//!
//! ## One symbolic, many numerics
//!
//! Sweep loops (AC frequency grids, Newton iterations, transient
//! timesteps) factor many matrices that share one sparsity pattern. The
//! per-column DFS, the pattern emission and the pivot search are all
//! pattern work that can be done **once**: [`SparseLu::factor_analyzed`]
//! captures a [`SymbolicLu`] — the `L`/`U` patterns, the row permutation
//! and (implicitly, in the stored `U` column order) the topological
//! update order — and [`SymbolicLu::refactor`] replays only the numeric
//! pass for a new matrix with the same structure. When the cached pivot
//! sequence is still admissible under threshold partial pivoting the
//! replay is **bit-identical** to a fresh factorization; when values
//! drift far enough that a cached pivot is rejected, `refactor` reports
//! it and the caller falls back to a fresh full factorization (see
//! [`LuCache`], which packages that policy).

use crate::complex::Scalar;

/// Error from factoring a numerically singular sparse matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseLuError {
    /// Column at which no acceptable pivot existed.
    pub column: usize,
}

impl std::fmt::Display for SparseLuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sparse matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SparseLuError {}

/// A sparse matrix in compressed-sparse-column form with generic scalar
/// values — the input format for [`SparseLu`].
///
/// Build one from triplets with [`CscMat::from_triplets`]; duplicate
/// entries are summed (circuit stamping relies on this).
#[derive(Clone, Debug)]
pub struct CscMat<S> {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<S>,
}

impl<S: Scalar> CscMat<S> {
    /// Compresses `(row, col, value)` triplets into CSC, summing
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_triplets(n_rows: usize, n_cols: usize, triplets: &[(usize, usize, S)]) -> Self {
        let mut counts = vec![0usize; n_cols];
        for &(r, c, _) in triplets {
            assert!(r < n_rows && c < n_cols, "triplet out of bounds");
            counts[c] += 1;
        }
        let mut indptr = vec![0usize; n_cols + 1];
        for j in 0..n_cols {
            indptr[j + 1] = indptr[j] + counts[j];
        }
        let mut rows = vec![0usize; triplets.len()];
        let mut vals = vec![S::zero(); triplets.len()];
        let mut next = indptr.clone();
        for &(r, c, v) in triplets {
            rows[next[c]] = r;
            vals[next[c]] = v;
            next[c] += 1;
        }
        // Sort each column and merge duplicates.
        let mut out_indptr = vec![0usize; n_cols + 1];
        let mut out_rows = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(usize, S)> = Vec::new();
        for j in 0..n_cols {
            scratch.clear();
            for p in indptr[j]..indptr[j + 1] {
                scratch.push((rows[p], vals[p]));
            }
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < scratch.len() {
                let r = scratch[k].0;
                let mut v = S::zero();
                while k < scratch.len() && scratch[k].0 == r {
                    v += scratch[k].1;
                    k += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
            }
            out_indptr[j + 1] = out_rows.len();
        }
        CscMat {
            n_rows,
            n_cols,
            indptr: out_indptr,
            indices: out_rows,
            data: out_vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.n_cols
    }

    /// Assembles a CSC matrix directly from its raw compressed parts.
    ///
    /// Columns must be sorted by row with no duplicates — the layout
    /// [`CscMat::from_triplets`] produces. Used by value-refresh paths
    /// (e.g. [`crate::CscPencil`]) that keep one structure and rewrite
    /// `data` per evaluation point.
    ///
    /// # Panics
    ///
    /// Panics if the parts are inconsistent (lengths, monotonicity,
    /// out-of-bounds or unsorted row indices).
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<S>,
    ) -> Self {
        assert_eq!(indptr.len(), n_cols + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr end");
        assert_eq!(indices.len(), data.len(), "indices/data length");
        for j in 0..n_cols {
            assert!(indptr[j] <= indptr[j + 1], "indptr must be monotone");
            for p in indptr[j]..indptr[j + 1] {
                assert!(indices[p] < n_rows, "row index out of bounds");
                if p > indptr[j] {
                    assert!(indices[p - 1] < indices[p], "rows must be sorted, unique");
                }
            }
        }
        CscMat {
            n_rows,
            n_cols,
            indptr,
            indices,
            data,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Column pointers (length `ncols + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Row indices, column-major.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, aligned with [`CscMat::indices`].
    pub fn values(&self) -> &[S] {
        &self.data
    }

    /// Mutable stored values — rewrite these to change the matrix without
    /// touching its structure (the basis of numeric refactorization).
    pub fn values_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// `true` when `other` has exactly the same sparsity structure
    /// (dimensions, column pointers and row indices).
    pub fn structure_eq<T: Scalar>(&self, other: &CscMat<T>) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.indptr == other.indptr
            && self.indices == other.indices
    }

    /// Matrix–vector product `A x` (columns scatter into the result).
    pub fn matvec(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.n_cols);
        let mut y = vec![S::zero(); self.n_rows];
        for j in 0..self.n_cols {
            let xj = x[j];
            if xj == S::zero() {
                continue;
            }
            for p in self.indptr[j]..self.indptr[j + 1] {
                y[self.indices[p]] += self.data[p] * xj;
            }
        }
        y
    }
}

/// Sparse LU factors `P A = L U` produced by Gilbert–Peierls with
/// threshold partial pivoting.
#[derive(Clone, Debug)]
pub struct SparseLu<S> {
    n: usize,
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<S>,
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<S>,
    /// `pinv[original_row] = pivot position`.
    pinv: Vec<usize>,
}

impl<S: Scalar> SparseLu<S> {
    /// Factors a square sparse matrix with the default diagonal-preference
    /// threshold (0.1), appropriate for MNA matrices.
    ///
    /// # Errors
    ///
    /// [`SparseLuError`] if the matrix is singular.
    pub fn factor(a: &CscMat<S>) -> Result<Self, SparseLuError> {
        Self::factor_with_threshold(a, 0.1)
    }

    /// Factors with an explicit pivot threshold in `(0, 1]`: the diagonal
    /// entry is accepted as pivot when its magnitude is at least
    /// `threshold` times the column maximum. `1.0` forces strict partial
    /// pivoting.
    ///
    /// # Errors
    ///
    /// [`SparseLuError`] if some column has no nonzero candidate pivot.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor_with_threshold(a: &CscMat<S>, threshold: f64) -> Result<Self, SparseLuError> {
        assert_eq!(a.n_rows, a.n_cols, "sparse LU needs a square matrix");
        let n = a.n_rows;
        let mut lp = vec![0usize; n + 1];
        let mut up = vec![0usize; n + 1];
        let mut li: Vec<usize> = Vec::with_capacity(4 * a.nnz() + n);
        let mut lx: Vec<S> = Vec::with_capacity(4 * a.nnz() + n);
        let mut ui: Vec<usize> = Vec::with_capacity(4 * a.nnz() + n);
        let mut ux: Vec<S> = Vec::with_capacity(4 * a.nnz() + n);
        let mut pinv = vec![usize::MAX; n];
        let mut x = vec![S::zero(); n];
        let mut xi = vec![0usize; n]; // topological pattern stack
        let mut mark = vec![usize::MAX; n];
        let mut node_stack: Vec<usize> = Vec::with_capacity(n);
        let mut iter_stack: Vec<usize> = Vec::with_capacity(n);

        for j in 0..n {
            // ---- symbolic: DFS reach of A(:,j) through columns of L ----
            let mut top = n;
            for p in a.indptr[j]..a.indptr[j + 1] {
                let start = a.indices[p];
                if mark[start] == j {
                    continue;
                }
                // Iterative DFS.
                node_stack.clear();
                iter_stack.clear();
                node_stack.push(start);
                mark[start] = j;
                iter_stack.push(if pinv[start] == usize::MAX {
                    usize::MAX
                } else {
                    lp[pinv[start]] + 1 // skip unit diagonal
                });
                while let Some(&i) = node_stack.last() {
                    let k = pinv[i];
                    let mut pos = *iter_stack.last().unwrap();
                    let end = if k == usize::MAX { 0 } else { lp[k + 1] };
                    let mut descended = false;
                    if k != usize::MAX {
                        while pos < end {
                            let child = li[pos];
                            pos += 1;
                            if mark[child] != j {
                                mark[child] = j;
                                *iter_stack.last_mut().unwrap() = pos;
                                node_stack.push(child);
                                iter_stack.push(if pinv[child] == usize::MAX {
                                    usize::MAX
                                } else {
                                    lp[pinv[child]] + 1
                                });
                                descended = true;
                                break;
                            }
                        }
                    }
                    if !descended {
                        node_stack.pop();
                        iter_stack.pop();
                        top -= 1;
                        xi[top] = i;
                    }
                }
            }

            // ---- numeric: scatter A(:,j), sparse lower triangular solve ----
            for p in a.indptr[j]..a.indptr[j + 1] {
                x[a.indices[p]] = a.data[p];
            }
            for idx in top..n {
                let i = xi[idx];
                let k = pinv[i];
                if k == usize::MAX {
                    continue;
                }
                let xj = x[i]; // unit diagonal: no division
                if xj == S::zero() {
                    continue;
                }
                for p in lp[k] + 1..lp[k + 1] {
                    let sub = lx[p] * xj;
                    x[li[p]] -= sub;
                }
            }

            // ---- pivot selection ----
            // Magnitudes are compared squared: the decision is the same
            // (the map is monotone) and it saves a `hypot` per candidate
            // in the hot loop. The refactorization path uses the same
            // metric so its admissibility test reproduces this choice
            // exactly.
            let mut best = usize::MAX;
            let mut best_sq = 0.0f64;
            for idx in top..n {
                let i = xi[idx];
                if pinv[i] == usize::MAX {
                    let m = x[i].modulus_sq();
                    // A NaN candidate compares false against every
                    // threshold; report it as a typed error instead of
                    // silently skipping it (it would poison L either way).
                    if !m.is_finite() {
                        return Err(SparseLuError { column: j });
                    }
                    if m > best_sq {
                        best_sq = m;
                        best = i;
                    }
                }
            }
            if best == usize::MAX || best_sq == 0.0 || !best_sq.is_finite() {
                return Err(SparseLuError { column: j });
            }
            // Prefer the diagonal when acceptable (sparsity preservation).
            if pinv[j] == usize::MAX && x[j].modulus_sq() >= threshold * threshold * best_sq {
                best = j;
            }
            let pivot = x[best];
            pinv[best] = j;

            // ---- emit column j of U (pivoted rows) and L (unpivoted) ----
            for idx in top..n {
                let i = xi[idx];
                if pinv[i] != usize::MAX && i != best {
                    let k = pinv[i];
                    if k < j {
                        ui.push(k);
                        ux.push(x[i]);
                    }
                }
            }
            ui.push(j);
            ux.push(pivot); // diagonal of U, stored last in the column
            up[j + 1] = ui.len();

            li.push(best);
            lx.push(S::one()); // unit diagonal first
            for idx in top..n {
                let i = xi[idx];
                if pinv[i] == usize::MAX {
                    li.push(i);
                    lx.push(x[i] / pivot);
                }
                x[i] = S::zero();
            }
            x[best] = S::zero();
            lp[j + 1] = li.len();
        }

        // Map L's row indices into pivot coordinates.
        for r in li.iter_mut() {
            *r = pinv[*r];
        }
        // U's columns must be sorted? usolve only needs the diagonal last,
        // which the construction guarantees.
        Ok(SparseLu {
            n,
            lp,
            li,
            lx,
            up,
            ui,
            ux,
            pinv,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total stored entries in `L` and `U` (fill-in measure).
    pub fn factor_nnz(&self) -> usize {
        self.lx.len() + self.ux.len()
    }

    /// Modelled memory footprint in bytes of the factors.
    pub fn memory_bytes(&self) -> usize {
        self.factor_nnz() * (std::mem::size_of::<S>() + 8) + (self.lp.len() + self.up.len()) * 8
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[S]) -> Vec<S> {
        let mut x = vec![S::zero(); self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n` or `x.len() != n`.
    pub fn solve_into(&self, b: &[S], x: &mut [S]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        // Apply the row permutation: x[pinv[i]] = b[i].
        for (i, &bi) in b.iter().enumerate() {
            x[self.pinv[i]] = bi;
        }
        // L y = Pb (unit lower, diagonal first per column).
        for j in 0..self.n {
            let xj = x[j];
            if xj == S::zero() {
                continue;
            }
            for p in self.lp[j] + 1..self.lp[j + 1] {
                let sub = self.lx[p] * xj;
                x[self.li[p]] -= sub;
            }
        }
        // U x = y (diagonal last per column).
        for j in (0..self.n).rev() {
            let dpos = self.up[j + 1] - 1;
            let xj = x[j] / self.ux[dpos];
            x[j] = xj;
            if xj == S::zero() {
                continue;
            }
            for p in self.up[j]..dpos {
                let sub = self.ux[p] * xj;
                x[self.ui[p]] -= sub;
            }
        }
    }

    /// Solves `A X = B` for `k = xs.len() / n` right-hand sides stored
    /// column-major in `xs`, overwriting them with the solutions.
    ///
    /// The triangular sweeps run factor-column-outer and RHS-inner, so
    /// each `L`/`U` column's indices and values are loaded once and
    /// applied to every right-hand side — the blocked multi-RHS form the
    /// admittance evaluator uses for its `m` port columns. Per right-hand
    /// side the arithmetic sequence is exactly [`SparseLu::solve`]'s, so
    /// blocking never changes results bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of `n`.
    pub fn solve_block_in_place(&self, xs: &mut [S], scratch: &mut Vec<S>) {
        let n = self.n;
        if n == 0 {
            return;
        }
        assert_eq!(xs.len() % n, 0, "xs must hold whole n-vectors");
        let k = xs.len() / n;
        // Row permutation per RHS, staged through scratch.
        scratch.clear();
        scratch.resize(n, S::zero());
        for c in 0..k {
            let col = &mut xs[c * n..(c + 1) * n];
            for i in 0..n {
                scratch[self.pinv[i]] = col[i];
            }
            col.copy_from_slice(scratch);
        }
        // L sweep: column j of L applied to all right-hand sides.
        for j in 0..n {
            for p in self.lp[j] + 1..self.lp[j + 1] {
                let (row, lij) = (self.li[p], self.lx[p]);
                for c in 0..k {
                    let xj = xs[c * n + j];
                    if xj == S::zero() {
                        continue;
                    }
                    let sub = lij * xj;
                    xs[c * n + row] -= sub;
                }
            }
        }
        // U sweep.
        for j in (0..n).rev() {
            let dpos = self.up[j + 1] - 1;
            let d = self.ux[dpos];
            for c in 0..k {
                let xj = xs[c * n + j] / d;
                xs[c * n + j] = xj;
            }
            for p in self.up[j]..dpos {
                let (row, uij) = (self.ui[p], self.ux[p]);
                for c in 0..k {
                    let xj = xs[c * n + j];
                    if xj == S::zero() {
                        continue;
                    }
                    let sub = uij * xj;
                    xs[c * n + row] -= sub;
                }
            }
        }
    }

    /// Factors and also captures the symbolic analysis (pattern, pivot
    /// sequence, update order) for later numeric-only refactorization
    /// with [`SymbolicLu::refactor`]. Default pivot threshold (0.1).
    ///
    /// # Errors
    ///
    /// [`SparseLuError`] if the matrix is singular.
    pub fn factor_analyzed(a: &CscMat<S>) -> Result<(Self, SymbolicLu), SparseLuError> {
        Self::factor_analyzed_with_threshold(a, 0.1)
    }

    /// [`SparseLu::factor_analyzed`] with an explicit pivot threshold.
    ///
    /// # Errors
    ///
    /// [`SparseLuError`] if the matrix is singular.
    pub fn factor_analyzed_with_threshold(
        a: &CscMat<S>,
        threshold: f64,
    ) -> Result<(Self, SymbolicLu), SparseLuError> {
        let lu = Self::factor_with_threshold(a, threshold)?;
        let sym = SymbolicLu {
            n: lu.n,
            a_indptr: a.indptr.clone(),
            a_indices: a.indices.clone(),
            lp: lu.lp.clone(),
            li: lu.li.clone(),
            up: lu.up.clone(),
            ui: lu.ui.clone(),
            pinv: lu.pinv.clone(),
            threshold,
        };
        Ok((lu, sym))
    }

    /// Values of `L` (unit diagonal stored explicitly, column-major) —
    /// exposed so tests can assert bit-identity between `factor` and
    /// `refactor` outputs.
    pub fn l_values(&self) -> &[S] {
        &self.lx
    }

    /// Values of `U` (diagonal last per column), see
    /// [`SparseLu::l_values`].
    pub fn u_values(&self) -> &[S] {
        &self.ux
    }

    /// The row permutation `pinv[original_row] = pivot position`.
    pub fn row_permutation(&self) -> &[usize] {
        &self.pinv
    }
}

/// Why a numeric refactorization could not reuse a cached symbolic
/// analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefactorError {
    /// The matrix's sparsity structure differs from the analyzed one;
    /// the symbolic analysis does not apply.
    StructureMismatch,
    /// Threshold partial pivoting rejected the cached pivot at this
    /// column — the values drifted too far from the analyzed matrix.
    /// Fall back to a fresh full factorization.
    PivotRejected {
        /// Column (pivot position) at which the cached pivot failed.
        column: usize,
    },
    /// The matrix is numerically singular at this column.
    Singular {
        /// Column (pivot position) with no usable pivot.
        column: usize,
    },
}

impl std::fmt::Display for RefactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorError::StructureMismatch => {
                write!(f, "matrix structure differs from the symbolic analysis")
            }
            RefactorError::PivotRejected { column } => {
                write!(f, "cached pivot rejected at column {column}")
            }
            RefactorError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
        }
    }
}

impl std::error::Error for RefactorError {}

/// The reusable symbolic half of a sparse LU: column elimination
/// structure, `L`/`U` patterns and the pivot sequence, captured once by
/// [`SparseLu::factor_analyzed`] and replayed by
/// [`SymbolicLu::refactor`] for every matrix that shares the structure.
///
/// The struct is value-free (`usize` patterns only), so one analysis —
/// captured from a real factorization — can serve complex
/// refactorizations and vice versa, as long as the sparsity structure
/// matches.
///
/// The stored `U` column order doubles as the topological update order:
/// Gilbert–Peierls emits each `U` column in the exact DFS-topological
/// order its numeric update loop consumed, so replaying `U`'s entries
/// in storage order reproduces the fresh factorization's floating-point
/// sequence operation for operation. That is what makes `refactor`
/// bit-identical to `factor` whenever the pivot sequence is accepted.
#[derive(Clone, Debug)]
pub struct SymbolicLu {
    n: usize,
    a_indptr: Vec<usize>,
    a_indices: Vec<usize>,
    lp: Vec<usize>,
    li: Vec<usize>,
    up: Vec<usize>,
    ui: Vec<usize>,
    /// `pinv[original_row] = pivot position`.
    pinv: Vec<usize>,
    threshold: f64,
}

impl SymbolicLu {
    /// Matrix dimension this analysis applies to.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total `L` + `U` pattern entries (fill-in measure).
    pub fn factor_nnz(&self) -> usize {
        self.li.len() + self.ui.len()
    }

    /// The pivot threshold the analysis was captured with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// `true` when `a` has exactly the analyzed sparsity structure.
    pub fn matches<S: Scalar>(&self, a: &CscMat<S>) -> bool {
        a.n_rows == self.n
            && a.n_cols == self.n
            && a.indptr == self.a_indptr
            && a.indices == self.a_indices
    }

    /// An empty factorization with this analysis' patterns and zeroed
    /// values — the reusable target buffer for
    /// [`SymbolicLu::refactor_into`].
    pub fn prepared<S: Scalar>(&self) -> SparseLu<S> {
        SparseLu {
            n: self.n,
            lp: self.lp.clone(),
            li: self.li.clone(),
            lx: vec![S::zero(); self.li.len()],
            up: self.up.clone(),
            ui: self.ui.clone(),
            ux: vec![S::zero(); self.ui.len()],
            pinv: self.pinv.clone(),
        }
    }

    /// Numeric-only refactorization: factors `a` by replaying the cached
    /// elimination, skipping the per-column DFS, pattern emission and
    /// pivot search.
    ///
    /// # Errors
    ///
    /// [`RefactorError`] when the structure differs, a cached pivot is
    /// rejected by threshold partial pivoting, or `a` is singular. The
    /// caller should then fall back to [`SparseLu::factor`].
    pub fn refactor<S: Scalar>(&self, a: &CscMat<S>) -> Result<SparseLu<S>, RefactorError> {
        let mut out = self.prepared();
        self.refactor_into(a, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`SymbolicLu::refactor`]: writes the numeric
    /// factors into `out`, which must come from [`SymbolicLu::prepared`]
    /// (or a previous `refactor` of this analysis).
    ///
    /// # Errors
    ///
    /// See [`SymbolicLu::refactor`]. On error `out`'s values are
    /// unspecified but its patterns remain valid for another attempt.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s patterns do not belong to this analysis.
    pub fn refactor_into<S: Scalar>(
        &self,
        a: &CscMat<S>,
        out: &mut SparseLu<S>,
    ) -> Result<(), RefactorError> {
        if !self.matches(a) {
            return Err(RefactorError::StructureMismatch);
        }
        assert_eq!(out.n, self.n, "refactor target from a different analysis");
        assert_eq!(out.lx.len(), self.li.len(), "L pattern mismatch");
        assert_eq!(out.ux.len(), self.ui.len(), "U pattern mismatch");
        let n = self.n;
        // Dense workspace in pivot coordinates, cleared per column.
        let mut x = vec![S::zero(); n];
        for j in 0..n {
            // Scatter A(:, j) (mapped through the row permutation).
            for p in self.a_indptr[j]..self.a_indptr[j + 1] {
                x[self.pinv[self.a_indices[p]]] = a.data[p];
            }
            // Numeric sparse triangular solve, replayed in the captured
            // topological order = the stored U column order (sans the
            // diagonal, which is stored last).
            let dpos = self.up[j + 1] - 1;
            for t in self.up[j]..dpos {
                let k = self.ui[t];
                let xj = x[k]; // unit diagonal: no division
                if xj == S::zero() {
                    continue;
                }
                for p in self.lp[k] + 1..self.lp[k + 1] {
                    let sub = out.lx[p] * xj;
                    x[self.li[p]] -= sub;
                }
            }
            // Emit the numeric values into the fixed patterns, zeroing
            // the workspace as it is gathered (one pass instead of an
            // emit pass plus a clear pass), and re-validate the cached
            // pivot against the column maximum of the not-yet-pivoted
            // candidates on the way (threshold partial pivoting with the
            // same squared-magnitude metric the fresh factorization
            // applied, so the accept/reject boundary is identical).
            // `out`'s values are unspecified on error, so emitting before
            // the checks is safe; by check time the workspace is already
            // clean for another attempt.
            for t in self.up[j]..dpos {
                let k = self.ui[t];
                out.ux[t] = x[k];
                x[k] = S::zero();
            }
            let pivot = x[j];
            x[j] = S::zero();
            let pivot_sq = pivot.modulus_sq();
            let mut best_sq = pivot_sq;
            // `f64::max` silently drops NaN operands and `NaN < t` is
            // false, so a poisoned column could slip past both checks
            // below; track finiteness explicitly instead.
            let mut all_finite = pivot_sq.is_finite();
            out.ux[dpos] = pivot;
            out.lx[self.lp[j]] = S::one();
            for p in self.lp[j] + 1..self.lp[j + 1] {
                let v = x[self.li[p]];
                x[self.li[p]] = S::zero();
                let m = v.modulus_sq();
                all_finite &= m.is_finite();
                best_sq = best_sq.max(m);
                out.lx[p] = v / pivot;
            }
            if !all_finite || best_sq == 0.0 || !best_sq.is_finite() {
                return Err(RefactorError::Singular { column: j });
            }
            if pivot_sq < self.threshold * self.threshold * best_sq {
                return Err(RefactorError::PivotRejected { column: j });
            }
        }
        Ok(())
    }
}

/// Factor-or-refactor policy in one place: holds the most recent
/// [`SymbolicLu`] and serves every factorization request with a cheap
/// numeric refactor when the cached analysis applies, transparently
/// falling back to (and re-capturing from) a fresh full factorization
/// when the structure changed or partial pivoting rejected the cached
/// pivots.
///
/// The returned flag distinguishes the two paths so callers can feed
/// `refactorizations` vs `factorizations` telemetry.
#[derive(Clone, Debug)]
pub struct LuCache {
    sym: Option<SymbolicLu>,
    threshold: f64,
}

impl Default for LuCache {
    fn default() -> Self {
        LuCache::new()
    }
}

impl LuCache {
    /// An empty cache with the default pivot threshold (0.1).
    pub fn new() -> Self {
        LuCache {
            sym: None,
            threshold: 0.1,
        }
    }

    /// An empty cache with an explicit pivot threshold in `(0, 1]`.
    pub fn with_threshold(threshold: f64) -> Self {
        LuCache {
            sym: None,
            threshold,
        }
    }

    /// The cached symbolic analysis, when one has been captured.
    pub fn symbolic(&self) -> Option<&SymbolicLu> {
        self.sym.as_ref()
    }

    /// Drops the cached analysis.
    pub fn clear(&mut self) {
        self.sym = None;
    }

    /// Factors `a`, refactoring numerically when the cached symbolic
    /// analysis applies. Returns the factorization and `true` when it
    /// was a numeric-only refactor (`false` = fresh full factorization,
    /// whose analysis is captured for subsequent calls).
    ///
    /// # Errors
    ///
    /// [`SparseLuError`] if `a` is singular.
    pub fn factor<S: Scalar>(
        &mut self,
        a: &CscMat<S>,
    ) -> Result<(SparseLu<S>, bool), SparseLuError> {
        if let Some(sym) = &self.sym {
            if let Ok(lu) = sym.refactor(a) {
                return Ok((lu, true));
            }
        }
        let (lu, sym) = SparseLu::factor_analyzed_with_threshold(a, self.threshold)?;
        self.sym = Some(sym);
        Ok((lu, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    fn residual_inf<S: Scalar>(a: &CscMat<S>, x: &[S], b: &[S]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(p, q)| (*p - *q).modulus())
            .fold(0.0, f64::max)
    }

    #[test]
    fn dense_small_system() {
        let trip = vec![
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ];
        let a = CscMat::from_triplets(3, 3, &trip);
        let lu = SparseLu::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b);
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn requires_pivoting() {
        // Zero diagonal entry forces an off-diagonal pivot.
        let trip = vec![(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1e-30)];
        let a = CscMat::from_triplets(2, 2, &trip);
        let lu = SparseLu::factor_with_threshold(&a, 1.0).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert!(residual_inf(&a, &x, &[5.0, 7.0]) < 1e-9);
    }

    #[test]
    fn detects_singular() {
        let trip = vec![(0, 0, 1.0), (1, 0, 2.0)]; // column 1 empty
        let a = CscMat::from_triplets(2, 2, &trip);
        assert!(SparseLu::factor(&a).is_err());
    }

    #[test]
    fn random_sparse_system_matches_dense() {
        // Deterministic pseudo-random pattern, diagonally dominated.
        let n = 40;
        let mut trip = Vec::new();
        let mut state = 12345u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            trip.push((i, i, 4.0 + rnd()));
            for _ in 0..3 {
                let j = ((rnd() + 0.5) * n as f64) as usize % n;
                if j != i {
                    trip.push((i, j, rnd()));
                }
            }
        }
        let a = CscMat::from_triplets(n, n, &trip);
        let lu = SparseLu::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let x = lu.solve(&b);
        assert!(residual_inf(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn complex_ac_style_system() {
        // (G + jwC) pattern: 2x2 RC divider at some frequency.
        let g = 1e-3;
        let wc = 2.0 * std::f64::consts::PI * 1e9 * 1e-12;
        let trip = vec![
            (0, 0, Complex64::new(2.0 * g, wc)),
            (0, 1, Complex64::new(-g, 0.0)),
            (1, 0, Complex64::new(-g, 0.0)),
            (1, 1, Complex64::new(g, wc)),
        ];
        let a = CscMat::from_triplets(2, 2, &trip);
        let lu = SparseLu::factor(&a).unwrap();
        let b = [Complex64::new(1e-3, 0.0), Complex64::ZERO];
        let x = lu.solve(&b);
        assert!(residual_inf(&a, &x, &b) < 1e-15);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let trip = vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)];
        let a = CscMat::from_triplets(2, 2, &trip);
        assert_eq!(a.nnz(), 2);
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 1.0]);
        assert!((x[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn permuted_identity() {
        // A = permutation matrix: solve must invert the permutation.
        let trip = vec![(2, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)];
        let a = CscMat::from_triplets(3, 3, &trip);
        let lu = SparseLu::factor_with_threshold(&a, 1.0).unwrap();
        let x = lu.solve(&[10.0, 20.0, 30.0]);
        // A x = b with A e0 = e2 etc: x = [b1, b2, b0]? verify by residual
        assert!(residual_inf(&a, &x, &[10.0, 20.0, 30.0]) < 1e-15);
    }

    #[test]
    fn fill_in_counted() {
        let trip = vec![
            (0, 0, 4.0),
            (1, 1, 4.0),
            (2, 2, 4.0),
            (0, 2, 1.0),
            (2, 0, 1.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
        ];
        let a = CscMat::from_triplets(3, 3, &trip);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.factor_nnz() >= a.nnz());
        assert!(lu.memory_bytes() > 0);
    }

    /// The deterministic pseudo-random fixture from
    /// `random_sparse_system_matches_dense`, with a tweakable seed so
    /// refactor tests get "same structure, different values" pairs.
    fn random_csc(n: usize, seed: u64, shift: f64) -> CscMat<f64> {
        let mut trip = Vec::new();
        let mut state = seed;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            trip.push((i, i, 4.0 + shift + rnd()));
            for _ in 0..3 {
                let j = ((rnd() + 0.5) * n as f64) as usize % n;
                if j != i {
                    trip.push((i, j, rnd()));
                }
            }
        }
        CscMat::from_triplets(n, n, &trip)
    }

    #[test]
    fn refactor_bit_identical_to_fresh_factor() {
        let a = random_csc(60, 999, 0.0);
        let (lu0, sym) = SparseLu::factor_analyzed(&a).unwrap();
        // Same structure, different values: refresh the data in place.
        let mut b = a.clone();
        for (k, v) in b.values_mut().iter_mut().enumerate() {
            *v += 1e-3 * ((k as f64) * 0.61).sin();
        }
        let fresh = SparseLu::factor(&b).unwrap();
        let refac = sym.refactor(&b).unwrap();
        assert_eq!(refac.l_values(), fresh.l_values());
        assert_eq!(refac.u_values(), fresh.u_values());
        assert_eq!(refac.row_permutation(), fresh.row_permutation());
        // And refactoring the original reproduces the original exactly.
        let back = sym.refactor(&a).unwrap();
        assert_eq!(back.l_values(), lu0.l_values());
        assert_eq!(back.u_values(), lu0.u_values());
    }

    #[test]
    fn refactor_complex_from_real_analysis() {
        // One value-free analysis serves both scalar types.
        let a = random_csc(40, 7, 0.0);
        let (_, sym) = SparseLu::factor_analyzed(&a).unwrap();
        let trips_c: Vec<(usize, usize, Complex64)> = {
            let mut t = Vec::new();
            for j in 0..40 {
                for p in a.indptr()[j]..a.indptr()[j + 1] {
                    let i = a.indices()[p];
                    t.push((i, j, Complex64::new(a.values()[p], 0.25 * a.values()[p])));
                }
            }
            t
        };
        let ac = CscMat::from_triplets(40, 40, &trips_c);
        assert!(sym.matches(&ac));
        let fresh = SparseLu::factor(&ac).unwrap();
        let refac = sym.refactor(&ac).unwrap();
        assert_eq!(refac.l_values(), fresh.l_values());
        assert_eq!(refac.u_values(), fresh.u_values());
    }

    #[test]
    fn refactor_rejects_structure_mismatch_and_bad_pivots() {
        let a = random_csc(30, 42, 0.0);
        let (_, sym) = SparseLu::factor_analyzed(&a).unwrap();
        // Different pattern -> StructureMismatch.
        let other = random_csc(30, 43, 0.0);
        if !sym.matches(&other) {
            assert_eq!(
                sym.refactor(&other).unwrap_err(),
                RefactorError::StructureMismatch
            );
        }
        // Same pattern, pivot-hostile values: kill a diagonal so the
        // cached pivot fails the threshold test.
        let mut hostile = a.clone();
        let dj = 15;
        for p in hostile.indptr()[dj]..hostile.indptr()[dj + 1] {
            if hostile.indices()[p] == dj {
                let vals = hostile.values_mut();
                vals[p] = 1e-30;
            }
        }
        match sym.refactor(&hostile) {
            Err(RefactorError::PivotRejected { .. }) => {}
            Ok(_) => {
                // Fill-in can rescue the pivot; force total singularity
                // instead to exercise the other arm.
                let mut singular = a.clone();
                let nnz = singular.nnz();
                for v in singular.values_mut().iter_mut().take(nnz) {
                    *v = 0.0;
                }
                assert!(matches!(
                    sym.refactor(&singular),
                    Err(RefactorError::Singular { .. })
                ));
            }
            Err(e) => panic!("unexpected refactor error: {e}"),
        }
        // After any rejection the prepared buffer still works.
        let again = sym.refactor(&a).unwrap();
        let fresh = SparseLu::factor(&a).unwrap();
        assert_eq!(again.u_values(), fresh.u_values());
    }

    #[test]
    fn lu_cache_falls_back_and_recaptures() {
        let mut cache = LuCache::new();
        let a = random_csc(30, 1, 0.0);
        let (_, first_refac) = cache.factor(&a).unwrap();
        assert!(!first_refac, "first factorization cannot be a refactor");
        let (_, second_refac) = cache.factor(&a).unwrap();
        assert!(second_refac, "same matrix must hit the cached analysis");
        // A different structure forces a fresh factorization + recapture.
        let b = random_csc(30, 2, 0.0);
        let (_, refac_b) = cache.factor(&b).unwrap();
        if sym_matches(&cache, &b) {
            let (_, again) = cache.factor(&b).unwrap();
            assert!(again);
        }
        // Whether b's first call refactored depends only on pattern equality.
        assert_eq!(refac_b, cache_structure_matched(&a, &b));
    }

    fn sym_matches(cache: &LuCache, m: &CscMat<f64>) -> bool {
        cache.symbolic().is_some_and(|s| s.matches(m))
    }

    fn cache_structure_matched(a: &CscMat<f64>, b: &CscMat<f64>) -> bool {
        a.structure_eq(b)
    }

    #[test]
    fn block_solve_matches_sequential_solves_bitwise() {
        let a = random_csc(50, 77, 0.0);
        let lu = SparseLu::factor(&a).unwrap();
        let n = 50;
        let k = 4;
        let mut block = vec![0.0f64; n * k];
        let mut singles = Vec::new();
        for c in 0..k {
            let b: Vec<f64> = (0..n).map(|i| ((i + c * 13) as f64 * 0.29).sin()).collect();
            block[c * n..(c + 1) * n].copy_from_slice(&b);
            singles.push(lu.solve(&b));
        }
        let mut scratch = Vec::new();
        lu.solve_block_in_place(&mut block, &mut scratch);
        for c in 0..k {
            assert_eq!(&block[c * n..(c + 1) * n], singles[c].as_slice());
        }
        // Complex path too.
        let trips_c: Vec<(usize, usize, Complex64)> = (0..n)
            .flat_map(|j| (a.indptr()[j]..a.indptr()[j + 1]).map(move |p| (p, j)))
            .map(|(p, j)| (a.indices()[p], j, Complex64::new(a.values()[p], 0.1)))
            .collect();
        let ac = CscMat::from_triplets(n, n, &trips_c);
        let luc = SparseLu::factor(&ac).unwrap();
        let bc: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, i as f64)).collect();
        let mut blockc = bc.clone();
        let mut scratchc = Vec::new();
        luc.solve_block_in_place(&mut blockc, &mut scratchc);
        assert_eq!(blockc, luc.solve(&bc));
    }

    #[test]
    fn from_parts_validates() {
        let a = random_csc(10, 5, 0.0);
        let rebuilt = CscMat::from_parts(
            10,
            10,
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.values().to_vec(),
        );
        assert!(rebuilt.structure_eq(&a));
        assert_eq!(rebuilt.values(), a.values());
    }
}
