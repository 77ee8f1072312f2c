//! The first congruence transform (Section 3.1 of the paper) and the
//! matrix-free `E'` operator it induces.
//!
//! With the Cholesky factor `F Fᵀ = D` (our `F` plays the paper's `L`,
//! folding in the fill-reducing permutation) and `X = D⁻¹Q`:
//!
//! ```text
//! A' = A − QᵀX                (exact 0th moment of Y at s=0)
//! B' = B − PᵀX − XᵀR          (exact 1st moment),  P = R − EX
//! E' = F⁻¹ E F⁻ᵀ              (never formed; applied matrix-free)
//! ```
//!
//! Memory discipline follows the paper: `X` is never stored whole — each
//! port column triggers sparse solves against `D`, and only `m×m` dense
//! results are kept, plus the rows `X_S` and `(EX)_S` on the support `S`
//! of `E` (the nodes where `E` has a row entry), `2·8·m·|S|` bytes.
//! Those rows give `XᵀEX = X_Sᵀ(EX)_S` as a dense Gram product instead of
//! a second solve `Z = D⁻¹(EX)` of every port column. The `Z` solve runs
//! only where its output is consumed — the retained `Y − Z` panel of the
//! hierarchical leaves — or when `m·|S| > nnz(L)`, where the row store
//! would outgrow the factor (below that bound the Gram product costs at
//! most a quarter of the `Z` solve's flops). The rows of
//! `R'' = Uᵀ F⁻¹ P` needed by the second transform are computed per Ritz
//! vector from `Q`/`R` alone.

use std::cell::RefCell;
use std::ops::Range;

use pact_lanczos::SymOp;
use pact_sparse::{
    split_ranges, CsrMat, DMat, FactorError, Ordering, ParCtx, SparseCholesky, LANES,
};

use crate::partition::Partitions;

/// Result of the first congruence transform: exact moment matrices plus
/// the factorization needed to run pole analysis on `E'`.
#[derive(Clone, Debug)]
pub struct Transform1 {
    /// `A' = A − QᵀX` — the DC port conductance (0th moment), `m×m`.
    pub a1: DMat<f64>,
    /// `B' = B − PᵀX − XᵀR` — the 1st moment, `m×m`.
    pub b1: DMat<f64>,
    /// Cholesky factorization of `D`.
    pub chol: SparseCholesky,
    /// Number of ports.
    pub m: usize,
    /// Number of internal nodes.
    pub n: usize,
    /// Right-hand-side columns sent through full `D⁻¹` solves for the
    /// moments: `m` for `X`, `m` more for `Y` when `R ≠ 0`, and `m` more
    /// for `Z` when `XᵀEX` was not formed in Gram form.
    pub solve_cols: usize,
    /// `|S|`, the rows of `X_S`/`(EX)_S` the Gram form of `XᵀEX` used,
    /// or 0 when the `Z` solve ran instead.
    pub gram_rows: usize,
}

impl Transform1 {
    /// Runs the transform on partitioned network matrices.
    ///
    /// # Errors
    ///
    /// [`FactorError`] when `D` is not positive definite — physically, an
    /// internal node with no DC path to any port.
    pub fn compute(p: &Partitions, ordering: Ordering) -> Result<Self, FactorError> {
        Self::compute_ctx(p, ordering, &ParCtx::serial())
    }

    /// Like [`Transform1::compute`], fanning the per-port column work out
    /// across the threads of `ctx`.
    ///
    /// Ports are grouped into blocks of up to [`LANES`] columns whose
    /// boundaries depend only on the port count; each block runs the
    /// blocked multi-RHS solves (`x_j = D⁻¹ q_j`, `y_j = D⁻¹ r_j`, and
    /// `z_j = D⁻¹ E x_j` only on the `Z`-solve path) and produces its
    /// `m×w` contribution columns independently. The Gram product is
    /// tiled by port-block pairs with a fixed tile shape. Every entry is
    /// computed with the same instruction sequence regardless of which
    /// worker runs it and results are written back in port order, so the
    /// result is bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// See [`Transform1::compute`].
    pub fn compute_ctx(
        p: &Partitions,
        ordering: Ordering,
        ctx: &ParCtx,
    ) -> Result<Self, FactorError> {
        let chol = SparseCholesky::factor(&p.d, ordering)?;
        Ok(Self::with_factor(p, chol, ctx))
    }

    /// Runs the moment computation of the transform against an already
    /// computed Cholesky factorization of `D`.
    ///
    /// This split lets callers choose the factorization path (strict vs
    /// pivot-perturbing, see [`pact_sparse::PivotPolicy`]) and time the
    /// factor and moment phases separately; given the factor, the moment
    /// work itself cannot fail.
    pub fn with_factor(p: &Partitions, chol: SparseCholesky, ctx: &ParCtx) -> Self {
        Self::with_factor_panel(p, chol, ctx, false).0
    }

    /// Like [`Transform1::with_factor`], optionally retaining the solved
    /// panel `S = Y − Z = D⁻¹(R − E·D⁻¹Q) = D⁻¹P` (column-major `n×m`,
    /// one column per port).
    ///
    /// The hierarchical two-level leaf path uses it to read residue rows
    /// directly: `R''[p, :] = u_pᵀF⁻¹P = (1/√λ_p)·z_pᵀ·Uᵀ·S` for Gram
    /// eigenpairs `(λ_p, z_p)` of `XᵀX` with `X = F⁻¹U`, so no per-pole
    /// triple solves are needed. Retention forces the `Z` solve, and `B'`
    /// then takes its `XᵀEX` term as `Qᵀ·Z` instead of the Gram form:
    /// `a1` is bit-identical to the non-retaining call, `b1` agrees to
    /// rounding.
    pub(crate) fn with_factor_panel(
        p: &Partitions,
        chol: SparseCholesky,
        ctx: &ParCtx,
        retain_panel: bool,
    ) -> (Self, Option<Vec<f64>>) {
        let m = p.m;
        let n = p.n;
        let mut a1 = p.a.to_dense();
        let mut b1 = p.b.to_dense();
        let support = row_support(&p.e);
        let gram = !retain_panel && m * support.len() <= chol.l_nnz();
        let skip_y = p.r.nnz() == 0;
        let mut panel = if retain_panel {
            vec![0.0f64; n * m]
        } else {
            Vec::new()
        };
        // Column-at-a-time over ports: x_j = D⁻¹ q_j, y_j = D⁻¹ r_j. Then
        //   A'(:,j) = A(:,j) − Qᵀ x_j
        //   B'(:,j) = B(:,j) − Rᵀ x_j − Qᵀ y_j + (XᵀEX)(:,j)
        // where the last column is Qᵀ z_j with z_j = D⁻¹(E x_j) on the Z
        // path, or Σ_{s∈S} x_i[s]·(E x_j)[s] from the Gram product.
        if m > 0 && n > 0 {
            let qt = p.q.transpose();
            let rt = p.r.transpose();
            let mode = if gram {
                XtEx::Gram { support: &support }
            } else {
                XtEx::Solve { retain_panel }
            };
            let blocks = split_ranges(m, m.div_ceil(LANES));
            let outs = ctx.map_items(blocks.len(), BlockScratch::default, |s, bi| {
                port_block_contribution(p, &chol, &qt, &rt, blocks[bi].clone(), s, mode)
            });
            for (block, out) in blocks.iter().zip(&outs) {
                for (r, j) in block.clone().enumerate() {
                    for i in 0..m {
                        a1[(i, j)] -= out.da[r * m + i];
                        b1[(i, j)] += out.db[r * m + i];
                    }
                }
                if let Some(yz) = &out.panel {
                    panel[block.start * n..block.start * n + yz.len()].copy_from_slice(yz);
                }
            }
            if gram && !support.is_empty() {
                add_gram_lower(&mut b1, &blocks, &outs, ctx);
            }
        }
        // Congruence preserves exact symmetry; scrub rounding drift so the
        // reduced model is exactly symmetric.
        a1.symmetrize();
        b1.symmetrize();
        let (solve_cols, gram_rows) = match (m > 0 && n > 0, gram) {
            (false, _) => (0, 0),
            (true, true) => (m * (1 + usize::from(!skip_y)), support.len()),
            (true, false) => (m * (2 + usize::from(!skip_y)), 0),
        };
        (
            Transform1 {
                a1,
                b1,
                chol,
                m,
                n,
                solve_cols,
                gram_rows,
            },
            retain_panel.then_some(panel),
        )
    }

    /// The row block `R''` of the transformed connection susceptance for a
    /// set of Ritz vectors `U = [u_1 … u_k]` of `E'`:
    /// `R''[i, :] = u_iᵀ F⁻¹ P` with `P = R − E D⁻¹ Q`, computed from the
    /// sparse `Q`, `R`, `E` without ever forming `P` or `X`:
    ///
    /// ```text
    /// v_i = F⁻ᵀ u_i,  w_i = E v_i,  z_i = D⁻¹ w_i
    /// R''[i, :] = Rᵀ v_i − Qᵀ z_i
    /// ```
    pub fn r2_rows(&self, p: &Partitions, ritz_vectors: &[Vec<f64>]) -> DMat<f64> {
        self.r2_rows_ctx(p, ritz_vectors, &ParCtx::serial())
    }

    /// Like [`Transform1::r2_rows`], fanning the per-Ritz-vector solves
    /// out across the threads of `ctx`. Each row is computed by exactly
    /// one worker (with per-worker scratch, so nothing allocates in the
    /// loop) and rows are written back in Ritz order — results are
    /// bit-identical for every thread count.
    pub fn r2_rows_ctx(
        &self,
        p: &Partitions,
        ritz_vectors: &[Vec<f64>],
        ctx: &ParCtx,
    ) -> DMat<f64> {
        let k = ritz_vectors.len();
        let m = self.m;
        let n = self.n;
        let mut r2 = DMat::zeros(k, m);
        let rows = ctx.map_items(
            k,
            || R2Scratch::new(n, m),
            |s, i| {
                let u = &ritz_vectors[i];
                self.chol.ftsolve_into(u, &mut s.v, &mut s.work);
                p.e.matvec_into(&s.v, &mut s.w);
                self.chol.solve_into(&s.w, &mut s.z, &mut s.work);
                p.r.matvec_t_into(&s.v, &mut s.rv);
                p.q.matvec_t_into(&s.z, &mut s.qz);
                s.rv.iter()
                    .zip(&s.qz)
                    .map(|(rv, qz)| rv - qz)
                    .collect::<Vec<f64>>()
            },
        );
        for (i, row) in rows.into_iter().enumerate() {
            for (j, val) in row.into_iter().enumerate() {
                r2[(i, j)] = val;
            }
        }
        r2
    }

    /// The matrix-free operator `E' = F⁻¹ E F⁻ᵀ` for the Lanczos solver.
    pub fn e_prime_operator<'a>(&'a self, p: &'a Partitions) -> EPrimeOp<'a> {
        self.e_prime_operator_ctx(p, ParCtx::serial())
    }

    /// Like [`Transform1::e_prime_operator`], with the inner `E v`
    /// product row-partitioned across the threads of `ctx`.
    pub fn e_prime_operator_ctx<'a>(&'a self, p: &'a Partitions, ctx: ParCtx) -> EPrimeOp<'a> {
        let n = self.n;
        EPrimeOp {
            chol: &self.chol,
            e: &p.e,
            scratch: RefCell::new(EPrimeScratch {
                v: vec![0.0; n],
                w: vec![0.0; n],
            }),
            ctx,
        }
    }

    /// Materializes `E'` as a dense matrix — `O(n²)` memory, intended for
    /// small networks and as the dense-eigendecomposition path.
    pub fn e_prime_dense(&self, p: &Partitions) -> DMat<f64> {
        self.e_prime_dense_ctx(p, &ParCtx::serial())
    }

    /// Like [`Transform1::e_prime_dense`], with the columns partitioned
    /// across the threads of `ctx` (each column is one `E'` application,
    /// so values never depend on the partition).
    pub fn e_prime_dense_ctx(&self, p: &Partitions, ctx: &ParCtx) -> DMat<f64> {
        let n = self.n;
        let mut out = DMat::zeros(n, n);
        if n == 0 {
            return out;
        }
        ctx.for_each_chunk_mut(out.as_mut_slice(), n, |cols, chunk| {
            // The operator's scratch sits in a RefCell (not Sync), so
            // each worker builds its own serial instance.
            let op = self.e_prime_operator(p);
            let mut e = vec![0.0; n];
            for (k, j) in cols.enumerate() {
                e.iter_mut().for_each(|v| *v = 0.0);
                e[j] = 1.0;
                op.apply(&e, &mut chunk[k * n..(k + 1) * n]);
            }
        });
        // Symmetric by construction up to rounding.
        out.symmetrize();
        out
    }
}

/// Per-worker scratch of the port-block fan-out in
/// [`Transform1::compute_ctx`]: right-hand-side/solution panels
/// (column-major `n×w`), the blocked-solve workspace, and one `m`-vector
/// for the `matvec_t` results.
#[derive(Default)]
struct BlockScratch {
    rhs: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    ex: Vec<f64>,
    work: Vec<f64>,
    mt: Vec<f64>,
}

/// How a port block supplies the `XᵀEX` term of `B'`.
#[derive(Clone, Copy)]
enum XtEx<'a> {
    /// Solve `z_j = D⁻¹(E x_j)` and add `Qᵀ z_j` to the block's columns;
    /// with `retain_panel`, also return the `y_j − z_j` columns.
    Solve { retain_panel: bool },
    /// Return the rows `x_j[S]` and `(E x_j)[S]` on the support `S` of
    /// `E` for [`add_gram_lower`].
    Gram { support: &'a [usize] },
}

/// One port block's share of the moments: `da[r·m + i]` is subtracted
/// from `A'(i, j)` and `db[r·m + i]` added to `B'(i, j)` for port
/// `j = ports.start + r`.
struct BlockOut {
    da: Vec<f64>,
    db: Vec<f64>,
    /// The solved `y_j − z_j` columns (column-major `n×w`), when retained.
    panel: Option<Vec<f64>>,
    /// `x_j[S]`, node-major `|S|×LANES` (`xs[t·LANES + r]` is port
    /// `ports.start + r` at node `S[t]`), zero-padded past `w` ports.
    xs: Vec<f64>,
    /// `(E x_j)[S]`, laid out like `xs`.
    exs: Vec<f64>,
}

/// Computes one port block's contribution columns (see [`BlockOut`]).
fn port_block_contribution(
    p: &Partitions,
    chol: &SparseCholesky,
    qt: &CsrMat,
    rt: &CsrMat,
    ports: Range<usize>,
    s: &mut BlockScratch,
    mode: XtEx<'_>,
) -> BlockOut {
    let n = p.n;
    let m = p.m;
    let w = ports.len();
    // Only the scattered right-hand side needs zeroing: the solve and
    // product panels are fully overwritten by what fills them.
    s.rhs.clear();
    s.rhs.resize(n * w, 0.0);
    s.x.resize(n * w, 0.0);
    s.mt.resize(m, 0.0);

    // X block: x_j = D⁻¹ q_j (row j of Qᵀ is column j of Q).
    for (r, j) in ports.clone().enumerate() {
        for (i, v) in qt.row_iter(j) {
            s.rhs[r * n + i] = v;
        }
    }
    chol.solve_block_into(&s.rhs, w, &mut s.x, &mut s.work);

    // Y block: y_j = D⁻¹ r_j. `R = 0` (no port–internal capacitive
    // coupling, the common case for ground-capacitor decks) makes every
    // y_j exactly zero: the triangular solves reproduce exact zeros from
    // a zero right-hand side, and subtracting an exact 0.0 leaves every
    // float unchanged. Skipping the solves and the Qᵀy subtraction below
    // is therefore bit-identical, not just approximately equal.
    // With R = 0 the panel is never written, so it stays all zeros.
    let skip_y = rt.nnz() == 0;
    s.y.resize(n * w, 0.0);
    if !skip_y {
        s.rhs.fill(0.0);
        for (r, j) in ports.clone().enumerate() {
            for (i, v) in rt.row_iter(j) {
                s.rhs[r * n + i] = v;
            }
        }
        chol.solve_block_into(&s.rhs, w, &mut s.y, &mut s.work);
    }

    let mut da = vec![0.0; m * w];
    let mut db = vec![0.0; m * w];
    for r in 0..w {
        let x = &s.x[r * n..(r + 1) * n];
        p.q.matvec_t_into(x, &mut s.mt);
        da[r * m..(r + 1) * m].copy_from_slice(&s.mt);
        p.r.matvec_t_into(x, &mut s.mt);
        for (o, v) in db[r * m..(r + 1) * m].iter_mut().zip(&s.mt) {
            *o -= v;
        }
        if !skip_y {
            p.q.matvec_t_into(&s.y[r * n..(r + 1) * n], &mut s.mt);
            for (o, v) in db[r * m..(r + 1) * m].iter_mut().zip(&s.mt) {
                *o -= v;
            }
        }
    }

    let mut out = BlockOut {
        da,
        db,
        panel: None,
        xs: Vec::new(),
        exs: Vec::new(),
    };
    match mode {
        XtEx::Gram { support } => {
            // Rows of X and EX on S only: (E x_j)[s] for s ∉ S is zero.
            out.xs = vec![0.0; support.len() * LANES];
            out.exs = vec![0.0; support.len() * LANES];
            let (ip, ci, cv) = (p.e.indptr(), p.e.indices(), p.e.data());
            for (t, &node) in support.iter().enumerate() {
                for r in 0..w {
                    let x = &s.x[r * n..(r + 1) * n];
                    let mut acc = 0.0;
                    for k in ip[node]..ip[node + 1] {
                        acc += cv[k] * x[ci[k]];
                    }
                    out.xs[t * LANES + r] = x[node];
                    out.exs[t * LANES + r] = acc;
                }
            }
        }
        XtEx::Solve { retain_panel } => {
            // Z block: z_j = D⁻¹ (E x_j), then B'(:,j) += Qᵀ z_j.
            s.ex.resize(n * w, 0.0);
            s.z.resize(n * w, 0.0);
            for r in 0..w {
                p.e.matvec_into(&s.x[r * n..(r + 1) * n], &mut s.ex[r * n..(r + 1) * n]);
            }
            chol.solve_block_into(&s.ex, w, &mut s.z, &mut s.work);
            for r in 0..w {
                p.q.matvec_t_into(&s.z[r * n..(r + 1) * n], &mut s.mt);
                for (o, v) in out.db[r * m..(r + 1) * m].iter_mut().zip(&s.mt) {
                    *o += v;
                }
            }
            out.panel = retain_panel.then(|| {
                s.y[..n * w]
                    .iter()
                    .zip(&s.z[..n * w])
                    .map(|(y, z)| y - z)
                    .collect()
            });
        }
    }
    out
}

/// Rows of `e` holding at least one stored entry, ascending: the support
/// `S` outside which `E·x` is zero for every `x`.
fn row_support(e: &CsrMat) -> Vec<usize> {
    let ip = e.indptr();
    (0..e.nrows()).filter(|&i| ip[i + 1] > ip[i]).collect()
}

/// Adds `XᵀEX = X_Sᵀ·(EX)_S` into `b1` from the blocks' Gram rows: the
/// lower triangle is computed tile by tile over port-block pairs and
/// mirrored, so the added term is exactly symmetric. Row strips of tiles
/// fan out across `ctx`; each tile is one fixed-shape [`gram_tile`] call,
/// so every entry is bit-identical at every thread count.
fn add_gram_lower(b1: &mut DMat<f64>, blocks: &[Range<usize>], outs: &[BlockOut], ctx: &ParCtx) {
    let strips = ctx.map_items(
        blocks.len(),
        || (),
        |_, bi| {
            (0..=bi)
                .map(|bj| gram_tile(&outs[bi].xs, &outs[bj].exs))
                .collect::<Vec<_>>()
        },
    );
    for (bi, strip) in strips.iter().enumerate() {
        for (bj, tile) in strip.iter().enumerate() {
            for (ii, i) in blocks[bi].clone().enumerate() {
                for (jj, j) in blocks[bj].clone().enumerate().take_while(|&(_, j)| j <= i) {
                    let g = tile[ii][jj];
                    b1[(i, j)] += g;
                    if i != j {
                        b1[(j, i)] += g;
                    }
                }
            }
        }
    }
}

/// `tile[a][b] = Σ_t xs[t·LANES + a] · exs[t·LANES + b]`: one
/// `LANES×LANES` register tile of the Gram product, accumulated with
/// `mul_add` in node order.
fn gram_tile(xs: &[f64], exs: &[f64]) -> [[f64; LANES]; LANES] {
    let mut acc = [[0.0f64; LANES]; LANES];
    for (xr, er) in xs.chunks_exact(LANES).zip(exs.chunks_exact(LANES)) {
        for (row, &xa) in acc.iter_mut().zip(xr) {
            for (c, &eb) in row.iter_mut().zip(er) {
                *c = xa.mul_add(eb, *c);
            }
        }
    }
    acc
}

/// Per-worker scratch of [`Transform1::r2_rows_ctx`].
struct R2Scratch {
    v: Vec<f64>,
    w: Vec<f64>,
    z: Vec<f64>,
    work: Vec<f64>,
    rv: Vec<f64>,
    qz: Vec<f64>,
}

impl R2Scratch {
    fn new(n: usize, m: usize) -> Self {
        R2Scratch {
            v: vec![0.0; n],
            w: vec![0.0; n],
            z: vec![0.0; n],
            work: Vec::new(),
            rv: vec![0.0; m],
            qz: vec![0.0; m],
        }
    }
}

/// Matrix-free symmetric operator `x ↦ F⁻¹ E (F⁻ᵀ x)`.
///
/// Carries two scratch vectors behind a `RefCell` (since
/// [`SymOp::apply`] takes `&self`), so repeated applications — the inner
/// loop of the Lanczos iteration — allocate nothing. The `RefCell` makes
/// the operator `!Sync`; parallel callers construct one instance per
/// worker.
#[derive(Clone, Debug)]
pub struct EPrimeOp<'a> {
    chol: &'a SparseCholesky,
    e: &'a CsrMat,
    scratch: RefCell<EPrimeScratch>,
    ctx: ParCtx,
}

#[derive(Clone, Debug)]
struct EPrimeScratch {
    v: Vec<f64>,
    w: Vec<f64>,
}

impl SymOp for EPrimeOp<'_> {
    fn dim(&self) -> usize {
        self.e.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let s = &mut *self.scratch.borrow_mut();
        // v = F⁻ᵀ x (w doubles as the transpose-solve workspace), then
        // w = E v, then y = F⁻¹ w computed in place in y.
        self.chol.ftsolve_into(x, &mut s.v, &mut s.w);
        self.e.matvec_into_ctx(&s.v, &mut s.w, &self.ctx);
        self.chol.fsolve_into(&s.w, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::{extract_rc, parse, Stamped};
    use pact_sparse::sym_eig;

    fn ladder(nseg: usize) -> (Stamped, Partitions) {
        // nseg-segment RC line between two ports.
        let mut deck = String::from("* ladder\nV1 p0 0 1\nRld pN 0 1k\nIprobe pN 0 0\n");
        let rseg = 250.0 / nseg as f64;
        let cseg = 1.35e-12 / nseg as f64;
        for i in 0..nseg {
            let a = if i == 0 {
                "p0".to_owned()
            } else {
                format!("n{i}")
            };
            let b = if i == nseg - 1 {
                "pN".to_owned()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} {rseg}\n"));
            deck.push_str(&format!("C{i} {b} 0 {cseg}\n"));
        }
        deck.push_str(".end\n");
        let nl = parse(&deck).unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let st = ex.network.stamp();
        let p = Partitions::split(&st);
        (st, p)
    }

    #[test]
    fn moments_match_direct_computation() {
        // A' must equal A − QᵀD⁻¹Q computed densely.
        let (_, p) = ladder(6);
        let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
        let dd = p.d.to_dense();
        let dinv = pact_sparse::invert(&dd).unwrap();
        let qd = p.q.to_dense();
        let rd = p.r.to_dense();
        let x = dinv.matmul(&qd);
        let a1_direct = &p.a.to_dense() - &qd.transpose().matmul(&x);
        assert!((&t1.a1 - &a1_direct).norm_max() < 1e-12);
        // B' = B − RᵀX − XᵀR + XᵀEX
        let ed = p.e.to_dense();
        let b1_direct = {
            let rtx = rd.transpose().matmul(&x);
            let xtr = x.transpose().matmul(&rd);
            let xtex = x.transpose().matmul(&ed.matmul(&x));
            let mut b = p.b.to_dense();
            b = &(&b - &rtx) - &xtr;
            &b + &xtex
        };
        assert!(
            (&t1.b1 - &b1_direct).norm_max() < 1e-20,
            "B' mismatch {:e}",
            (&t1.b1 - &b1_direct).norm_max()
        );
    }

    #[test]
    fn e_prime_spectrum_matches_pencil() {
        // Eigenvalues of E' equal generalized eigenvalues of (E, D).
        let (_, p) = ladder(5);
        let t1 = Transform1::compute(&p, Ordering::MinDegree).unwrap();
        let ep = t1.e_prime_dense(&p);
        let eig = sym_eig(&ep).unwrap();
        // Direct: solve det(E - λD) = 0 via dense D^{-1}E spectrum
        // (similar matrix D^{-1/2} E D^{-1/2} shares eigenvalues with E').
        let dd = p.d.to_dense();
        let ed = p.e.to_dense();
        let dinv = pact_sparse::invert(&dd).unwrap();
        let m = dinv.matmul(&ed);
        // Eigenvalues of (non-symmetric) D⁻¹E match E' spectrum; compare
        // via traces of powers which are basis independent.
        let tr1: f64 = m.diag().iter().sum();
        let tr1_e: f64 = eig.values.iter().sum();
        assert!((tr1 - tr1_e).abs() < 1e-10 * tr1.abs().max(1e-30));
        let m2 = m.matmul(&m);
        let tr2: f64 = m2.diag().iter().sum();
        let tr2_e: f64 = eig.values.iter().map(|v| v * v).sum();
        assert!((tr2 - tr2_e).abs() < 1e-10 * tr2.abs().max(1e-30));
    }

    #[test]
    fn e_prime_operator_matches_dense() {
        let (_, p) = ladder(7);
        let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
        let dense = t1.e_prime_dense(&p);
        let op = t1.e_prime_operator(&p);
        let n = p.n;
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        let yd = dense.matvec(&x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn e_prime_is_nonnegative_definite() {
        let (_, p) = ladder(8);
        let t1 = Transform1::compute(&p, Ordering::Rcm).unwrap();
        let ep = t1.e_prime_dense(&p);
        let eig = sym_eig(&ep).unwrap();
        for &v in &eig.values {
            assert!(v >= -1e-14, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn r2_rows_match_direct() {
        let (_, p) = ladder(5);
        let t1 = Transform1::compute(&p, Ordering::Natural).unwrap();
        let ep = t1.e_prime_dense(&p);
        let eig = sym_eig(&ep).unwrap();
        let n = p.n;
        // Use the top 2 eigenvectors as "Ritz vectors".
        let vecs: Vec<Vec<f64>> = (n - 2..n)
            .map(|k| (0..n).map(|i| eig.vectors[(i, k)]).collect())
            .collect();
        let r2 = t1.r2_rows(&p, &vecs);
        // Direct: R'' = Uᵀ F⁻¹ P with P = R − E D⁻¹ Q (all dense).
        let dd = p.d.to_dense();
        let dinv = pact_sparse::invert(&dd).unwrap();
        let pmat = {
            let x = dinv.matmul(&p.q.to_dense());
            &p.r.to_dense() - &p.e.to_dense().matmul(&x)
        };
        for (i, u) in vecs.iter().enumerate() {
            // u^T F^{-1} P  = (F^{-T} u)^T P
            let v = t1.chol.ftsolve(u);
            let expect = pmat.matvec_t(&v);
            for j in 0..p.m {
                assert!(
                    (r2[(i, j)] - expect[j]).abs() < 1e-12 * expect[j].abs().max(1e-15),
                    "R'' mismatch at ({i},{j})"
                );
            }
        }
    }

    /// Which capacitors a seeded [`grid_network`] carries besides the
    /// grounded port capacitors (which land in `B`, not `E`).
    #[derive(Clone, Copy, Debug)]
    enum Caps {
        /// Grounded capacitors on every `stride`-th internal node.
        Diagonal { stride: usize },
        /// Diagonal, plus internal–internal coupling capacitors.
        Coupled,
        /// Diagonal, plus port–internal coupling capacitors (`R ≠ 0`).
        PortCoupled,
        /// No capacitor touches an internal node (`E = 0`).
        None,
    }

    /// An `nx×ny` resistor grid of internal nodes with random
    /// conductances, `m` ports each tied to a random grid node, and the
    /// capacitors selected by `caps`.
    fn grid_network(seed: u64, m: usize, nx: usize, ny: usize, caps: Caps) -> Partitions {
        use pact_netlist::{Branch, RcNetwork};
        let mut rng = pact_sparse::XorShiftRng::seed_from_u64(seed);
        let n = nx * ny;
        let node = |x: usize, y: usize| Some(m + y * nx + x);
        let mut resistors = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    let value = rng.gen_range_f64(10.0, 1e3);
                    resistors.push(Branch {
                        a: node(x, y),
                        b: node(x + 1, y),
                        value,
                    });
                }
                if y + 1 < ny {
                    let value = rng.gen_range_f64(10.0, 1e3);
                    resistors.push(Branch {
                        a: node(x, y),
                        b: node(x, y + 1),
                        value,
                    });
                }
            }
        }
        let mut capacitors = Vec::new();
        for port in 0..m {
            let value = rng.gen_range_f64(10.0, 1e3);
            resistors.push(Branch {
                a: Some(port),
                b: Some(m + rng.gen_index(n)),
                value,
            });
            let value = rng.gen_range_f64(1e-15, 1e-12);
            capacitors.push(Branch {
                a: Some(port),
                b: None,
                value,
            });
        }
        let stride = match caps {
            Caps::Diagonal { stride } => stride,
            Caps::None => 0,
            Caps::Coupled | Caps::PortCoupled => 7,
        };
        if stride > 0 {
            for i in (0..n).step_by(stride) {
                let value = rng.gen_range_f64(1e-15, 1e-12);
                capacitors.push(Branch {
                    a: Some(m + i),
                    b: None,
                    value,
                });
            }
        }
        for _ in 0..n / 10 {
            let value = rng.gen_range_f64(1e-16, 1e-13);
            let internal = Some(m + rng.gen_index(n));
            match caps {
                Caps::Coupled => {
                    let other = Some(m + rng.gen_index(n));
                    if other != internal {
                        capacitors.push(Branch {
                            a: internal,
                            b: other,
                            value,
                        });
                    }
                }
                Caps::PortCoupled => {
                    let port = Some(rng.gen_index(m));
                    capacitors.push(Branch {
                        a: port,
                        b: internal,
                        value,
                    });
                }
                Caps::Diagonal { .. } | Caps::None => {}
            }
        }
        let mut node_names: Vec<String> = (0..m).map(|i| format!("p{i}")).collect();
        node_names.extend((0..n).map(|i| format!("n{i}")));
        let net = RcNetwork {
            node_names,
            num_ports: m,
            resistors,
            capacitors,
        };
        Partitions::split(&net.stamp())
    }

    /// The Gram path (`with_factor_panel(.., false)`) against the `Z`
    /// solve that `retain_panel` forces: `a1` bit-identical, `b1` equal to
    /// rounding.
    fn gram_vs_z_solve(p: &Partitions) -> (Transform1, Transform1) {
        let chol = SparseCholesky::factor(&p.d, Ordering::NestedDissection).unwrap();
        let ctx = ParCtx::serial();
        let (gram, panel) = Transform1::with_factor_panel(p, chol.clone(), &ctx, false);
        assert!(panel.is_none());
        let (zsolve, panel) = Transform1::with_factor_panel(p, chol, &ctx, true);
        assert_eq!(panel.map(|v| v.len()), Some(p.n * p.m));
        assert_eq!(gram.a1, zsolve.a1, "A' must not depend on the XᵀEX path");
        let scale = zsolve.b1.norm_max();
        let diff = (&gram.b1 - &zsolve.b1).norm_max();
        assert!(diff <= 1e-13 * scale, "B' moved {diff:e} (scale {scale:e})");
        assert_eq!(gram.b1.asymmetry(), 0.0);
        assert_eq!(zsolve.gram_rows, 0);
        (gram, zsolve)
    }

    #[test]
    fn gram_form_matches_z_solve_on_seeded_networks() {
        for seed in [1u64, 2, 3] {
            for caps in [
                Caps::Diagonal { stride: 5 },
                Caps::Coupled,
                Caps::PortCoupled,
                Caps::None,
            ] {
                let p = grid_network(seed, 6, 14, 12, caps);
                let support = row_support(&p.e).len();
                let has_r = p.r.nnz() > 0;
                assert_eq!(has_r, matches!(caps, Caps::PortCoupled), "{caps:?}");
                let (gram, zsolve) = gram_vs_z_solve(&p);
                // The Gram path ran (m·|S| ≤ nnz(L) on these grids) and
                // skipped exactly the Z solve.
                assert!(p.m * support <= gram.chol.l_nnz(), "{caps:?}");
                assert_eq!(gram.gram_rows, support, "{caps:?}");
                assert_eq!(support == 0, matches!(caps, Caps::None), "{caps:?}");
                let y_cols = if has_r { p.m } else { 0 };
                assert_eq!(gram.solve_cols, p.m + y_cols, "{caps:?}");
                assert_eq!(zsolve.solve_cols, 2 * p.m + y_cols, "{caps:?}");
            }
        }
    }

    #[test]
    fn z_solve_runs_when_the_row_store_would_outgrow_the_factor() {
        // Capacitors on every node and many ports: m·|S| > nnz(L).
        let p = grid_network(4, 24, 8, 6, Caps::Diagonal { stride: 1 });
        let chol = SparseCholesky::factor(&p.d, Ordering::NestedDissection).unwrap();
        assert!(p.m * p.n > chol.l_nnz());
        let (t1, zsolve) = gram_vs_z_solve(&p);
        assert_eq!(t1.gram_rows, 0);
        assert_eq!(t1.solve_cols, 2 * p.m);
        // Both calls took the Z path, so B' agrees bit for bit.
        assert_eq!(t1.b1, zsolve.b1);
    }

    #[test]
    fn floating_internal_node_is_error() {
        // An internal node connected only through capacitors has no DC
        // path: D is singular.
        let nl = parse("* float\nV1 p 0 1\nR1 p a 100\nC1 a b 1p\nC2 b 0 1p\nM1 x p 0 0 n\n.model n nmos()\n.end\n").unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let st = ex.network.stamp();
        let p = Partitions::split(&st);
        assert!(Transform1::compute(&p, Ordering::Rcm).is_err());
    }
}
