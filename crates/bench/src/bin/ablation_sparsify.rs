//! Ablation: the sparsification heuristic's element-count vs accuracy
//! trade-off (Section 5: "sparsity is enhanced using a heuristic which
//! drops very small off-diagonal elements while maintaining passivity").
//!
//! Sweeps the drop threshold on a reduced substrate-mesh model and
//! reports emitted element counts, worst admittance error below f_max,
//! and the passivity margin — which must stay non-negative at every
//! threshold.

use pact::{CutoffSpec, EigenSelect, Partitions, ReduceOptions};
use pact_bench::print_table;
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_netlist::sparsify_preserving_passivity;
use pact_sparse::{sym_eig, Ordering};

fn main() {
    println!("# Ablation: sparsification threshold vs element count / accuracy / passivity");
    let net = substrate_mesh(&MeshSpec::table2());
    let parts = Partitions::split(&net.stamp());
    let full = pact::FullAdmittance::new(&parts);
    let fmax = 1e9;
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(fmax, 0.05).expect("cutoff"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::NestedDissection,
        dense_threshold: 400,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    };
    let red = pact::reduce_network(&net, &opts).expect("reduce");
    let m = red.model.num_ports();

    // Reference Y of the exact network at a few frequencies ≤ fmax.
    let freqs = [1e8, 4e8, 1e9];
    let exact: Vec<_> = freqs.iter().map(|&f| full.y_at(f).expect("Y")).collect();

    let mut rows = Vec::new();
    for &tol in &[0.0, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2] {
        let (mut g, mut c) = red.model.to_matrices_normalized();
        let dropped = if tol > 0.0 {
            sparsify_preserving_passivity(&mut g, tol) + sparsify_preserving_passivity(&mut c, tol)
        } else {
            0
        };
        // Element count of the netlist this would emit.
        let count_entries = |mat: &pact_sparse::DMat<f64>| -> usize {
            let mut n = 0;
            for i in 0..mat.nrows() {
                for j in i + 1..mat.ncols() {
                    if mat[(i, j)] != 0.0 {
                        n += 1;
                    }
                }
            }
            n
        };
        let elements = count_entries(&g) + count_entries(&c) + 2 * g.nrows();
        // Worst admittance error from the sparsified matrices: rebuild a
        // model-equivalent Y via the dense matrices (ports block + poles).
        let mut worst: f64 = 0.0;
        for (kf, &f) in freqs.iter().enumerate() {
            let y = y_from_matrices(&g, &c, m, f);
            let scale = (0..m)
                .flat_map(|i| (0..m).map(move |j| (i, j)))
                .map(|(i, j)| exact[kf][(i, j)].abs())
                .fold(1e-300, f64::max);
            for i in 0..m {
                for j in 0..m {
                    worst = worst.max((y[(i, j)] - exact[kf][(i, j)]).abs() / scale);
                }
            }
        }
        // Passivity margins after sparsification.
        let gmin = sym_eig(&g).expect("eig").values[0];
        let cmin = sym_eig(&c).expect("eig").values[0];
        rows.push(vec![
            format!("{tol:.0e}"),
            format!("{dropped}"),
            format!("{elements}"),
            format!("{:.2} %", worst * 100.0),
            format!("{gmin:.2e}"),
            format!("{cmin:.2e}"),
        ]);
    }
    print_table(
        "threshold sweep (passivity margins must stay ≥ ~0 at every row)",
        &[
            "drop tol",
            "entries dropped",
            "~elements",
            "worst err ≤ fmax",
            "λmin(G'')",
            "λmin(C'')",
        ],
        &rows,
    );
}

/// Evaluates the admittance of a reduced (G'', C'') pair by eliminating
/// the internal block at `s = j·2πf` — works on sparsified matrices where
/// the internal structure is no longer exactly (I, Λ).
fn y_from_matrices(
    g: &pact_sparse::DMat<f64>,
    c: &pact_sparse::DMat<f64>,
    m: usize,
    f: f64,
) -> pact_sparse::DMat<pact_sparse::Complex64> {
    use pact_sparse::{Complex64, DMat, DenseLu};
    let dim = g.nrows();
    let k = dim - m;
    let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
    let full = DMat::<Complex64>::from_fn(dim, dim, |i, j| {
        Complex64::from_real(g[(i, j)]) + s.scale(c[(i, j)])
    });
    if k == 0 {
        return full;
    }
    // Y = App − Apb Abb⁻¹ Abp (Schur complement onto the ports).
    let app = full.submatrix(0..m, 0..m);
    let apb = full.submatrix(0..m, m..dim);
    let abp = full.submatrix(m..dim, 0..m);
    let abb = full.submatrix(m..dim, m..dim);
    let lu = DenseLu::factor(&abb).expect("internal block invertible");
    let x = lu.solve_mat(&abp);
    let corr = apb.matmul(&x);
    let mut y = app;
    for i in 0..m {
        for j in 0..m {
            let v = y[(i, j)] - corr[(i, j)];
            y[(i, j)] = v;
        }
    }
    y
}
