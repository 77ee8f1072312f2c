//! Supernodal-vs-scalar Cholesky kernel A/B on the Table-4 mesh: times
//! the full PACT reduction and the isolated factor/refactor under both
//! numeric kernels, checks the retained poles agree, and reports the
//! speedup. `ci/check.sh` runs it with `--smoke` (a much smaller mesh,
//! seconds not minutes) and archives the output as
//! `results/supernodal_perf.txt`; run without arguments for the full
//! Table-4 measurement.

use pact::{CholKernel, CutoffSpec, EigenSelect, ReduceOptions};
use pact_bench::{print_table, secs, timed};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_sparse::{Ordering, PivotPolicy, SparseCholesky};

/// Relative pole-agreement tolerance between the two kernels (they share
/// the postordered permutation, so retained poles differ only by
/// summation order inside the panels).
const POLE_TOL: f64 = 1e-10;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (label, spec, fmax, tol) = if smoke {
        (
            "smoke mesh (16x16x6)",
            MeshSpec {
                nx: 16,
                ny: 16,
                nz: 6,
                num_contacts: 48,
                ..MeshSpec::table2()
            },
            1e9,
            0.05,
        )
    } else {
        ("Table 4 mesh (469 ports)", MeshSpec::table4(), 500e6, 0.10)
    };
    println!("# Supernodal vs scalar Cholesky kernel — {label}");

    let net = substrate_mesh(&spec);
    let parts = pact::Partitions::split(&net.stamp());
    println!(
        "\n{} ports, {} internal nodes, D nnz {}",
        net.num_ports,
        net.num_internal(),
        parts.d.nnz()
    );

    // Isolated factorization A/B over the same nested-dissection order.
    let mut rows = Vec::new();
    let mut factors = Vec::new();
    for kernel in [CholKernel::Supernodal, CholKernel::Scalar] {
        let ((chol, _, sym), t_factor) = timed(|| {
            SparseCholesky::factor_analyzed_with_kernel(
                &parts.d,
                Ordering::NestedDissection,
                PivotPolicy::Error,
                kernel,
            )
            .expect("factor")
        });
        let (_, t_refactor) = timed(|| sym.refactor(&parts.d, PivotPolicy::Error).expect("refac"));
        rows.push(vec![
            format!("{kernel:?}"),
            format!("{}", chol.l_nnz()),
            format!("{}", chol.supernode_count()),
            format!("{}", chol.max_panel_cols()),
            secs(t_factor),
            secs(t_refactor),
        ]);
        factors.push(chol);
    }
    print_table(
        "Factorization of D (analyze+numeric, then numeric-only refactor)",
        &[
            "kernel",
            "L nnz",
            "supernodes",
            "max panel",
            "factor (s)",
            "refactor (s)",
        ],
        &rows,
    );
    assert_eq!(
        factors[0].l_nnz(),
        factors[1].l_nnz(),
        "kernels disagree on structural fill"
    );

    // End-to-end reduction A/B.
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(fmax, tol).expect("cutoff"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::NestedDissection,
        dense_threshold: 400,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: CholKernel::Supernodal,
    };
    let (sup, t_sup) = timed(|| pact::reduce_network(&net, &opts).expect("reduce"));
    let scalar_opts = ReduceOptions {
        chol_kernel: CholKernel::Scalar,
        ..opts
    };
    let (sca, t_sca) = timed(|| pact::reduce_network(&net, &scalar_opts).expect("reduce"));

    let c = &sup.telemetry.counters;
    print_table(
        "End-to-end PACT reduction",
        &["kernel", "poles", "time (s)"],
        &[
            vec![
                "Supernodal".into(),
                format!("{}", sup.model.num_poles()),
                secs(t_sup),
            ],
            vec![
                "Scalar".into(),
                format!("{}", sca.model.num_poles()),
                secs(t_sca),
            ],
        ],
    );
    println!(
        "supernodal: {} supernodes, widest panel {} cols, {:.3e} panel flops",
        c.supernode_count, c.max_panel_cols, c.panel_flops as f64
    );
    println!(
        "reduction-time speedup (scalar / supernodal): {:.2}x",
        t_sca / t_sup.max(1e-12)
    );

    // Parity gate: the two kernels must retain the same poles.
    assert_eq!(
        sup.model.num_poles(),
        sca.model.num_poles(),
        "kernels retained different pole counts"
    );
    let mut worst = 0.0f64;
    for (a, b) in sup.model.lambdas.iter().zip(&sca.model.lambdas) {
        let rel = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        worst = worst.max(rel);
    }
    println!("worst relative pole deviation: {worst:.3e} (gate {POLE_TOL:.0e})");
    assert!(
        worst <= POLE_TOL,
        "retained poles diverge between kernels: {worst:.3e} > {POLE_TOL:.0e}"
    );
    println!("parity: OK");
}
