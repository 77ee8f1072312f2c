//! Section-4 complexity bench: PACT vs the block-Krylov Padé baseline as
//! the port count grows, on a fixed-size substrate mesh. Complements the
//! `section4_complexity` binary with repeated-sample timings.
//!
//! Plain `main()` harness (no external bench framework); run with
//! `cargo bench -p pact-bench --bench complexity`.

use pact::{CutoffSpec, EigenSelect, ReduceOptions};
use pact_baselines::block_krylov_reduce;
use pact_bench::{min_median, print_table, sample_secs, secs};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_sparse::Ordering;

const SAMPLES: usize = 10;

fn main() {
    let mut rows = Vec::new();
    for &m in &[8usize, 24, 64] {
        let spec = MeshSpec {
            nx: 16,
            ny: 16,
            nz: 4,
            num_contacts: m,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        let parts = pact::Partitions::split(&net.stamp());
        let ports: Vec<String> = net.node_names[..net.num_ports].to_vec();

        let opts = ReduceOptions {
            cutoff: CutoffSpec::new(1e9, 0.05).expect("spec"),
            eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
            ordering: Ordering::Rcm,
            dense_threshold: 0,
            threads: None,
            pivot_relief: None,
            strategy: pact::ReduceStrategy::Flat,
            chol_kernel: pact::CholKernel::Auto,
        };
        let s = sample_secs(SAMPLES, || pact::reduce_network(&net, &opts).expect("pact"));
        let (min, med) = min_median(&s);
        rows.push(vec![format!("pact/m_{m}"), secs(min), secs(med)]);

        let s = sample_secs(SAMPLES, || {
            block_krylov_reduce(&parts, &ports, 2, Ordering::Rcm).expect("krylov")
        });
        let (min, med) = min_median(&s);
        rows.push(vec![format!("pade_block/m_{m}"), secs(min), secs(med)]);
    }
    print_table(
        "Complexity: port sweep",
        &["case", "min (s)", "median (s)"],
        &rows,
    );
}
