//! Thread-scaling study of the parallel execution layer: times the first
//! congruence transform (`Transform1::compute_ctx`, the port fan-out /
//! blocked-solve hot path), the full flat reduction, and the
//! hierarchical reduction (whose leaf fan-out is the coarse-grained
//! parallel axis) at 1/2/4/8 worker threads on a Table-4-like substrate
//! mesh, and writes the measurements to `BENCH_par_scaling.json`.
//!
//! The reduced models are bit-identical at every thread count (see the
//! `par_determinism` test); this binary measures only the wall clock.
//!
//! ```text
//! cargo run --release -p pact-bench --bin par_scaling [NX NY NZ CONTACTS]
//! ```
//!
//! Defaults to a 40×40×7 mesh with 64 contacts (≈11k nodes). Pass smaller
//! dimensions for a quick smoke run, e.g. `par_scaling 16 16 4 16`.

use pact::{CutoffSpec, EigenSelect, Partitions, ReduceOptions, Transform1};
use pact_bench::{print_table, secs, timed};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_sparse::{Ordering, ParCtx};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Sample {
    threads: usize,
    transform1_s: f64,
    reduce_s: f64,
    hier_s: f64,
}

fn main() {
    let argv: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| {
            a.parse()
                .expect("args: NX NY NZ CONTACTS (positive integers)")
        })
        .collect();
    let (nx, ny, nz, contacts) = match argv.as_slice() {
        [] => (40, 40, 7, 64),
        [nx, ny, nz, m] => (*nx, *ny, *nz, *m),
        _ => panic!("args: NX NY NZ CONTACTS (all four or none)"),
    };

    println!("# Thread scaling: {nx}x{ny}x{nz} mesh, {contacts} contacts");
    println!(
        "host reports {} available core(s)",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let net = substrate_mesh(&MeshSpec {
        nx,
        ny,
        nz,
        num_contacts: contacts,
        ..MeshSpec::table4()
    });
    let parts = Partitions::split(&net.stamp());
    println!("mesh: {} ports, {} internal nodes", parts.m, parts.n);

    let cutoff = CutoffSpec::new(500e6, 0.10).expect("cutoff");
    let mut samples = Vec::new();
    for &t in &THREAD_COUNTS {
        let ctx = ParCtx::new(Some(t));
        // Warm-up pass at each thread count so allocator state is steady.
        let _ = Transform1::compute_ctx(&parts, Ordering::NestedDissection, &ctx).expect("t1");
        let (_, transform1_s) = timed(|| {
            Transform1::compute_ctx(&parts, Ordering::NestedDissection, &ctx).expect("t1")
        });
        let opts = ReduceOptions {
            cutoff,
            eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
            ordering: Ordering::NestedDissection,
            dense_threshold: 400,
            threads: Some(t),
            pivot_relief: None,
            strategy: pact::ReduceStrategy::Flat,
            chol_kernel: pact::CholKernel::Auto,
        };
        let (red, reduce_s) = timed(|| pact::reduce_network(&net, &opts).expect("reduce"));
        let hier_opts = ReduceOptions {
            strategy: pact::ReduceStrategy::Hierarchical {
                max_block: 2000,
                max_depth: 16,
            },
            ..opts.clone()
        };
        let (hred, hier_s) = timed(|| pact::reduce_network(&net, &hier_opts).expect("reduce hier"));
        println!(
            "threads={t}: transform1 {} s, full reduce {} s ({} poles), hier {} s ({} poles, {} blocks)",
            secs(transform1_s),
            secs(reduce_s),
            red.model.num_poles(),
            secs(hier_s),
            hred.model.num_poles(),
            hred.telemetry.counters.hier_blocks
        );
        samples.push(Sample {
            threads: t,
            transform1_s,
            reduce_s,
            hier_s,
        });
    }

    let base_t1 = samples[0].transform1_s;
    let base_red = samples[0].reduce_s;
    let base_hier = samples[0].hier_s;
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.threads),
                secs(s.transform1_s),
                format!("{:.2}", base_t1 / s.transform1_s),
                secs(s.reduce_s),
                format!("{:.2}", base_red / s.reduce_s),
                secs(s.hier_s),
                format!("{:.2}", base_hier / s.hier_s),
            ]
        })
        .collect();
    print_table(
        "Thread scaling",
        &[
            "threads",
            "transform1 (s)",
            "speedup",
            "reduce (s)",
            "speedup",
            "hier (s)",
            "speedup",
        ],
        &rows,
    );

    let json = render_json(nx, ny, nz, parts.m, parts.n, &samples);
    std::fs::write("BENCH_par_scaling.json", &json).expect("write BENCH_par_scaling.json");
    println!("wrote BENCH_par_scaling.json");
}

/// Hand-rolled JSON (the workspace has no serializer dependency).
fn render_json(
    nx: usize,
    ny: usize,
    nz: usize,
    ports: usize,
    internal: usize,
    samples: &[Sample],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"par_scaling\",\n");
    out.push_str(&format!(
        "  \"mesh\": {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}, \"ports\": {ports}, \"internal\": {internal}}},\n"
    ));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    out.push_str("  \"samples\": [\n");
    for (k, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"transform1_seconds\": {:.6}, \"reduce_seconds\": {:.6}, \"hier_seconds\": {:.6}}}{}\n",
            s.threads,
            s.transform1_s,
            s.reduce_s,
            s.hier_s,
            if k + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
