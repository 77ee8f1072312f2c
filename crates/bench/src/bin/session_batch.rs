//! Warm-session amortization study: reduces a batch of same-topology
//! decks twice — once with a fresh `ReductionSession` per deck (cold,
//! the pre-session behaviour) and once through a single session's
//! `reduce_batch` (warm, one symbolic analysis shared by the whole
//! batch) — and writes the comparison to `BENCH_session.json`.
//!
//! The two runs produce bit-identical models (asserted here and in the
//! `backend_equivalence` suite); only the symbolic-analysis work and
//! the wall clock differ.
//!
//! ```text
//! cargo run --release -p pact-bench --bin session_batch [--smoke] [DECKS]
//! ```
//!
//! Defaults to 8 decks on a 30×30×6 substrate mesh; `--smoke` shrinks
//! the mesh for CI.

use pact::{CutoffSpec, EigenSelect, ReduceOptions, Reduction, ReductionSession};
use pact_bench::{print_table, secs, timed};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_netlist::RcNetwork;
use pact_sparse::Ordering;

fn options() -> ReduceOptions {
    ReduceOptions {
        cutoff: CutoffSpec::new(5e8, 0.05).expect("cutoff"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::NestedDissection,
        dense_threshold: 400,
        threads: Some(1),
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    }
}

/// `count` same-topology decks: identical resistor/capacitor structure,
/// per-deck capacitor values (a process-corner sweep, the motivating
/// batch workload).
fn decks(base: &RcNetwork, count: usize) -> Vec<RcNetwork> {
    (0..count)
        .map(|k| {
            let mut net = base.clone();
            let scale = 1.0 + 0.05 * k as f64;
            for c in &mut net.capacitors {
                c.value *= scale;
            }
            net
        })
        .collect()
}

fn assert_bits_equal(a: &Reduction, b: &Reduction, k: usize) {
    assert_eq!(a.model.a1, b.model.a1, "deck {k}: A' differs");
    assert_eq!(a.model.b1, b.model.b1, "deck {k}: B' differs");
    assert_eq!(a.model.lambdas, b.model.lambdas, "deck {k}: poles differ");
    assert_eq!(a.model.r2, b.model.r2, "deck {k}: R'' differs");
}

fn main() {
    let mut smoke = false;
    let mut count = 8usize;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => count = other.parse().expect("args: [--smoke] [DECKS]"),
        }
    }
    // Few ports and a low cutoff keep the moment and eigen phases small,
    // so the per-deck cost is dominated by the factorization the warm
    // session amortizes — the workload `reduce_batch` exists for.
    let (nx, ny, nz, contacts) = if smoke {
        (10, 10, 4, 8)
    } else {
        (30, 30, 6, 8)
    };
    let base = substrate_mesh(&MeshSpec {
        nx,
        ny,
        nz,
        num_contacts: contacts,
        ..MeshSpec::table2()
    });
    let batch = decks(&base, count);
    println!(
        "# Session batch amortization: {count} decks, {nx}x{ny}x{nz} mesh, \
         {} ports, {} internal nodes",
        base.num_ports,
        base.num_internal()
    );

    // Cold: a fresh session per deck — every deck pays ordering +
    // elimination-tree construction.
    let (cold, cold_s) = timed(|| {
        batch
            .iter()
            .map(|net| {
                ReductionSession::new(options())
                    .reduce_network(net)
                    .expect("cold reduce")
            })
            .collect::<Vec<_>>()
    });
    let cold_factor: u64 = cold
        .iter()
        .map(|r| r.telemetry.counters.factorizations)
        .sum();

    // Warm: one session, one symbolic analysis for the whole batch.
    let mut session = ReductionSession::new(options());
    let (warm, warm_s) = timed(|| session.reduce_batch(&batch).expect("warm reduce"));
    let warm_factor: u64 = warm
        .iter()
        .map(|r| r.telemetry.counters.factorizations)
        .sum();
    let warm_refactor: u64 = warm
        .iter()
        .map(|r| r.telemetry.counters.refactorizations)
        .sum();

    for (k, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_bits_equal(c, w, k);
    }
    assert_eq!(
        session.cached_patterns(),
        1,
        "same-topology batch must share one symbolic analysis"
    );

    let speedup = cold_s / warm_s;
    print_table(
        "Session batch amortization",
        &["mode", "seconds", "fresh factors", "refactors", "speedup"],
        &[
            vec![
                "cold (session per deck)".into(),
                secs(cold_s),
                format!("{cold_factor}"),
                "0".into(),
                "1.00".into(),
            ],
            vec![
                "warm (reduce_batch)".into(),
                secs(warm_s),
                format!("{warm_factor}"),
                format!("{warm_refactor}"),
                format!("{speedup:.2}"),
            ],
        ],
    );
    println!("PERF cold_s={cold_s:.6} warm_s={warm_s:.6} batch_speedup={speedup:.3}");

    let json = render_json(
        nx,
        ny,
        nz,
        &base,
        count,
        cold_s,
        warm_s,
        cold_factor,
        warm_factor,
        warm_refactor,
    );
    std::fs::write("BENCH_session.json", &json).expect("write BENCH_session.json");
    println!("wrote BENCH_session.json");
    if smoke {
        println!("smoke OK");
    }
}

/// Hand-rolled JSON (the workspace has no serializer dependency);
/// strings go through the shared `pact::json::escape` helper.
#[allow(clippy::too_many_arguments)]
fn render_json(
    nx: usize,
    ny: usize,
    nz: usize,
    base: &RcNetwork,
    count: usize,
    cold_s: f64,
    warm_s: f64,
    cold_factor: u64,
    warm_factor: u64,
    warm_refactor: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  {}: {},\n",
        pact::json::escape("bench"),
        pact::json::escape("session_batch")
    ));
    out.push_str(&format!(
        "  {}: {{\"nx\": {nx}, \"ny\": {ny}, \"nz\": {nz}, \"ports\": {}, \"internal\": {}}},\n",
        pact::json::escape("mesh"),
        base.num_ports,
        base.num_internal()
    ));
    out.push_str(&format!("  \"decks\": {count},\n"));
    out.push_str(&format!(
        "  \"cold\": {{\"seconds\": {cold_s:.6}, \"factorizations\": {cold_factor}, \"refactorizations\": 0}},\n"
    ));
    out.push_str(&format!(
        "  \"warm\": {{\"seconds\": {warm_s:.6}, \"factorizations\": {warm_factor}, \"refactorizations\": {warm_refactor}}},\n"
    ));
    out.push_str(&format!("  \"batch_speedup\": {:.4}\n", cold_s / warm_s));
    out.push_str("}\n");
    out
}
