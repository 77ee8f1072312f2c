//! Probe for the Lanczos capacitor-scale cost cliff.
//!
//! Rescaling every capacitor in a deck by ±1% — a change with no
//! structural meaning, the kind a process-corner sweep applies — has
//! been observed to move the flat eigen phase by an order of magnitude
//! (~16× in the worst sighting): the scaling shifts where Ritz values
//! fall relative to the cutoff and to each other, and the restart
//! logic's path through the spectrum is chaotic in those gaps. The
//! effect is perf-only — models stay correct — but it poisons A/B
//! timing comparisons made across decks that differ only in cap scale.
//!
//! This bench times the eigen phase on a 16×16×4 substrate mesh at cap
//! scales {0.99, 0.995, 1.0, 1.005, 1.01} and reports the max/min
//! eigen-time ratio. Past [`WARN_RATIO`] it prints a `WARN` line — it
//! never fails: the cliff is a known sensitivity being *tracked*, not a
//! regression gate (chaotic-in-mesh-size timings cannot gate CI).
//!
//! ```text
//! cargo run --release -p pact-bench --bin lanczos_cliff
//! ```

use pact::{CutoffSpec, EigenSelect, ReduceOptions, ReduceStrategy};
use pact_bench::print_table;
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_netlist::RcNetwork;

/// Eigen-time spread (max/min over the cap-scale sweep) above which the
/// bench warns. 4× leaves room for host noise while still catching the
/// order-of-magnitude cliff.
const WARN_RATIO: f64 = 4.0;

const SCALES: [f64; 5] = [0.99, 0.995, 1.0, 1.005, 1.01];

fn cap_scaled(base: &RcNetwork, scale: f64) -> RcNetwork {
    let mut net = base.clone();
    for c in &mut net.capacitors {
        c.value *= scale;
    }
    net
}

fn eigen_seconds(net: &RcNetwork) -> (f64, u64) {
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(500e6, 0.10).expect("cutoff"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: pact_sparse::Ordering::NestedDissection,
        dense_threshold: 400,
        threads: Some(1),
        pivot_relief: None,
        strategy: ReduceStrategy::Flat,
        chol_kernel: pact::CholKernel::Auto,
    };
    let red = pact::reduce_network(net, &opts).expect("reduce");
    let eigen = red
        .telemetry
        .phases
        .iter()
        .find(|p| p.name == "eigen")
        .map_or(0.0, |p| p.seconds);
    (eigen, red.telemetry.counters.lanczos_matvecs)
}

fn main() {
    println!("# Lanczos eigen-phase sensitivity to capacitor scale");
    let base = substrate_mesh(&MeshSpec {
        nx: 16,
        ny: 16,
        nz: 4,
        num_contacts: 24,
        ..MeshSpec::table4()
    });
    println!(
        "mesh 16x16x4, 24 contacts, {} nodes; flat Lanczos, fmax 500 MHz",
        base.num_nodes()
    );

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for &s in &SCALES {
        let net = cap_scaled(&base, s);
        // Min of two runs per scale: the phase under test is tens of
        // milliseconds, well inside 1-core scheduler noise.
        let (e1, mv) = eigen_seconds(&net);
        let (e2, _) = eigen_seconds(&net);
        let eigen = e1.min(e2);
        times.push(eigen);
        rows.push(vec![
            format!("{s:.3}"),
            format!("{:.1}", eigen * 1e3),
            format!("{mv}"),
        ]);
        println!(
            "PERF lanczos_cliff scale={s:.3} eigen_ms={:.1} matvecs={mv}",
            eigen * 1e3
        );
    }
    print_table(
        "Eigen phase vs cap scale",
        &["cap scale", "eigen (ms)", "matvecs"],
        &rows,
    );

    let min = times.iter().cloned().fold(f64::MAX, f64::min).max(1e-9);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let ratio = max / min;
    println!("PERF lanczos_cliff ratio={ratio:.2}");
    if ratio > WARN_RATIO {
        println!(
            "WARN lanczos_cliff: eigen phase spreads {ratio:.1}x across a ±1% cap-scale sweep \
             (threshold {WARN_RATIO}x) — cap-scale cost cliff is active on this host/mesh"
        );
    } else {
        println!("lanczos_cliff OK (ratio {ratio:.2}x <= {WARN_RATIO}x)");
    }
}
