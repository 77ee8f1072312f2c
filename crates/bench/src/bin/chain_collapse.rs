//! Chain-collapse before/after study: reduces the embedded RC content of
//! a long transmission-line deck through the deck pipeline
//! (`prepare_netlist` → `reduce_prepared` → `render_reduced` with
//! `extract` on) with and without the degree-2 chain-collapse pre-pass
//! and writes the comparison to `BENCH_extract.json` (Table 1/3-style
//! before/after timings).
//!
//! The pre-pass replaces each degree-2 RC chain with an `m`-segment
//! equivalent chosen from the collapse spec's `(f_max, tol)` budget, so
//! PACT's eigendecomposition runs on the collapsed island instead of the
//! full one. The bench asserts the properties CI gates on:
//!
//! - collapse eliminates at least half of the island's internal nodes
//!   (`--smoke` uses the 2000-segment deck CI specifies);
//! - the pipeline is deterministic: two independent runs emit
//!   byte-identical re-stitched decks, hence bit-identical port
//!   responses;
//! - the re-stitched deck's in-band AC response matches the unreduced
//!   deck within the collapse budget;
//! - the mixed R/C/L/diode/MOSFET deck runs end-to-end through
//!   extraction (the acceptance workload).
//!
//! ```text
//! cargo run --release -p pact-bench --bin chain_collapse [--smoke] [SEGMENTS]
//! ```
//!
//! Defaults to a 2000-segment line; `--smoke` keeps the same deck but
//! skips nothing — the workload is already CI-sized.

use pact::{CutoffSpec, ReduceOptions, ReductionSession, Telemetry};
use pact_bench::{print_table, secs, timed};
use pact_circuit::{log_frequencies, AcExcitation, Circuit};
use pact_gen::{inverter_pair_deck, rich_mixed_deck, LineSpec, RichDeckSpec};
use pact_netlist::{parse, Netlist};
use pact_serve::{prepare_netlist, reduce_prepared, render_reduced, DeckOptions};

/// In-band analysis ceiling and the collapse error budget against it.
const F_MAX: f64 = 1e9;
const COLLAPSE_TOL: f64 = 1e-4;

fn session() -> ReductionSession {
    // The cutoff tolerance is PACT's in-band truncation budget; match it
    // to the collapse budget so the asserted deviation bound reflects
    // both halves of the pipeline.
    let mut opts = ReduceOptions::new(CutoffSpec::new(F_MAX, COLLAPSE_TOL).expect("cutoff"));
    opts.threads = Some(1);
    ReductionSession::new(opts)
}

/// What one extraction run produced.
struct Run {
    /// The re-stitched deck, rendered.
    text: String,
    /// Extraction, collapse and reduction telemetry.
    telemetry: Telemetry,
    /// Internal RC nodes in the deck before any rewriting.
    nodes_before: usize,
    /// Retained poles across every reduced subnetwork.
    nodes_after: usize,
}

impl Run {
    fn deck(&self) -> Netlist {
        parse(&self.text).expect("re-stitched deck parses")
    }
}

/// Deck text to re-stitched deck text, timed.
fn run(deck: &Netlist, collapse: bool) -> (Run, f64) {
    let opts = DeckOptions {
        f_max: F_MAX,
        sparsify: 0.0,
        extract: true,
        collapse_chains: collapse,
        chain_tol: COLLAPSE_TOL,
        ..DeckOptions::default()
    };
    let mut s = session();
    timed(|| {
        let prep = prepare_netlist(deck, &opts).expect("prepare");
        let red = reduce_prepared(&prep, &mut s, &opts).expect("reduce");
        let mut telemetry = prep.telemetry.clone();
        telemetry.absorb(&red.telemetry());
        let (text, _) = render_reduced(&prep, &red, "pact", opts.sparsify, &mut telemetry);
        Run {
            text,
            telemetry,
            nodes_before: prep.raw_internal,
            nodes_after: red.num_poles(),
        }
    })
}

/// Worst relative in-band AC deviation between two decks at every node
/// they share, normalized per point by `max(|v|, 1)`.
fn worst_ac_deviation(a: &Netlist, b: &Netlist, source: &str, freqs: &[f64]) -> f64 {
    let ca = Circuit::from_netlist(a).expect("compile a");
    let cb = Circuit::from_netlist(b).expect("compile b");
    let ex = AcExcitation::VSource(source.to_owned());
    let ra = ca.ac_sweep(freqs, &ex).expect("ac a");
    let rb = cb.ac_sweep(freqs, &ex).expect("ac b");
    let mut worst = 0.0f64;
    for name in ca.node_names() {
        if name == "0" || cb.node_names().iter().all(|n| n != name) {
            continue;
        }
        let va = ra.voltage(name).expect("node a");
        let vb = rb.voltage(name).expect("node b");
        for (x, y) in va.iter().zip(vb) {
            let d = (*x - y).norm_sqr().sqrt() / x.norm_sqr().sqrt().max(1.0);
            worst = worst.max(d);
        }
    }
    worst
}

fn main() {
    let mut smoke = false;
    let mut segments = 2000usize;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => segments = other.parse().expect("args: [--smoke] [SEGMENTS]"),
        }
    }
    let deck = inverter_pair_deck(&LineSpec {
        segments,
        ..LineSpec::default()
    });
    println!("# Chain collapse before/after: {segments}-segment line deck, fmax {F_MAX:.0e}");

    let (plain, plain_s) = run(&deck, false);
    let (collapsed, collapsed_s) = run(&deck, true);

    let eliminated = collapsed.telemetry.counters.nodes_eliminated;
    let chains = collapsed.telemetry.counters.chains_collapsed;
    assert!(eliminated > 0, "collapse eliminated no nodes");
    assert!(
        eliminated as f64 >= 0.5 * plain.nodes_before as f64,
        "collapse eliminated {eliminated} of {} internal nodes (< 50%)",
        plain.nodes_before
    );

    // Determinism: an independent run must reproduce the deck bytes, and
    // identical bytes compile to identical circuits — bit-identical port
    // responses.
    let (again, _) = run(&deck, true);
    assert_eq!(
        collapsed.text, again.text,
        "collapse pipeline must be deterministic"
    );

    // The re-stitched deck tracks the unreduced one within the collapse
    // budget across the band.
    let freqs = log_frequencies(16, F_MAX / 1e3, F_MAX);
    let dev = worst_ac_deviation(&deck, &collapsed.deck(), "Vin", &freqs);
    assert!(
        dev <= 10.0 * COLLAPSE_TOL,
        "collapsed deck deviates by {dev:.3e} in band (budget {COLLAPSE_TOL:.0e})"
    );

    // Acceptance workload: the mixed-element deck extracts and re-stitches
    // end-to-end.
    let rich = rich_mixed_deck(&RichDeckSpec::default());
    let (rich_red, _) = run(&rich, true);
    assert!(
        rich_red.telemetry.counters.extract_subnets >= 2,
        "mixed deck must yield multiple RC islands"
    );
    let rich_dev = worst_ac_deviation(
        &rich,
        &rich_red.deck(),
        "Vin",
        &log_frequencies(8, 1e6, F_MAX),
    );
    assert!(
        rich_dev <= 1e-3,
        "mixed deck deviates by {rich_dev:.3e} after extraction"
    );

    let speedup = plain_s / collapsed_s;
    print_table(
        "Chain collapse A/B (deck pipeline wall clock)",
        &["mode", "seconds", "island nodes", "eliminated", "speedup"],
        &[
            vec![
                "extract only".into(),
                secs(plain_s),
                format!("{}", plain.nodes_before),
                "0".into(),
                "1.00".into(),
            ],
            vec![
                "collapse + extract".into(),
                secs(collapsed_s),
                format!("{}", collapsed.nodes_before),
                format!("{eliminated}"),
                format!("{speedup:.2}"),
            ],
        ],
    );
    println!(
        "PERF plain_s={plain_s:.6} collapsed_s={collapsed_s:.6} speedup={speedup:.3} \
         chains={chains} eliminated={eliminated} ac_dev={dev:.3e} rich_dev={rich_dev:.3e}"
    );

    let json = render_json(
        segments,
        &plain,
        &collapsed,
        plain_s,
        collapsed_s,
        dev,
        rich_dev,
    );
    std::fs::write("BENCH_extract.json", &json).expect("write BENCH_extract.json");
    println!("wrote BENCH_extract.json");
    if smoke {
        println!("chain collapse OK");
    }
}

/// Hand-rolled JSON (the workspace has no serializer dependency).
fn render_json(
    segments: usize,
    plain: &Run,
    collapsed: &Run,
    plain_s: f64,
    collapsed_s: f64,
    ac_dev: f64,
    rich_dev: f64,
) -> String {
    let c = &collapsed.telemetry.counters;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"chain_collapse\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"segments\": {segments}, \"fmax\": {F_MAX:e}, \
         \"collapse_tol\": {COLLAPSE_TOL:e}}},\n"
    ));
    out.push_str(&format!(
        "  \"extract_only\": {{\"seconds\": {plain_s:.6}, \"island_nodes\": {}, \
         \"nodes_after\": {}}},\n",
        plain.nodes_before, plain.nodes_after
    ));
    out.push_str(&format!(
        "  \"collapse_extract\": {{\"seconds\": {collapsed_s:.6}, \"island_nodes\": {}, \
         \"nodes_after\": {}, \"chains_collapsed\": {}, \"nodes_eliminated\": {}}},\n",
        collapsed.nodes_before, collapsed.nodes_after, c.chains_collapsed, c.nodes_eliminated
    ));
    out.push_str(&format!("  \"speedup\": {:.4},\n", plain_s / collapsed_s));
    out.push_str(&format!("  \"ac_deviation\": {ac_dev:e},\n"));
    out.push_str(&format!("  \"rich_deck_ac_deviation\": {rich_dev:e}\n"));
    out.push_str("}\n");
    out
}
