//! The one-shot workloads (`table4_flat`, `mesh20k_hier`): one deck
//! reduced again and again, each time with a fresh session, as one
//! `rcfit` run pays.

use std::time::Instant;

use crate::accuracy;
use crate::decks::Deck;
use crate::pipeline::{
    layer_metrics, run_deck, traced_deck, DeckOutput, LayerCounts, Models, TraceState,
};
use crate::procfs;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Trace;

/// Fresh processes whose first deck gives `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// The first deck of a fresh process: its wall seconds and the hash of
/// its output, or why it failed.
pub type FirstDeck = Result<(f64, u64), String>;

/// FNV-1a hash of emitted deck text, to compare a child process's
/// output with the run's reference.
pub fn output_hash(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reduces `deck` once in this process: the work of a set-up child.
pub fn first_deck(deck: &Deck) -> FirstDeck {
    run_deck(&deck.text, &deck.opts)
        .map(|(out, _)| (out.wall_s, output_hash(&out.text)))
        .map_err(|e| format!("error:{}", e.code()))
}

/// The run's first successful output and models: every later deck must
/// emit the same bytes.
type Reference = Option<(DeckOutput, Models)>;

/// Reduces `deck` once, checks its output against the run's reference
/// (setting it on the first success) and records the outcome. Returns
/// the deck's wall and CPU seconds when it succeeded.
fn attempt(deck: &Deck, reference: &mut Reference, report: &mut Report) -> Option<(f64, f64)> {
    let (out, models) = match run_deck(&deck.text, &deck.opts) {
        Ok(done) => done,
        Err(e) => {
            report.tally.fail(format!("error:{}", e.code()));
            return None;
        }
    };
    let times = (out.wall_s, out.cpu_s);
    match reference {
        Some((r, _)) if r.text != out.text => report.tally.fail("output differs between runs"),
        Some(_) => report.tally.pass(),
        None => {
            report.tally.pass();
            *reference = Some((out, models));
        }
    }
    Some(times)
}

/// The untimed set-up: the first deck of each of [`SETUP_REPEATS`]
/// fresh processes from `first`, before the measured window.
/// Returns their wall seconds; each must emit the `reference` bytes.
fn set_up(first: &[FirstDeck], reference: &str, report: &mut Report) -> Vec<f64> {
    let expected = output_hash(reference);
    let mut walls = Vec::new();
    for deck in first {
        match deck {
            Ok((wall, hash)) if *hash == expected => {
                report.tally.pass();
                walls.push(*wall);
            }
            Ok(_) => report
                .tally
                .fail("set-up deck differs from the run's decks"),
            Err(e) => report.tally.fail(format!("set-up {e}")),
        }
    }
    walls
}

/// The untraced run: the first deck of each of [`SETUP_REPEATS`] fresh
/// processes from `first` for `setup_s`, then decks back to back in
/// this process for `seconds`.
pub fn run(deck: &Deck, seconds: f64, first: &dyn Fn() -> FirstDeck) -> Report {
    let mut report = Report::default();
    let first: Vec<FirstDeck> = (0..SETUP_REPEATS).map(|_| first()).collect();
    let mut reference = None;
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match attempt(deck, &mut reference, &mut report) {
            Some((wall, cpu)) => {
                walls.push(wall);
                cpus.push(cpu);
            }
            None if report.tally.failed >= 3 => break,
            None => {}
        }
    }
    let window = start.elapsed().as_secs_f64();
    report.set("peak_rss_mb", procfs::peak_rss_mb());
    let Some((out, models)) = reference else {
        return report;
    };
    let setup = set_up(&first, &out.text, &mut report);
    let checks = Instant::now();
    let verdict = accuracy::check_models(&models, deck.opts.f_max, deck.opts.tolerance);
    report.notes.push(format!(
        "accuracy: {}",
        verdict.describe(deck.opts.tolerance)
    ));
    if let Some(why) = &verdict.failure {
        // Every deck of the run emitted this model.
        report.tally.condemn(u64::MAX, why.clone());
    }
    report.set("inband_err_max", verdict.inband_err);
    report.notes.push(format!(
        "run: {window:.1} s measured window, {:.1} s accuracy checks",
        checks.elapsed().as_secs_f64()
    ));
    let deck_s = median(&walls);
    // A window holds about ten decks, too few for any percentile with
    // ten samples beyond it to be a tail (with eleven it would be p9),
    // so the tail metric is the slowest deck.
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    report.set("deck_s", deck_s);
    report.set("cpu_s", median(&cpus));
    report.set(
        "throughput_decks_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    report.set("latency_p50_ms", 1e3 * deck_s);
    report.set("latency_p95_ms", 1e3 * slowest);
    if !setup.is_empty() {
        report.set("setup_s", median(&setup));
    }
    report.set("poles_retained", out.poles as f64);
    report.set("realized_elements", out.elements as f64);
    let secs = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    report.notes.push(format!(
        "decks: {} timed (tail: the slowest), wall s: {}; output {} bytes",
        walls.len(),
        secs(&walls),
        out.text.len()
    ));
    report.notes.push(format!(
        "set-up: first deck of {} fresh processes, wall s: {}",
        setup.len(),
        secs(&setup)
    ));
    report
}

/// The traced run: one cold untraced deck as the reference, then
/// untraced and traced decks alternately for `seconds`; every traced
/// deck must emit the reference bytes.
pub fn run_traced(deck: &Deck, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut reference = None;
    attempt(deck, &mut reference, &mut report);
    if reference.is_none() {
        return report;
    }
    let mut tr = Trace::default();
    let mut counts = LayerCounts::default();
    let mut untraced = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match attempt(deck, &mut reference, &mut report) {
            Some((wall, _)) => untraced.push(wall),
            None => break,
        }
        match traced_deck(
            &deck.text,
            &deck.opts,
            &mut TraceState::cold(),
            &mut tr,
            &mut counts,
        ) {
            Ok(text) if reference.as_ref().is_some_and(|(r, _)| r.text == text) => {
                report.tally.pass()
            }
            Ok(_) => {
                report.tally.fail("traced output differs");
                report
                    .integrity
                    .push("traced deck differs from the untraced deck".to_owned());
            }
            Err(e) => report.tally.fail(format!("error:{}", e.code())),
        }
    }
    layer_metrics(&mut report, &tr, &counts);
    let traced = tr.root_walls();
    if !traced.is_empty() {
        report.set("trace.overhead_s", median(&traced) - median(&untraced));
    }
    report
}
