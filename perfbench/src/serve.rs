//! The `serve_mix` workload: an `rcfitd` daemon with the default
//! configuration, driven by closed-loop clients in this process over a
//! seeded stream of many small decks from four families, with a stated
//! share of topologies the daemon holds no warm session for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pact::json::Value;
use pact::ReductionSession;
use pact_serve::{
    parse_request, Daemon, DeckOptions, DeckSource, ReplySink, ServeConfig, ServeCounters,
};

use crate::accuracy::{self, Verdict};
use crate::decks::{self, Deck, Family, Req, Scale, NOVEL_EVERY, NOVEL_TOPOLOGIES, VARIANTS};
use crate::pipeline::{layer_metrics, run_deck, run_deck_in, traced_deck, LayerCounts, TraceState};
use crate::procfs;
use crate::report::Report;
use crate::stats::{median, tail_percentile, TAIL_SAMPLES};
use crate::trace::Trace;

/// Closed-loop clients: each waits for its reply before sending again.
pub const CLIENTS: usize = 2;

/// Daemon set-ups per run; `setup_s` is their median. A set-up takes
/// tens of milliseconds, so more repeats than the one-shot workloads'
/// cost little and steady the median.
pub const SETUP_REPEATS: usize = 15;

/// Latency samples needed so that [`TAIL_SAMPLES`] lie beyond p95.
const MIN_SAMPLES: usize = 20 * TAIL_SAMPLES;

/// Upper bound on requests in one run (the stream is generated up to
/// here; a run that reaches it stops early).
const MAX_REQUESTS: usize = 1 << 17;

/// The generated workload: the families, the request stream and every
/// request body it can send, rendered before any timed region.
pub struct Workload {
    families: Vec<Family>,
    stream: Vec<Req>,
    /// Request line minus its opening `{"id":N,` per distinct request.
    bodies: BTreeMap<Req, String>,
}

impl Workload {
    /// Generates the workload for `seed`.
    pub fn new(seed: u64, scale: Scale) -> Workload {
        let families = decks::serve_families(scale);
        let stream = decks::serve_stream(seed, families.len(), MAX_REQUESTS);
        let mut bodies = BTreeMap::new();
        for (f, fam) in families.iter().enumerate() {
            for v in 0..VARIANTS {
                let req = Req::Family {
                    family: f,
                    variant: v,
                };
                bodies.insert(req, body(&fam.variant(v)));
            }
        }
        for j in 0..NOVEL_TOPOLOGIES {
            bodies.insert(Req::Novel(j), body(&decks::novel_deck(j, scale)));
        }
        Workload {
            families,
            stream,
            bodies,
        }
    }

    /// The family's deck at capacitor scale 1: the set-up request of
    /// each family.
    fn base(family: usize) -> Req {
        Req::Family { family, variant: 0 }
    }

    /// The request's deck in words, for the report.
    fn describe(&self, req: Req) -> String {
        match req {
            Req::Family { family, variant } => format!(
                "{} variant {variant} (cap scale {:.2})",
                self.families[family].name,
                decks::variant_scale(variant)
            ),
            Req::Novel(j) => format!("novel topology {j}"),
        }
    }

    fn name(&self, req: Req) -> &'static str {
        match req {
            Req::Family { family, .. } => self.families[family].name,
            Req::Novel(_) => "novel",
        }
    }

    /// The `rcfitd-v1` request line carrying `req`.
    fn line(&self, id: usize, req: Req) -> String {
        format!("{{\"id\":{id},{}", self.bodies[&req])
    }
}

/// The request line for `deck` without its opening `{`, so the id can
/// be spliced in front.
fn body(deck: &Deck) -> String {
    let line = Value::obj(vec![
        ("deck".to_owned(), Value::str(&deck.text)),
        ("options".to_owned(), options_json(&deck.opts)),
    ])
    .render();
    line[1..].to_owned()
}

/// The request `options` object for `o`.
fn options_json(o: &DeckOptions) -> Value {
    let mut options = vec![(
        "threads".to_owned(),
        Value::num(o.threads.unwrap_or(1) as f64),
    )];
    if !o.extra_ports.is_empty() {
        options.push((
            "ports".to_owned(),
            Value::Arr(o.extra_ports.iter().map(Value::str).collect()),
        ));
    }
    if o.extract {
        options.push(("extract".to_owned(), Value::Bool(true)));
    }
    if o.collapse_chains {
        options.push(("collapse_chains".to_owned(), Value::Bool(true)));
        options.push(("chain_tol".to_owned(), Value::num(o.chain_tol)));
    }
    Value::obj(options)
}

/// The deck text and options the daemon resolves from a request line:
/// the one-shot reference runs under exactly these.
fn resolve(line: &str) -> (String, DeckOptions) {
    let req = parse_request(line, usize::MAX).expect("benchmark request lines are valid");
    match req.source {
        Some(DeckSource::Inline(text)) => (text, req.options),
        other => panic!("benchmark requests carry inline decks, got {other:?}"),
    }
}

/// One answered request.
struct Answer {
    req: Req,
    submit_s: f64,
    latency_s: f64,
    reply: String,
}

type Channel = (ReplySink, mpsc::Receiver<String>);

fn reply_channel() -> Channel {
    let (tx, rx) = mpsc::channel::<String>();
    let sink: ReplySink = Arc::new(move |line: &str| {
        // The receiver outlives every request it waits for.
        let _ = tx.send(line.to_owned());
    });
    (sink, rx)
}

/// Sends request `id` and waits for its reply.
fn round_trip(daemon: &Daemon, w: &Workload, id: usize, req: Req, ch: &Channel) -> Answer {
    let line = w.line(id, req);
    let t0 = Instant::now();
    daemon.submit(&line, &ch.0);
    let submit_s = t0.elapsed().as_secs_f64();
    let reply = ch.1.recv().expect("the daemon answers every request");
    Answer {
        req,
        submit_s,
        latency_s: t0.elapsed().as_secs_f64(),
        reply,
    }
}

/// Starts a daemon and sends the first (cold) request of each family;
/// returns the daemon, the seconds that took, and the answers.
fn set_up(w: &Workload) -> (Daemon, f64, Vec<Answer>) {
    let ch = reply_channel();
    let t0 = Instant::now();
    let daemon = Daemon::new(ServeConfig::default());
    let answers = (0..w.families.len())
        .map(|f| round_trip(&daemon, w, f, Workload::base(f), &ch))
        .collect();
    (daemon, t0.elapsed().as_secs_f64(), answers)
}

/// Runs the closed-loop clients until `seconds` have passed and at least
/// [`MIN_SAMPLES`] requests completed. Returns the answers, the window's
/// wall seconds and the process CPU seconds it used.
fn client_window(daemon: &Daemon, w: &Workload, seconds: f64) -> (Vec<Answer>, f64, f64) {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let answers: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let ch = reply_channel();
                    let mut out = Vec::new();
                    while Instant::now() < deadline
                        || done.load(AtomicOrdering::Relaxed) < MIN_SAMPLES
                    {
                        let id = next.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(&req) = w.stream.get(id) else { break };
                        out.push(round_trip(daemon, w, id, req, &ch));
                        done.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    (answers, wall, procfs::cpu_seconds() - cpu0)
}

/// The one-shot pipeline's result for one distinct deck: its emitted
/// text, model size and the accuracy and passivity of its models.
struct Checked {
    text: String,
    poles: usize,
    elements: usize,
    tolerance: f64,
    verdict: Verdict,
}

type References = BTreeMap<Req, Result<Checked, String>>;

/// The one-shot pipeline's deck (a fresh session per deck, as one `rcfit`
/// run) for every distinct request in `reqs`, with its models checked
/// for accuracy and passivity; computed outside the window on all cores.
fn references(w: &Workload, reqs: &[Req]) -> References {
    let distinct: Vec<Req> = reqs
        .iter()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let threads = procfs::nproc();
    let mut refs = BTreeMap::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let distinct = &distinct;
                scope.spawn(move || {
                    distinct
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&req| {
                            let (text, opts) = resolve(&w.line(0, req));
                            let checked = run_deck(&text, &opts)
                                .map(|(out, models)| Checked {
                                    verdict: accuracy::check_models(
                                        &models,
                                        opts.f_max,
                                        opts.tolerance,
                                    ),
                                    tolerance: opts.tolerance,
                                    text: out.text,
                                    poles: out.poles,
                                    elements: out.elements,
                                })
                                .map_err(|e| e.code().to_owned());
                            (req, checked)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            refs.extend(h.join().expect("reference thread"));
        }
    });
    refs
}

/// Checks every reply: a typed error or shed fails the request, a
/// successful reply must be byte-equal to the one-shot pipeline's deck,
/// and that deck's models must pass the accuracy and passivity check.
fn check_answers(answers: &[Answer], refs: &References, report: &mut Report) {
    for a in answers {
        let Ok(doc) = Value::parse(&a.reply) else {
            report.tally.fail("unparsable reply");
            continue;
        };
        if doc.get("ok") != Some(&Value::Bool(true)) {
            let code = doc
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("unknown");
            report.tally.fail(format!("error:{code}"));
            continue;
        }
        let deck = doc.get("deck").and_then(Value::as_str);
        if !judge(deck, &refs[&a.req], report) {
            report.tally.fail("reply differs from the one-shot deck");
        }
    }
}

/// Records the outcome of emitted `deck` against its reference: a
/// failed reference or accuracy check fails it. Returns `false`, with
/// nothing recorded, when the deck differs from the reference bytes.
fn judge(deck: Option<&str>, reference: &Result<Checked, String>, report: &mut Report) -> bool {
    match reference {
        Ok(r) if deck != Some(r.text.as_str()) => return false,
        Ok(r) => match &r.verdict.failure {
            Some(why) => report.tally.fail(why.clone()),
            None => report.tally.pass(),
        },
        Err(code) => report.tally.fail(format!("reference error:{code}")),
    }
    true
}

/// `inband_err_max` over every deck served, and the model size of the
/// families' base decks; notes each family's worst deck.
fn report_models(w: &Workload, refs: &References, report: &mut Report) {
    let mut worst: BTreeMap<&str, &Checked> = BTreeMap::new();
    for (&req, r) in refs {
        if let Ok(r) = r {
            if r.verdict.failure.is_some() {
                report.notes.push(format!(
                    "accuracy FAILED on {}: {}",
                    w.describe(req),
                    r.verdict.describe(r.tolerance)
                ));
            }
            let slot = worst.entry(w.name(req)).or_insert(r);
            if r.verdict.inband_err > slot.verdict.inband_err {
                *slot = r;
            }
        }
    }
    for (name, r) in &worst {
        report.notes.push(format!(
            "accuracy {name:<6} worst served deck: {}",
            r.verdict.describe(r.tolerance)
        ));
    }
    report.notes.push(format!(
        "accuracy checked on {} distinct served decks",
        refs.len()
    ));
    let inband = worst.values().map(|r| r.verdict.inband_err);
    report.set("inband_err_max", inband.fold(0.0, f64::max));
    let bases: Vec<&Checked> = (0..w.families.len())
        .filter_map(|f| refs.get(&Workload::base(f))?.as_ref().ok())
        .collect();
    report.set(
        "poles_retained",
        bases.iter().map(|r| r.poles).sum::<usize>() as f64,
    );
    report.set(
        "realized_elements",
        bases.iter().map(|r| r.elements).sum::<usize>() as f64,
    );
}

fn note_mix(w: &Workload, answers: &[Answer], counters: &ServeCounters, report: &mut Report) {
    let mut by_family: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut by_deck: BTreeMap<Req, Vec<f64>> = BTreeMap::new();
    for a in answers {
        by_family
            .entry(w.name(a.req))
            .or_default()
            .push(1e3 * a.latency_s);
        by_deck.entry(a.req).or_default().push(1e3 * a.latency_s);
    }
    let g = |c: &AtomicU64| c.load(AtomicOrdering::Relaxed) as f64;
    report.notes.push(format!(
        "requests: {} answered by {} workers for {CLIENTS} closed-loop clients; \
         novel-topology requests {:.2} % (chosen: 1 in {NOVEL_EVERY}); warm session hits {:.2} %",
        answers.len(),
        ServeConfig::default().workers,
        100.0 * by_family.get("novel").map_or(0, Vec::len) as f64 / answers.len().max(1) as f64,
        100.0 * g(&counters.session_hits)
            / (g(&counters.session_hits) + g(&counters.session_misses)).max(1.0),
    ));
    for (name, lat) in &by_family {
        report.notes.push(format!(
            "  {name:<6} {:>6} replies, latency p50 {:>8.2} ms, max {:>8.2} ms",
            lat.len(),
            median(lat),
            lat.iter().copied().fold(0.0, f64::max)
        ));
    }
    // The slowest deck of the mix, a property of its own: on the full
    // mesh family one capacitor scale makes Lanczos take ~7x the usual
    // matvecs, and requests queued behind it on its worker wait too.
    if let Some((&req, lat)) = by_deck
        .iter()
        .max_by(|a, b| median(a.1).total_cmp(&median(b.1)))
    {
        let share = lat.len() as f64 / answers.len().max(1) as f64;
        report.notes.push(format!(
            "slowest deck: {}, {} replies ({:.2} % of all), latency p50 {:.2} ms",
            w.describe(req),
            lat.len(),
            100.0 * share,
            median(lat)
        ));
    }
    report
        .notes
        .push(format!("daemon counters: {}", counters.to_json().render()));
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, scale: Scale) -> Report {
    let w = Workload::new(seed, scale);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut live = None;
    let mut setup_answers = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (daemon, secs, answers) = set_up(&w);
        setups.push(secs);
        if let Some(old) = live.replace(daemon) {
            old.shutdown();
        }
        setup_answers.extend(answers);
    }
    let daemon = live.expect("at least one set-up");
    let (answers, wall, cpu) = client_window(&daemon, &w, seconds);
    let counters = daemon.shutdown();
    report.set("peak_rss_mb", procfs::peak_rss_mb());

    let checks = Instant::now();
    let served: Vec<Req> = setup_answers
        .iter()
        .chain(&answers)
        .map(|a| a.req)
        .collect();
    let refs = references(&w, &served);
    check_answers(&setup_answers, &refs, &mut report);
    check_answers(&answers, &refs, &mut report);
    report_models(&w, &refs, &mut report);
    report.notes.push(format!(
        "run: {wall:.1} s measured window, {:.1} s reference decks and accuracy checks",
        checks.elapsed().as_secs_f64()
    ));

    let lat: Vec<f64> = answers.iter().map(|a| a.latency_s).collect();
    if lat.is_empty() {
        return report;
    }
    let p95 = tail_percentile(&lat, 95.0);
    report.set("deck_s", median(&lat));
    report.set("cpu_s", cpu / lat.len() as f64);
    report.set("throughput_decks_per_s", lat.len() as f64 / wall);
    report.set("latency_p50_ms", 1e3 * median(&lat));
    report.set(
        "latency_p95_ms",
        1e3 * p95.map_or_else(|| lat.iter().copied().fold(0.0, f64::max), |t| t.value),
    );
    report.set("setup_s", median(&setups));
    report.notes.push(format!(
        "latency tail reported at {} over {} samples",
        p95.map_or("max".to_owned(), |t| format!("p{:.1}", t.pct)),
        lat.len()
    ));
    note_mix(&w, &answers, &counters, &mut report);
    report
}

/// Requests replayed through the traced pipeline in one thread.
fn replay_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 40 * NOVEL_EVERY,
        Scale::Smoke => 6 * NOVEL_EVERY,
    }
}

/// The traced run: client-side request spans and daemon counters over
/// half the window, then a one-thread replay of the stream's first
/// requests through the traced pipeline with warm state, each deck
/// checked against the one-shot deck, alongside an untraced replay for
/// the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, scale: Scale) -> Report {
    let w = Workload::new(seed, scale);
    let mut report = Report::default();
    let (daemon, _, _) = set_up(&w);
    let (answers, _, _) = client_window(&daemon, &w, seconds / 2.0);
    let counters = daemon.shutdown();

    let replay: Vec<(usize, Req)> = w.stream[..replay_len(scale)]
        .iter()
        .copied()
        .enumerate()
        .collect();
    let served: Vec<Req> = answers.iter().map(|a| a.req).collect();
    let refs = references(&w, &[served, w.stream[..replay.len()].to_vec()].concat());
    check_answers(&answers, &refs, &mut report);
    let resolved: Vec<(String, DeckOptions)> = replay
        .iter()
        .map(|&(id, req)| resolve(&w.line(id, req)))
        .collect();
    let session_opts = resolved[0]
        .1
        .reduce_options()
        .expect("serve options are valid");

    let mut session = ReductionSession::new(session_opts.clone());
    let mut untraced = 0.0;
    for (text, opts) in &resolved {
        match run_deck_in(text, opts, &mut session) {
            Ok((out, _)) => untraced += out.wall_s / resolved.len() as f64,
            Err(e) => report.tally.fail(format!("error:{}", e.code())),
        }
    }

    let mut state = TraceState {
        symbolic: Default::default(),
        session: Some(ReductionSession::new(session_opts)),
    };
    let mut tr = Trace::default();
    let mut counts = LayerCounts::default();
    for (&(id, req), (text, opts)) in replay.iter().zip(&resolved) {
        match traced_deck(text, opts, &mut state, &mut tr, &mut counts) {
            Ok(out) => {
                if !judge(Some(&out), &refs[&req], &mut report) {
                    report.tally.fail("traced output differs");
                    report
                        .integrity
                        .push(format!("traced replay of request {id} differs"));
                }
            }
            Err(e) => report.tally.fail(format!("error:{}", e.code())),
        }
    }
    layer_metrics(&mut report, &tr, &counts);
    let traced: f64 = tr.root_walls().iter().sum::<f64>() / resolved.len() as f64;
    report.set("trace.overhead_s", traced - untraced);

    let g = |c: &AtomicU64| c.load(AtomicOrdering::Relaxed) as f64;
    report.set("serve.requests", g(&counters.requests));
    report.set("serve.ok", g(&counters.ok));
    report.set("serve.errors", g(&counters.errors));
    report.set("serve.shed", g(&counters.shed));
    report.set("serve.queue_depth_max", g(&counters.peak_queue_depth));
    let lookups = g(&counters.session_hits) + g(&counters.session_misses);
    if lookups > 0.0 {
        report.set("session.hit_rate", g(&counters.session_hits) / lookups);
    }
    let submits: Vec<f64> = answers.iter().map(|a| a.submit_s).collect();
    if !submits.is_empty() {
        report.set("serve.submit_ms_p50", 1e3 * median(&submits));
    }
    note_mix(&w, &answers, &counters, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps of the `serve_load` capacitor sweep, served or not.
    const SERVE_LOAD_STEPS: usize = 9;

    /// A defect of the program, not of the benchmark: at the daemon's
    /// default 1 GHz / 5 %, the example-1 line and the chain deck (the
    /// same line, collapsed) keep no pole and miss `1.5 × tolerance` at
    /// cap scales 1.21 and 1.24, the last two steps of the `serve_load`
    /// sweep; `rcfit --verify` fails the same decks. `serve_mix` serves
    /// the first [`VARIANTS`] steps only, all of which pass. When the
    /// program is fixed, this test, [`VARIANTS`] and the docs change.
    #[test]
    fn only_line_and_chain_miss_the_accuracy_rule_at_the_top_cap_scales() {
        for fam in decks::serve_families(Scale::Full) {
            for v in 0..SERVE_LOAD_STEPS {
                let deck = fam.variant(v);
                let (_, models) = run_deck(&deck.text, &deck.opts).expect("deck reduces");
                let verdict = accuracy::check_models(&models, deck.opts.f_max, deck.opts.tolerance);
                let expected = matches!(fam.name, "line" | "chain") && v >= VARIANTS;
                assert_eq!(
                    verdict.failure.is_some(),
                    expected,
                    "{} variant {v}: {verdict:?}",
                    fam.name
                );
            }
        }
    }
}
