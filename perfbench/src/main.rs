//! The repository benchmark: deck-to-deck time, CPU, memory, accuracy
//! and `rcfitd` throughput, driven from outside through the public entry
//! points, with a separate traced run for per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table4_flat|mesh20k_hier|serve_mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it are the provenance and a human-readable report. See
//! `perfbench/README.md` for the workloads and metrics.

mod accuracy;
mod decks;
mod oneshot;
mod pipeline;
mod procfs;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use decks::{Deck, Scale};
use oneshot::FirstDeck;
use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table4_flat", "mesh20k_hier", "serve_mix"];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Reduce one deck and print its wall seconds and output hash: the
    /// set-up child of a one-shot run.
    first_deck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut first_deck = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--first-deck" => first_deck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        first_deck,
    })
}

/// Threads inside one reduction and closed-loop clients per workload.
fn concurrency(workload: &str) -> (usize, usize) {
    match workload {
        "mesh20k_hier" => (2, 1),
        "serve_mix" => (1, serve::CLIENTS),
        _ => (1, 1),
    }
}

/// The deck of a one-shot workload.
fn one_shot_deck(args: &Args, scale: Scale) -> Deck {
    if args.workload == "table4_flat" {
        decks::table4_flat(args.seed, scale)
    } else {
        decks::mesh20k_hier(args.seed, scale)
    }
}

/// Runs the workload; `first` reduces the first deck of a fresh process
/// for the one-shot workloads' `setup_s`.
fn run(args: &Args, scale: Scale, first: &dyn Fn(&Deck) -> FirstDeck) -> Report {
    let s = args.seconds;
    match (args.workload.as_str(), args.trace) {
        ("serve_mix", false) => serve::run(args.seed, s, scale),
        ("serve_mix", true) => serve::run_traced(args.seed, s, scale),
        (_, true) => oneshot::run_traced(&one_shot_deck(args, scale), s),
        (_, false) => {
            let deck = one_shot_deck(args, scale);
            oneshot::run(&deck, s, &|| first(&deck))
        }
    }
}

/// The first deck of a fresh process: this program re-run with
/// `--first-deck`, waited for.
fn first_deck_in_child(args: &Args) -> FirstDeck {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--first-deck",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text
        .split_once(' ')
        .and_then(|(wall, hash)| Some((wall.trim().parse().ok()?, hash.trim().parse().ok()?)));
    match parsed {
        Some(done) if out.status.success() => Ok(done),
        _ => Err(format!("child {}: {}", out.status, text.trim())),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.first_deck {
        if args.workload == "serve_mix" {
            eprintln!("perfbench: --first-deck applies to the one-shot workloads");
            return ExitCode::from(2);
        }
        return match oneshot::first_deck(&one_shot_deck(&args, Scale::Full)) {
            Ok((wall, hash)) => {
                println!("{wall} {hash}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let (threads, clients) = concurrency(&args.workload);
    println!(
        "# provenance {{\"git_rev\": \"{}\", \"nproc\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"threads\": {threads}, \"clients\": {clients}}}",
        procfs::git_rev(Path::new(".")),
        procfs::nproc(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let report = run(&args, Scale::Full, &|_| first_deck_in_child(&args));
    let registry: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert!(registry.iter().all(|(n, _)| stats::valid_metric_name(n)));
    let stray = report.unregistered(registry);
    assert!(
        stray.is_empty(),
        "metrics missing from the registry: {stray:?}"
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# decks attempted {}, failed {} (failed_frac {:.4}){}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed_frac(),
        report
            .tally
            .reasons
            .iter()
            .map(|(r, n)| format!("; {r}: {n}"))
            .collect::<String>()
    );
    for problem in &report.integrity {
        println!("# integrity: {problem}");
    }
    for (name, unit) in registry {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        println!("# {name:<28} {value:>16.6} {unit}");
    }
    println!("{}", report.result_line(registry));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact::json::Value;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args("--workload serve_mix --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.first_deck),
            (7, 3.0, true, false)
        );
        assert!(
            args("--workload table4_flat --first-deck")
                .unwrap()
                .first_deck
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload serve_mix --trace 2").is_err());
        assert!(args("--workload serve_mix --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }

    fn smoke(workload: &str, trace: bool) -> Report {
        let a = Args {
            workload: workload.to_owned(),
            seed: 11,
            seconds: 0.5,
            trace,
            first_deck: false,
        };
        // The set-up decks run in this process: the test harness cannot
        // re-run itself as the benchmark.
        run(&a, Scale::Smoke, &oneshot::first_deck)
    }

    fn assert_complete(r: &Report, registry: &[(&'static str, &'static str)], workload: &str) {
        assert!(
            r.tally.attempted > 0 && r.tally.failed == 0 && r.integrity.is_empty(),
            "{workload}: {:?} {:?}",
            r.tally,
            r.integrity
        );
        assert!(r.unregistered(registry).is_empty());
        let line = Value::parse(&r.result_line(registry)).expect("result parses");
        let metrics = line.get("metrics").expect("metrics");
        for (name, _) in registry {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{workload}: {name} missing");
        }
    }

    #[test]
    fn smoke_runs_of_every_workload_pass() {
        for w in WORKLOADS {
            let r = smoke(w, false);
            assert_complete(&r, &END_TO_END, w);
            for (name, _) in END_TO_END {
                let v = r.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{w}: {name} = {v:?} must be positive"
                );
            }
        }
    }

    #[test]
    fn traced_smoke_runs_of_every_workload_pass() {
        for w in WORKLOADS {
            let r = smoke(w, true);
            assert_complete(&r, &PER_LAYER, w);
            let get = |name: &str| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |m| m.1)
            };
            assert!(get("trace.wall_s") > 0.0, "{w}");
            assert!(get("netlist.parse_s") > 0.0, "{w}");
            assert!(get("realize.elements") > 0.0, "{w}");
        }
    }
}
