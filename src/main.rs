//! RCFIT — a SPICE-in, SPICE-out RC network reduction tool built on PACT
//! (the prototype CAD tool of Section 5 of Kerns & Yang, DAC 1996).
//!
//! ```text
//! rcfit INPUT.sp [INPUT2.sp ...] [-o OUTPUT.sp] [--fmax HZ] [--tol FRACTION]
//!       [--sparsify TOL] [--port NODE]... [--threads N]
//!       [--eigen auto|dense|lanczos|lowrank] [--stats] [--components]
//!       [--verify] [--trace] [--log-json PATH] [--strict-pivots]
//!       [--strategy flat|hier] [--block-size N] [--max-depth N]
//!       [--extract] [--collapse-chains] [--chain-tol TOL]
//! ```
//!
//! Several decks may be given at once; they are reduced through one
//! [`pact::ReductionSession`], so same-topology decks reuse the cached
//! symbolic Cholesky analysis instead of re-running fill-reducing
//! ordering and elimination-tree construction per deck.
//!
//! The flow mirrors the paper's Figure 1: parse → extract RC elements and
//! classify ports → sanitize (prune floating internal nodes, drop
//! zero-valued caps) → stamp `G`,`C` → Cholesky congruence → pole
//! analysis via LASO → drop poles above the cutoff → sparsify → unstamp
//! → splice the reduced network back into the deck and write it out.
//!
//! Every failure surfaces as a typed [`PactError`] with node/element
//! attribution — the reduction path never panics on malformed input.
//! `--trace` prints per-phase wall times, counters, and warnings;
//! `--log-json` writes the same telemetry as machine-readable JSON
//! (schema `rcfit-telemetry-v1`, documented in DESIGN.md).

use std::process::ExitCode;
use std::time::Instant;

use pact::{PactError, ReductionSession};
use pact_netlist::parse_value;
use pact_serve::{
    prepare_deck, reduce_prepared, render_reduced, DeckOptions, EigenArg, ReducedDeck, StrategyArg,
};

/// The parsed command line: the CLI-only flags plus the shared-pipeline
/// options. Resolution of defaults (strategy, pivot relief, ordering,
/// dense threshold) lives in [`DeckOptions`], shared verbatim with the
/// `rcfitd` daemon so both front ends produce bit-identical output.
#[derive(Debug)]
struct Args {
    inputs: Vec<String>,
    output: Option<String>,
    stats: bool,
    verify: bool,
    trace: bool,
    log_json: Option<String>,
    deck: DeckOptions,
}

fn usage() -> &'static str {
    "usage: rcfit INPUT.sp [INPUT2.sp ...] [-o OUTPUT.sp] [--fmax HZ] [--tol FRAC] \
     [--sparsify TOL] [--port NODE]... [--threads N] \
     [--eigen auto|dense|lanczos|lowrank] [--stats] [--components] \
     [--verify] [--trace] [--log-json PATH] [--strict-pivots] \
     [--strategy flat|hier] [--block-size N] [--max-depth N] \
     [--extract] [--collapse-chains] [--chain-tol TOL]\n\
     defaults: --fmax 1g --tol 0.05 --sparsify 1e-9 --threads <all cores>\n\
     HZ accepts SPICE suffixes (500meg, 3g, ...); the reduced model is\n\
     bit-identical for every --threads value.\n\
     --eigen picks the pole-analysis backend (default lanczos); several decks\n\
     reduce through one session so same-topology decks reuse the symbolic\n\
     analysis (-o/--log-json then need a single deck).\n\
     --trace prints per-phase timings/counters; --log-json writes them as JSON;\n\
     --strict-pivots fails on quasi-singular pivots instead of perturbing them;\n\
     --strategy picks the reduction algorithm (flat = one-shot PACT, hier =\n\
     nested-dissection blocks of at most --block-size nodes (default 2000)\n\
     with --max-depth recursion levels (default 16));\n\
     --extract reduces each maximal ported RC subnetwork independently (the\n\
     embedded-parasitics flow for mixed decks; a deck with none passes\n\
     through unchanged); --collapse-chains runs the\n\
     degree-2 series-chain collapse pre-pass before reduction, re-segmenting\n\
     long RC chains within --chain-tol relative in-band error (default 1e-6)"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        inputs: Vec::new(),
        output: None,
        stats: false,
        verify: false,
        trace: false,
        log_json: None,
        deck: DeckOptions::default(),
    };
    let mut chain_tol_given = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "-o" | "--output" => args.output = Some(next(a)?),
            "--fmax" => {
                args.deck.f_max = parse_value(&next(a)?).map_err(|e| e.to_string())?;
            }
            "--tol" => {
                args.deck.tolerance = next(a)?
                    .parse()
                    .map_err(|_| "--tol needs a number".to_owned())?;
            }
            "--sparsify" => {
                args.deck.sparsify = next(a)?
                    .parse()
                    .map_err(|_| "--sparsify needs a number".to_owned())?;
            }
            "--port" => args.deck.extra_ports.push(next(a)?),
            "--threads" => {
                let n: usize = next(a)?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--threads needs a positive integer".to_owned());
                }
                args.deck.threads = Some(n);
            }
            "--eigen" => args.deck.eigen = Some(EigenArg::parse(&next(a)?)?),
            "--stats" => args.stats = true,
            "--components" => args.deck.components = true,
            "--verify" => args.verify = true,
            "--trace" => args.trace = true,
            "--log-json" => args.log_json = Some(next(a)?),
            "--strict-pivots" => args.deck.strict_pivots = true,
            "--block-size" => {
                let n: usize = next(a)?
                    .parse()
                    .map_err(|_| "--block-size needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--block-size needs a positive integer".to_owned());
                }
                args.deck.block_size = n;
            }
            "--max-depth" => {
                args.deck.max_depth = next(a)?
                    .parse()
                    .map_err(|_| "--max-depth needs an integer".to_owned())?;
            }
            "--strategy" => args.deck.strategy = Some(StrategyArg::parse(&next(a)?)?),
            "--extract" => args.deck.extract = true,
            "--collapse-chains" => args.deck.collapse_chains = true,
            "--chain-tol" => {
                let tol: f64 = next(a)?
                    .parse()
                    .map_err(|_| "--chain-tol needs a number".to_owned())?;
                if !tol.is_finite() || tol <= 0.0 {
                    return Err("--chain-tol needs a positive finite number".to_owned());
                }
                args.deck.chain_tol = tol;
                chain_tol_given = true;
            }
            "-h" | "--help" => return Err(usage().to_owned()),
            other if !other.starts_with('-') => {
                args.inputs.push(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.inputs.is_empty() {
        return Err(usage().to_owned());
    }
    if chain_tol_given && !args.deck.collapse_chains {
        return Err("--chain-tol requires --collapse-chains".to_owned());
    }
    if args.inputs.len() > 1 {
        if args.output.is_some() {
            return Err("-o/--output needs a single input deck".to_owned());
        }
        if args.log_json.is_some() {
            return Err("--log-json needs a single input deck".to_owned());
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), PactError> {
    let mut session = ReductionSession::new(args.deck.reduce_options()?);
    let batch = args.inputs.len() > 1;
    for (i, input) in args.inputs.iter().enumerate() {
        if batch {
            eprintln!(
                "rcfit: reducing {input} (deck {} of {})",
                i + 1,
                args.inputs.len()
            );
        }
        run_deck(args, input, &mut session)?;
    }
    if batch {
        eprintln!(
            "rcfit: batch done: {} deck(s), {} cached symbolic analysis pattern(s)",
            args.inputs.len(),
            session.cached_patterns()
        );
    }
    Ok(())
}

fn run_deck(args: &Args, input: &str, session: &mut ReductionSession) -> Result<(), PactError> {
    let text = std::fs::read_to_string(input).map_err(|e| PactError::io(input, &e))?;
    // The front half (parse → flatten → extract → sanitize) and the
    // reduce/render back half are the shared pact-serve pipeline — the
    // CLI only adds progress reporting around it.
    let opts = &args.deck;
    let prep = prepare_deck(&text, opts)?;
    eprintln!(
        "rcfit: extracted RC network: {} ports, {} internal nodes, {} R, {} C",
        prep.raw_ports, prep.raw_internal, prep.raw_resistors, prep.raw_capacitors
    );
    for w in &prep.sanitize_warnings {
        eprintln!("rcfit: warning: {w}");
    }
    if opts.collapse_chains {
        eprintln!(
            "rcfit: chain collapse: {} chain(s) collapsed, {} internal node(s) eliminated",
            prep.telemetry.counters.chains_collapsed, prep.telemetry.counters.nodes_eliminated
        );
    }

    let reduce_start = Instant::now();
    let red = reduce_prepared(&prep, session, opts)?;
    let reduce_seconds = reduce_start.elapsed().as_secs_f64();
    let mut tel = prep.telemetry.clone();
    tel.absorb(&red.telemetry());
    match &red {
        ReducedDeck::Components {
            reduction: c,
            extract_subnets,
        } => {
            if opts.extract {
                eprintln!(
                    "rcfit: {} embedded RC subnetwork(s) reduced, {} floating island(s) dropped, {} pole(s) kept",
                    extract_subnets,
                    c.floating_dropped,
                    c.num_poles()
                );
            } else {
                eprintln!(
                    "rcfit: {} component(s) reduced, {} floating island(s) dropped, {} pole(s) kept",
                    c.reductions.len(),
                    c.floating_dropped,
                    c.num_poles()
                );
            }
        }
        ReducedDeck::Whole(r) => {
            let cutoff = session.options().cutoff;
            eprintln!(
                "rcfit: kept {} pole(s) below the {:.3e} Hz cutoff ({} internal nodes eliminated)",
                r.model.num_poles(),
                cutoff.cutoff_frequency(),
                prep.network.num_internal() - r.model.num_poles()
            );
            if args.stats {
                let c = &r.telemetry.counters;
                eprintln!(
                    "rcfit: reduction {reduce_seconds:.3} s; Cholesky |L| = {} nnz ({:.1} MB); modelled peak {:.1} MB",
                    c.chol_nnz,
                    c.chol_memory_bytes as f64 / 1e6,
                    c.modelled_memory_bytes as f64 / 1e6
                );
                if c.lanczos_matvecs > 0 {
                    eprintln!(
                        "rcfit: LASO: {} matvecs, {} iterations, {} restarts",
                        c.lanczos_matvecs, c.lanczos_iterations, c.lanczos_restarts
                    );
                }
                match r.model.passivity_margins() {
                    Ok((g, c)) => {
                        eprintln!("rcfit: passivity margins: λmin(G'')={g:.3e}, λmin(C'')={c:.3e}");
                    }
                    Err(e) => eprintln!("rcfit: passivity check failed: {e}"),
                }
            }
            if args.verify {
                let parts = pact::Partitions::split(&prep.network.stamp());
                let ctx = pact_sparse::ParCtx::new(opts.threads);
                let report = tel.time("verify_sweep", || {
                    pact::verify_reduction_with(&parts, &r.model, &cutoff, 25, ctx)
                });
                match report {
                    Ok(report) => {
                        tel.counters.factorizations += report.sweep_counts.factorizations;
                        tel.counters.refactorizations += report.sweep_counts.refactorizations;
                        eprintln!(
                            "rcfit: verify: worst in-band error {:.3} % (tolerance {:.1} %), overall {:.3} %: {}",
                            report.worst_in_band * 100.0,
                            report.tolerance * 100.0,
                            report.worst_overall * 100.0,
                            if report.passes() { "PASS" } else { "FAIL" }
                        );
                        eprintln!(
                            "rcfit: verify: exact sweep used {} factorization(s) + {} refactorization(s)",
                            report.sweep_counts.factorizations, report.sweep_counts.refactorizations
                        );
                    }
                    Err(e) => eprintln!("rcfit: verify failed to run: {e}"),
                }
            }
        }
    }

    let (rendered, element_count) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
    eprintln!("rcfit: reduced network realized with {element_count} elements");
    tel.time("write", || match &args.output {
        Some(path) => std::fs::write(path, &rendered).map_err(|e| PactError::io(path, &e)),
        None => {
            print!("{rendered}");
            Ok(())
        }
    })?;

    if args.trace {
        eprint!("{}", tel.render_trace());
    }
    if let Some(path) = &args.log_json {
        let mut doc = tel.to_json().render();
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| PactError::io(path, &e))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rcfit: error [{}]: {e}", e.code());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact::EigenSelect;
    use pact_serve::{DEFAULT_BLOCK_SIZE, DEFAULT_CHAIN_TOL, DEFAULT_MAX_DEPTH};

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    fn eigen_select(args: &Args) -> EigenSelect {
        args.deck.eigen_select()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(&argv(&[
            "in.sp",
            "-o",
            "out.sp",
            "--fmax",
            "3g",
            "--tol",
            "0.1",
            "--sparsify",
            "1e-6",
            "--port",
            "nodeA",
            "--port",
            "nodeB",
            "--stats",
            "--components",
            "--verify",
            "--trace",
            "--log-json",
            "t.json",
            "--strict-pivots",
        ]))
        .unwrap();
        assert_eq!(a.inputs, vec!["in.sp"]);
        assert_eq!(a.output.as_deref(), Some("out.sp"));
        assert_eq!(a.deck.f_max, 3e9);
        assert_eq!(a.deck.tolerance, 0.1);
        assert_eq!(a.deck.sparsify, 1e-6);
        assert_eq!(a.deck.extra_ports, vec!["nodeA", "nodeB"]);
        assert!(a.stats && a.deck.components && a.verify);
        assert!(a.trace && a.deck.strict_pivots);
        assert_eq!(a.log_json.as_deref(), Some("t.json"));
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse_args(&argv(&["deck.sp"])).unwrap();
        assert_eq!(a.deck.f_max, 1e9);
        assert_eq!(a.deck.tolerance, 0.05);
        assert!(matches!(eigen_select(&a), EigenSelect::Lanczos(_)));
        assert!(a.output.is_none());
        assert!(!a.trace && !a.deck.strict_pivots);
        assert!(a.log_json.is_none());
    }

    #[test]
    fn missing_input_is_usage_error() {
        assert!(parse_args(&argv(&["--stats"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn unknown_flag_is_error() {
        let e = parse_args(&argv(&["deck.sp", "--frobnicate"])).unwrap_err();
        assert!(e.contains("unknown argument"));
        // Removed flags are rejected, not silently ignored.
        for removed in [
            &["--points", "1g"][..],
            &["--chol-kernel", "scalar"][..],
            &["--dense"][..],
            &["--hier"][..],
        ] {
            let mut parts = vec!["deck.sp"];
            parts.extend_from_slice(removed);
            let e = parse_args(&argv(&parts)).unwrap_err();
            assert!(
                e.starts_with(&format!("unknown argument `{}`", removed[0])),
                "{e}"
            );
        }
    }

    #[test]
    fn flag_missing_value_is_error() {
        assert!(parse_args(&argv(&["deck.sp", "--fmax"])).is_err());
        assert!(parse_args(&argv(&["deck.sp", "--tol", "abc"])).is_err());
        assert!(parse_args(&argv(&["deck.sp", "--log-json"])).is_err());
    }

    #[test]
    fn spice_units_accepted_for_fmax() {
        let a = parse_args(&argv(&["x.sp", "--fmax", "500meg"])).unwrap();
        assert_eq!(a.deck.f_max, 5e8);
    }

    #[test]
    fn threads_flag_parses_and_validates() {
        let a = parse_args(&argv(&["x.sp", "--threads", "4"])).unwrap();
        assert_eq!(a.deck.threads, Some(4));
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert_eq!(d.deck.threads, None);
        assert!(parse_args(&argv(&["x.sp", "--threads", "0"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--threads", "many"])).is_err());
    }

    #[test]
    fn hier_flags_parse_and_validate() {
        let a = parse_args(&argv(&[
            "x.sp",
            "--strategy",
            "hier",
            "--block-size",
            "500",
            "--max-depth",
            "8",
        ]))
        .unwrap();
        assert_eq!(a.deck.strategy, Some(StrategyArg::Hier));
        assert_eq!(a.deck.block_size, 500);
        assert_eq!(a.deck.max_depth, 8);
        assert!(matches!(
            a.deck.reduce_strategy(),
            pact::ReduceStrategy::Hierarchical {
                max_block: 500,
                max_depth: 8
            }
        ));
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert_eq!(d.deck.strategy, None);
        assert_eq!(d.deck.block_size, DEFAULT_BLOCK_SIZE);
        assert_eq!(d.deck.max_depth, DEFAULT_MAX_DEPTH);
        assert!(parse_args(&argv(&["x.sp", "--block-size", "0"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--block-size", "lots"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--max-depth"])).is_err());
    }

    #[test]
    fn strategy_flag_parses_and_validates() {
        let a = parse_args(&argv(&["x.sp", "--strategy", "hier"])).unwrap();
        assert_eq!(a.deck.strategy, Some(StrategyArg::Hier));
        let opts = a.deck.reduce_options().unwrap();
        assert!(matches!(
            opts.strategy,
            pact::ReduceStrategy::Hierarchical { .. }
        ));

        let b = parse_args(&argv(&["x.sp", "--strategy", "flat"])).unwrap();
        let opts = b.deck.reduce_options().unwrap();
        assert!(matches!(opts.strategy, pact::ReduceStrategy::Flat));

        let e = parse_args(&argv(&["x.sp", "--strategy", "magic"])).unwrap_err();
        assert!(e.contains("flat or hier"), "{e}");
    }

    #[test]
    fn extract_and_collapse_flags_parse_and_validate() {
        let a = parse_args(&argv(&[
            "x.sp",
            "--extract",
            "--collapse-chains",
            "--chain-tol",
            "1e-4",
        ]))
        .unwrap();
        assert!(a.deck.extract && a.deck.collapse_chains);
        assert_eq!(a.deck.chain_tol, 1e-4);
        let o = a.deck;
        assert!(o.extract && o.collapse_chains);
        assert_eq!(o.chain_tol, 1e-4);

        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert!(!d.deck.extract && !d.deck.collapse_chains);
        assert_eq!(d.deck.chain_tol, DEFAULT_CHAIN_TOL);

        let e = parse_args(&argv(&["x.sp", "--chain-tol", "1e-4"])).unwrap_err();
        assert!(e.contains("--collapse-chains"));
        assert!(parse_args(&argv(&["x.sp", "--collapse-chains", "--chain-tol", "0"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--collapse-chains", "--chain-tol", "much"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--chain-tol"])).is_err());
    }

    #[test]
    fn eigen_flag_parses_and_resolves() {
        let a = parse_args(&argv(&["x.sp", "--eigen", "auto"])).unwrap();
        assert_eq!(a.deck.eigen, Some(EigenArg::Auto));
        assert!(matches!(eigen_select(&a), EigenSelect::Auto));
        let a = parse_args(&argv(&["x.sp", "--eigen", "dense"])).unwrap();
        assert!(matches!(eigen_select(&a), EigenSelect::Dense));
        let a = parse_args(&argv(&["x.sp", "--eigen", "lanczos"])).unwrap();
        assert!(matches!(eigen_select(&a), EigenSelect::Lanczos(_)));
        let a = parse_args(&argv(&["x.sp", "--eigen", "lowrank"])).unwrap();
        assert!(matches!(eigen_select(&a), EigenSelect::LowRank));
        assert!(parse_args(&argv(&["x.sp", "--eigen", "magic"])).is_err());
        assert!(parse_args(&argv(&["x.sp", "--eigen"])).is_err());
    }

    #[test]
    fn dense_flag_keeps_lowrank_semantics_and_eigen_wins() {
        // The low-rank path the old `--dense` alias named is reached
        // through `--eigen lowrank`; the alias itself is now rejected.
        let a = parse_args(&argv(&["x.sp", "--eigen", "lowrank"])).unwrap();
        assert!(matches!(eigen_select(&a), EigenSelect::LowRank));
        // Default (no flag) stays Lanczos.
        let d = parse_args(&argv(&["x.sp"])).unwrap();
        assert!(matches!(eigen_select(&d), EigenSelect::Lanczos(_)));
        // An explicit --eigen picks the backend.
        let b = parse_args(&argv(&["x.sp", "--eigen", "dense"])).unwrap();
        assert!(matches!(eigen_select(&b), EigenSelect::Dense));
        for parts in [
            &["x.sp", "--dense"][..],
            &["x.sp", "--dense", "--eigen", "dense"][..],
        ] {
            let e = parse_args(&argv(parts)).unwrap_err();
            assert!(e.starts_with("unknown argument `--dense`"), "{e}");
        }
    }

    #[test]
    fn multiple_decks_parse_but_reject_single_output_flags() {
        let a = parse_args(&argv(&["a.sp", "b.sp", "c.sp"])).unwrap();
        assert_eq!(a.inputs, vec!["a.sp", "b.sp", "c.sp"]);
        let e = parse_args(&argv(&["a.sp", "b.sp", "-o", "out.sp"])).unwrap_err();
        assert!(e.contains("single input deck"));
        let e = parse_args(&argv(&["a.sp", "b.sp", "--log-json", "t.json"])).unwrap_err();
        assert!(e.contains("single input deck"));
    }

    #[test]
    fn run_reports_typed_error_for_missing_input() {
        let args = parse_args(&argv(&["/nonexistent/deck.sp"])).unwrap();
        match run(&args) {
            Err(e) => assert_eq!(e.code(), "io"),
            Ok(()) => panic!("expected an I/O error"),
        }
    }
}
