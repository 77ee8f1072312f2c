//! The deck path, driven through the program's public entry points.
//!
//! [`run_deck`] is the untraced path every end-to-end metric times: the
//! same `prepare_deck` → `reduce_prepared` → `render_reduced` calls the
//! `rcfit` CLI and the `rcfitd` workers make. [`traced_deck`] performs
//! the same work as a sequence of calls into each layer's public
//! functions with a span around each, so the per-layer numbers come
//! from the benchmark's own files; its output must be byte-identical to
//! [`run_deck`]'s or the trace measured a different program.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pact::hier::PartitionTree;
use pact::{
    collapse_chains, sanitize_network, EigenBackend, EigenSelect, LanczosBackend, PactError,
    Partitions, ReduceOptions, ReduceStrategy, ReducedModel, ReductionSession, Telemetry,
    Transform1,
};
use pact_netlist::{extract_rc, parse, splice_reduced, RcNetwork};
use pact_serve::{prepare_deck, reduce_prepared, render_reduced, DeckOptions, PreparedDeck};
use pact_sparse::{CsrMat, ParCtx, PivotPolicy, SymbolicCholesky};

use crate::procfs;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{Trace, ROOT};

/// Element-name prefix of the realized reduced network (the CLI's and
/// the daemon's).
pub const PREFIX: &str = "rcfit";

/// What a reduced deck produced.
#[derive(Clone, Debug)]
pub struct DeckOutput {
    /// Emitted deck text.
    pub text: String,
    /// Realized reduced-network elements.
    pub elements: usize,
    /// Retained poles.
    pub poles: usize,
    /// Wall seconds from deck text to emitted deck text.
    pub wall_s: f64,
    /// Process CPU seconds over the same span.
    pub cpu_s: f64,
}

/// The reduced models of one deck with the networks they reduce, for
/// accuracy checks made outside every timed region.
pub struct Models {
    /// `(network, model)` per reduced network (one, or one per RC
    /// subnetwork under extraction).
    pub parts: Vec<(RcNetwork, ReducedModel)>,
}

/// Reduces one deck through the public pipeline with a fresh session
/// (as one `rcfit` run pays), returning its output and models.
///
/// # Errors
///
/// Any typed [`PactError`] of the pipeline.
pub fn run_deck(text: &str, opts: &DeckOptions) -> Result<(DeckOutput, Models), PactError> {
    run_deck_with(text, opts, None)
}

/// [`run_deck`] inside a caller-owned (possibly warm) session.
///
/// # Errors
///
/// Any typed [`PactError`] of the pipeline.
pub fn run_deck_in(
    text: &str,
    opts: &DeckOptions,
    session: &mut ReductionSession,
) -> Result<(DeckOutput, Models), PactError> {
    run_deck_with(text, opts, Some(session))
}

/// The timed span covers session creation (when `session` is `None`)
/// through the rendered text; collecting the models for the accuracy
/// checks and dropping the pipeline's state come after it.
fn run_deck_with(
    text: &str,
    opts: &DeckOptions,
    session: Option<&mut ReductionSession>,
) -> Result<(DeckOutput, Models), PactError> {
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    let mut fresh;
    let session = match session {
        Some(s) => s,
        None => {
            fresh = ReductionSession::new(opts.reduce_options()?);
            &mut fresh
        }
    };
    let prep = prepare_deck(text, opts)?;
    let red = reduce_prepared(&prep, session, opts)?;
    let mut tel = prep.telemetry.clone();
    tel.absorb(&red.telemetry());
    let (out, elements) = render_reduced(&prep, &red, PREFIX, opts.sparsify, &mut tel);
    let output = DeckOutput {
        text: out,
        elements,
        poles: red.num_poles(),
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_seconds() - cpu0,
    };
    Ok((output, models_of(&prep.network, &red)))
}

fn models_of(net: &RcNetwork, red: &pact_serve::ReducedDeck) -> Models {
    let parts = match red {
        pact_serve::ReducedDeck::Whole(r) => vec![(net.clone(), r.model.clone())],
        pact_serve::ReducedDeck::Components { reduction, .. } => net
            .connected_components()
            .into_iter()
            .filter(|c| c.num_ports > 0)
            .zip(&reduction.reductions)
            .map(|(c, r)| (c, r.model.clone()))
            .collect(),
    };
    Models { parts }
}

/// Symbolic analyses kept across traced decks, as a warm session keeps
/// them: keyed by pattern fingerprint, verified exactly before reuse.
#[derive(Default)]
pub struct SymbolicCache {
    entries: BTreeMap<u64, Vec<Arc<SymbolicCholesky>>>,
}

impl SymbolicCache {
    fn lookup(&self, d: &CsrMat) -> Option<Arc<SymbolicCholesky>> {
        self.entries
            .get(&d.pattern_key())?
            .iter()
            .find(|s| s.matches(d))
            .cloned()
    }

    fn insert(&mut self, d: &CsrMat, sym: Arc<SymbolicCholesky>) {
        self.entries.entry(d.pattern_key()).or_default().push(sym);
    }
}

/// Warm state carried between traced decks.
pub struct TraceState {
    /// Symbolic analyses for the decomposed flat path.
    pub symbolic: SymbolicCache,
    /// Session for the reductions the trace does not decompose (hier and
    /// per-subnetwork extraction); `None` makes each deck use a fresh one.
    pub session: Option<ReductionSession>,
}

impl TraceState {
    /// State that starts cold for every deck (one-shot workloads).
    pub fn cold() -> TraceState {
        TraceState {
            symbolic: SymbolicCache::default(),
            session: None,
        }
    }
}

/// Layer counters of traced decks, summed over decks.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Decks traced.
    pub decks: u64,
    /// Input bytes.
    pub input_bytes: u64,
    /// Emitted bytes.
    pub output_bytes: u64,
    /// Nodes removed by chain collapse.
    pub nodes_eliminated: u64,
    /// RC subnetworks reduced under extraction.
    pub subnets: u64,
    /// Nonzeros of the Cholesky factor of `D`.
    pub chol_nnz: u64,
    /// Supernodal panel flops.
    pub panel_flops: u64,
    /// Supernodes.
    pub supernodes: u64,
    /// Port count times factor nonzeros: the moment solves' work.
    pub solve_rhs_nnz: u64,
    /// Lanczos operator products.
    pub matvecs: u64,
    /// Lanczos iterations.
    pub iterations: u64,
    /// Lanczos reorthogonalizations.
    pub reorthogonalizations: u64,
    /// Realized elements.
    pub elements: u64,
    /// Hierarchical leaf blocks.
    pub hier_blocks: u64,
    /// Poles retained across hierarchical leaves.
    pub hier_leaf_poles: u64,
    /// Leaf poles trimmed by the error budget.
    pub hier_leaf_trimmed: u64,
    /// Leaves that reused a symbolic analysis.
    pub hier_leaf_reuses: u64,
    /// Fresh symbolic analyses.
    pub factorizations: u64,
    /// Numeric-only refactorizations.
    pub refactorizations: u64,
    /// Decks whose reduction needed no fresh symbolic analysis.
    pub warm_decks: u64,
    /// CPU seconds spent in reduction calls.
    pub reduce_cpu_s: f64,
    /// Wall seconds spent in reduction calls.
    pub reduce_wall_s: f64,
}

/// Reduces one deck as a sequence of spanned calls into each layer's
/// public functions: parse/flatten, extract, sanitize, chain collapse,
/// then (flat strategy) stamp/split, symbolic analysis, numeric factor,
/// moments, eigen, projection — or, where the layer internals are not
/// public, the whole `reduce_prepared` — then realization and emission.
///
/// # Errors
///
/// Any typed [`PactError`] of the pipeline.
pub fn traced_deck(
    text: &str,
    opts: &DeckOptions,
    state: &mut TraceState,
    tr: &mut Trace,
    counts: &mut LayerCounts,
) -> Result<String, PactError> {
    let root = tr.begin(ROOT);
    let result = traced_body(text, opts, state, tr, counts);
    tr.end(root);
    result
}

fn traced_body(
    text: &str,
    opts: &DeckOptions,
    state: &mut TraceState,
    tr: &mut Trace,
    counts: &mut LayerCounts,
) -> Result<String, PactError> {
    let ropts = opts.reduce_options()?;
    let deck = tr.span("netlist.parse_s", || parse(text).map(|d| d.flatten()))??;
    let port_refs: Vec<&str> = opts.extra_ports.iter().map(String::as_str).collect();
    let ex = tr.span("netlist.extract_s", || extract_rc(&deck, &port_refs))?;
    let sanitized = tr.span("sanitize.s", || sanitize_network(&ex.network))?;
    let network = match opts.collapse_spec()? {
        Some(spec) => {
            let cc = tr.span("extract.collapse_s", || {
                collapse_chains(&sanitized.network, &spec)
            });
            counts.nodes_eliminated += cc.nodes_eliminated;
            cc.network
        }
        None => sanitized.network,
    };
    let prep = PreparedDeck {
        raw_ports: ex.network.num_ports,
        raw_internal: ex.network.num_internal(),
        raw_resistors: ex.network.resistors.len(),
        raw_capacitors: ex.network.capacitors.len(),
        deck,
        network,
        sanitize_warnings: sanitized.warnings,
        telemetry: Telemetry::new(),
    };
    let cpu0 = procfs::cpu_seconds();
    let wall0 = Instant::now();
    let flat = matches!(ropts.strategy, ReduceStrategy::Flat) && !opts.components && !opts.extract;
    let elements = if flat {
        let model = flat_decomposed(&prep.network, &ropts, state, tr, counts)?;
        counts.reduce_cpu_s += procfs::cpu_seconds() - cpu0;
        counts.reduce_wall_s += wall0.elapsed().as_secs_f64();
        tr.span("realize.s", || {
            model.to_netlist_elements(PREFIX, opts.sparsify)
        })
    } else {
        let hier = matches!(ropts.strategy, ReduceStrategy::Hierarchical { .. });
        if hier {
            tr.span("hier.partition_tree_s", || {
                PartitionTree::build(&prep.network, opts.block_size, opts.max_depth)
            });
        }
        let mut fresh;
        let session = match state.session.as_mut() {
            Some(s) => s,
            None => {
                fresh = ReductionSession::new(ropts.clone());
                &mut fresh
            }
        };
        let name = if hier {
            "hier.reduce_s"
        } else {
            "extract.reduce_s"
        };
        let red = tr.span(name, || reduce_prepared(&prep, session, opts))?;
        counts.reduce_cpu_s += procfs::cpu_seconds() - cpu0;
        counts.reduce_wall_s += wall0.elapsed().as_secs_f64();
        let c = red.telemetry().counters;
        counts.subnets += c.extract_subnets;
        counts.chol_nnz += c.chol_nnz;
        counts.panel_flops += c.panel_flops;
        counts.supernodes += c.supernode_count;
        counts.matvecs += c.lanczos_matvecs;
        counts.iterations += c.lanczos_iterations;
        counts.reorthogonalizations += c.lanczos_reorthogonalizations;
        counts.hier_blocks += c.hier_blocks;
        counts.hier_leaf_poles += c.hier_leaf_poles_retained;
        counts.hier_leaf_trimmed += c.hier_leaf_trimmed_poles;
        counts.hier_leaf_reuses += c.hier_leaf_pattern_reuses;
        counts.factorizations += c.factorizations;
        counts.refactorizations += c.refactorizations;
        if c.factorizations == 0 && c.refactorizations > 0 {
            counts.warm_decks += 1;
        }
        tr.span("realize.s", || {
            red.to_netlist_elements(PREFIX, opts.sparsify)
        })
    };
    counts.elements += elements.len() as u64;
    let out = tr.span("netlist.emit_s", || {
        splice_reduced(&prep.deck, elements).to_string()
    });
    counts.decks += 1;
    counts.input_bytes += text.len() as u64;
    counts.output_bytes += out.len() as u64;
    Ok(out)
}

/// The flat reduction as the session performs it, one public call per
/// span: stamp + partition, (cached) symbolic analysis, numeric factor,
/// port-block moments, Lanczos pole analysis, Ritz projection.
fn flat_decomposed(
    net: &RcNetwork,
    ropts: &ReduceOptions,
    state: &mut TraceState,
    tr: &mut Trace,
    counts: &mut LayerCounts,
) -> Result<ReducedModel, PactError> {
    let EigenSelect::Lanczos(config) = &ropts.eigen_backend else {
        unreachable!("benchmark decks use the default Lanczos backend");
    };
    let ctx = ParCtx::new(ropts.threads);
    let parts = tr.span("partition.split_s", || Partitions::split(&net.stamp()));
    let sym = match state.symbolic.lookup(&parts.d) {
        Some(sym) => {
            counts.refactorizations += 1;
            counts.warm_decks += 1;
            sym
        }
        None => {
            let sym = tr.span("factor.analyze_s", || {
                SymbolicCholesky::analyze_with_kernel(
                    &parts.d,
                    ropts.ordering,
                    ropts.chol_kernel.resolved(),
                )
            });
            let sym = Arc::new(sym.map_err(|e| PactError::from_reduce(e.into(), net))?);
            state.symbolic.insert(&parts.d, Arc::clone(&sym));
            counts.factorizations += 1;
            sym
        }
    };
    let policy = match ropts.pivot_relief {
        Some(rel_threshold) => PivotPolicy::Perturb { rel_threshold },
        None => PivotPolicy::Error,
    };
    let (chol, _diag) = tr
        .span("factor.numeric_s", || sym.refactor(&parts.d, policy))
        .map_err(|e| PactError::from_reduce(e.into(), net))?;
    counts.chol_nnz += chol.l_nnz() as u64;
    counts.panel_flops += chol.panel_flops();
    counts.supernodes += chol.supernode_count() as u64;
    counts.solve_rhs_nnz += (parts.m * chol.l_nnz()) as u64;
    let t1 = tr.span("moments.s", || Transform1::with_factor(&parts, chol, &ctx));
    let backend = LanczosBackend {
        config: config.clone(),
    };
    let sol = tr
        .span("eigen.s", || {
            backend.poles(&t1, &parts, ropts.cutoff.lambda_c(), &ctx)
        })
        .expect("the Lanczos backend always applies")
        .map_err(|e| PactError::from_reduce(e, net))?;
    if let Some(ls) = &sol.lanczos {
        counts.matvecs += ls.matvecs as u64;
        counts.iterations += ls.iterations as u64;
        counts.reorthogonalizations += ls.orthogonalizations as u64;
    }
    let r2 = tr.span("project.s", || t1.r2_rows_ctx(&parts, &sol.vectors, &ctx));
    Ok(ReducedModel {
        a1: t1.a1.clone(),
        b1: t1.b1.clone(),
        r2,
        lambdas: sol.lambdas,
        port_names: net.node_names[..net.num_ports].to_vec(),
    })
}

/// Per-deck layer metrics from a trace and its counters.
pub fn layer_metrics(report: &mut Report, tr: &Trace, counts: &LayerCounts) {
    let decks = counts.decks.max(1) as f64;
    for (name, secs) in tr.self_times() {
        let metric = if name == ROOT { "trace.other_s" } else { name };
        report.set(metric, secs / decks);
    }
    let walls = tr.root_walls();
    if !walls.is_empty() {
        report.set("trace.wall_s", median(&walls));
    }
    let per = |v: u64| v as f64 / decks;
    report.set("netlist.input_bytes", per(counts.input_bytes));
    report.set("netlist.output_bytes", per(counts.output_bytes));
    report.set("extract.nodes_eliminated", per(counts.nodes_eliminated));
    report.set("extract.subnets", per(counts.subnets));
    report.set("factor.chol_nnz", per(counts.chol_nnz));
    report.set("factor.panel_flops", per(counts.panel_flops));
    report.set("factor.supernodes", per(counts.supernodes));
    report.set("moments.solve_rhs_nnz", per(counts.solve_rhs_nnz));
    report.set("eigen.matvecs", per(counts.matvecs));
    report.set("eigen.iterations", per(counts.iterations));
    report.set(
        "eigen.reorthogonalizations",
        per(counts.reorthogonalizations),
    );
    report.set("realize.elements", per(counts.elements));
    report.set("hier.blocks", per(counts.hier_blocks));
    report.set("hier.leaf_poles_retained", per(counts.hier_leaf_poles));
    report.set("hier.leaf_trimmed_poles", per(counts.hier_leaf_trimmed));
    report.set("hier.leaf_pattern_reuses", per(counts.hier_leaf_reuses));
    report.set("session.factorizations", per(counts.factorizations));
    report.set("session.refactorizations", per(counts.refactorizations));
    report.set("session.hit_rate", per(counts.warm_decks));
    if counts.reduce_wall_s > 0.0 {
        report.set(
            "par.cpu_per_wall",
            counts.reduce_cpu_s / counts.reduce_wall_s,
        );
    }
    let total: f64 = walls.iter().sum();
    let mut rows: Vec<(&str, f64)> = tr.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite span times"));
    report.notes.push(format!(
        "trace: {} decks, {:.4} s wall per deck",
        counts.decks,
        total / decks
    ));
    for (name, secs) in rows {
        let label = if name == ROOT { "(other)" } else { name };
        report.notes.push(format!(
            "  span {label:<24} {:>10.6} s/deck  {:>5.1} %",
            secs / decks,
            100.0 * secs / total.max(1e-300)
        ));
    }
}
