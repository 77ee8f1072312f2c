//! The shared deck pipeline: one code path from SPICE text to reduced
//! SPICE text, used by both the one-shot `rcfit` CLI and the `rcfitd`
//! daemon workers.
//!
//! Bit-identity between the daemon and the CLI is a protocol guarantee
//! (`rcfitd-v1` responses must match what `rcfit` would print for the
//! same deck and options), and the cheapest way to guarantee it is by
//! construction: both front ends call [`prepare_deck`],
//! [`reduce_prepared`] and [`render_reduced`] in that order, and neither
//! owns any numeric decision of its own. Option resolution (including
//! the `--hier` alias and the pivot-relief default) lives here for the
//! same reason.

use pact::{
    collapse_chains, sanitize_network, ChainCollapseSpec, CholKernel, ComponentReduction,
    CutoffSpec, EigenSelect, PactError, ReduceOptions, ReduceStrategy, Reduction, ReductionSession,
    Telemetry, Warning,
};
use pact_lanczos::LanczosConfig;
use pact_netlist::{extract_rc, parse, splice_reduced, Element, Netlist, RcNetwork};
use pact_sparse::Ordering;

/// Default relative pivot-relief floor for quasi-singular `D` diagonals;
/// see `ReduceOptions::pivot_relief`.
pub const PIVOT_RELIEF: f64 = 1e-12;

/// Default `--block-size`: target internal nodes per hierarchical leaf.
pub const DEFAULT_BLOCK_SIZE: usize = 2000;

/// Default `--max-depth`: dissection recursion budget.
pub const DEFAULT_MAX_DEPTH: usize = 16;

/// Default `--chain-tol`: relative in-band admittance error budget for
/// the series-chain collapse pre-pass.
pub const DEFAULT_CHAIN_TOL: f64 = 1e-6;

/// The `--eigen` flag / `"eigen"` option: which pole-analysis backend to
/// use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EigenArg {
    /// Let the reducer pick per sub-problem.
    Auto,
    /// The dense reference eigensolver.
    Dense,
    /// Shift-invert Lanczos (the default).
    Lanczos,
    /// The rank-revealing low-rank path with a dense fallback.
    LowRank,
}

impl EigenArg {
    /// Parses the spelling shared by `rcfit --eigen` and the daemon's
    /// `"eigen"` option.
    pub fn parse(s: &str) -> Result<EigenArg, String> {
        match s {
            "auto" => Ok(EigenArg::Auto),
            "dense" => Ok(EigenArg::Dense),
            "lanczos" => Ok(EigenArg::Lanczos),
            "lowrank" => Ok(EigenArg::LowRank),
            other => Err(format!(
                "eigen expects auto, dense, lanczos, or lowrank (got `{other}`)"
            )),
        }
    }

    /// The canonical spelling (inverse of [`EigenArg::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            EigenArg::Auto => "auto",
            EigenArg::Dense => "dense",
            EigenArg::Lanczos => "lanczos",
            EigenArg::LowRank => "lowrank",
        }
    }
}

/// The `--strategy` flag / `"strategy"` option: how the reduction is
/// executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyArg {
    /// One-shot flat PACT over the whole network.
    Flat,
    /// Nested-dissection divide-and-conquer.
    Hier,
}

impl StrategyArg {
    /// Parses the spelling shared by `rcfit --strategy` and the daemon's
    /// `"strategy"` option.
    pub fn parse(s: &str) -> Result<StrategyArg, String> {
        match s {
            "flat" => Ok(StrategyArg::Flat),
            "hier" => Ok(StrategyArg::Hier),
            other => Err(format!("strategy expects flat or hier (got `{other}`)")),
        }
    }

    /// The canonical spelling (inverse of [`StrategyArg::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            StrategyArg::Flat => "flat",
            StrategyArg::Hier => "hier",
        }
    }
}

/// Everything a deck reduction depends on beyond the deck text itself:
/// the resolved form of the `rcfit` CLI flags and of the `rcfitd`
/// request `options` object.
#[derive(Clone, Debug)]
pub struct DeckOptions {
    /// Maximum frequency of interest (Hz).
    pub f_max: f64,
    /// Relative error tolerance at `f_max`.
    pub tolerance: f64,
    /// Element-dropping tolerance for the realized reduced network.
    pub sparsify: f64,
    /// Node names forced to be ports beyond the paper's port rule.
    pub extra_ports: Vec<String>,
    /// Worker threads inside one reduction (`None` = all cores).
    pub threads: Option<usize>,
    /// Explicit eigen backend choice, if any.
    pub eigen: Option<EigenArg>,
    /// Reduce each connected component separately.
    pub components: bool,
    /// Fail on quasi-singular pivots instead of perturbing them.
    pub strict_pivots: bool,
    /// Reduce via nested-dissection blocks.
    pub hier: bool,
    /// `--block-size`: max internal nodes per hierarchical leaf.
    pub block_size: usize,
    /// `--max-depth`: dissection recursion budget.
    pub max_depth: usize,
    /// Explicit execution-strategy choice, if any (`--strategy` /
    /// `"strategy"`). `None` keeps the historical resolution: `hier`
    /// when the `--hier` alias is set, flat otherwise.
    pub strategy: Option<StrategyArg>,
    /// Reduce each maximal ported RC subnetwork independently
    /// (`--extract` / `"extract"`): the embedded-parasitics flow, where
    /// every RC island with its own boundary ports gets its own reduced
    /// realization and the `extract_subnets` counter reports how many.
    pub extract: bool,
    /// Run the degree-2 series-chain collapse pre-pass on the sanitized
    /// network before reduction (`--collapse-chains` /
    /// `"collapse_chains"`).
    pub collapse_chains: bool,
    /// Relative in-band error budget for the chain-collapse re-segmenting
    /// rule (`--chain-tol` / `"chain_tol"`); only meaningful with
    /// `collapse_chains`.
    pub chain_tol: f64,
}

impl Default for DeckOptions {
    fn default() -> DeckOptions {
        DeckOptions {
            f_max: 1e9,
            tolerance: 0.05,
            sparsify: 1e-9,
            extra_ports: Vec::new(),
            threads: None,
            eigen: None,
            components: false,
            strict_pivots: false,
            hier: false,
            block_size: DEFAULT_BLOCK_SIZE,
            max_depth: DEFAULT_MAX_DEPTH,
            strategy: None,
            extract: false,
            collapse_chains: false,
            chain_tol: DEFAULT_CHAIN_TOL,
        }
    }
}

impl DeckOptions {
    /// Resolves the eigen choice: an explicit `eigen` wins, and the
    /// default is shift-invert Lanczos.
    pub fn eigen_select(&self) -> EigenSelect {
        match self.eigen {
            Some(EigenArg::Auto) => EigenSelect::Auto,
            Some(EigenArg::Dense) => EigenSelect::Dense,
            Some(EigenArg::Lanczos) => EigenSelect::Lanczos(LanczosConfig::default()),
            Some(EigenArg::LowRank) => EigenSelect::LowRank,
            None => EigenSelect::Lanczos(LanczosConfig::default()),
        }
    }

    /// The fully resolved reduction options.
    ///
    /// # Errors
    ///
    /// Fails (code `cutoff`) when `f_max`/`tolerance` do not define a
    /// valid cutoff.
    pub fn reduce_options(&self) -> Result<ReduceOptions, PactError> {
        let cutoff = CutoffSpec::new(self.f_max, self.tolerance)?;
        Ok(ReduceOptions {
            cutoff,
            eigen_backend: self.eigen_select(),
            ordering: Ordering::NestedDissection,
            dense_threshold: 400,
            threads: self.threads,
            pivot_relief: if self.strict_pivots {
                None
            } else {
                Some(PIVOT_RELIEF)
            },
            strategy: self.reduce_strategy(),
            chol_kernel: CholKernel::Auto,
        })
    }

    /// Resolves the execution strategy: an explicit `strategy` wins,
    /// the bare `--hier` alias keeps its historical meaning, and the
    /// default is flat.
    pub fn reduce_strategy(&self) -> ReduceStrategy {
        match self.strategy {
            Some(StrategyArg::Hier) => ReduceStrategy::Hierarchical {
                max_block: self.block_size,
                max_depth: self.max_depth,
            },
            Some(StrategyArg::Flat) => ReduceStrategy::Flat,
            None if self.hier => ReduceStrategy::Hierarchical {
                max_block: self.block_size,
                max_depth: self.max_depth,
            },
            None => ReduceStrategy::Flat,
        }
    }

    /// The chain-collapse spec resolved from `f_max` and `chain_tol`, or
    /// `None` when the pre-pass is off.
    ///
    /// # Errors
    ///
    /// Fails (code `internal`) when `chain_tol` is not positive and
    /// finite.
    pub fn collapse_spec(&self) -> Result<Option<ChainCollapseSpec>, PactError> {
        if self.collapse_chains {
            ChainCollapseSpec::new(self.f_max, self.chain_tol).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A canonical string of every field [`DeckOptions::reduce_options`]
    /// depends on — the daemon's warm-session pool key. Render-only
    /// fields (`sparsify`) and deck-shaping fields (`extra_ports`,
    /// `collapse_chains`, `chain_tol`, which change the *network*, hence
    /// the topology shard, not the session) are deliberately excluded,
    /// as are execution-split fields (`components`, `extract`) that pick
    /// which networks go through the session without changing its
    /// numeric options.
    pub fn session_key(&self) -> String {
        let eigen = self.eigen.map_or("lanczos", EigenArg::name);
        let strategy = match self.reduce_strategy() {
            ReduceStrategy::Flat => "flat".to_owned(),
            ReduceStrategy::Hierarchical {
                max_block,
                max_depth,
            } => format!("hier:{max_block}:{max_depth}"),
        };
        format!(
            "fmax={};tol={};eigen={eigen};threads={:?};strict={};strategy={strategy}",
            self.f_max, self.tolerance, self.threads, self.strict_pivots
        )
    }
}

/// A deck carried through the front half of the pipeline: parsed,
/// flattened, extracted and sanitized, ready to be reduced.
#[derive(Clone, Debug)]
pub struct PreparedDeck {
    /// The flattened original deck (reduced elements splice into this).
    pub deck: Netlist,
    /// The sanitized RC network.
    pub network: RcNetwork,
    /// Ports in the raw extraction, before sanitization.
    pub raw_ports: usize,
    /// Internal nodes in the raw extraction.
    pub raw_internal: usize,
    /// Resistors in the raw extraction.
    pub raw_resistors: usize,
    /// Capacitors in the raw extraction.
    pub raw_capacitors: usize,
    /// Sanitizer warnings (already folded into `telemetry`; kept
    /// separately so the CLI can echo them to stderr).
    pub sanitize_warnings: Vec<Warning>,
    /// Telemetry for the phases run so far (parse/flatten/extract/
    /// sanitize) plus their warnings and counters.
    pub telemetry: Telemetry,
}

impl PreparedDeck {
    /// The FNV-1a topology fingerprint of the *sanitized* network — the
    /// daemon's shard key. Computed after sanitization so value-dependent
    /// pruning (dropped zero caps, floating internals) is reflected.
    pub fn topology_key(&self) -> u64 {
        self.network.topology_key()
    }
}

/// Runs the front half of the pipeline on deck text:
/// parse → flatten → extract → sanitize → optional chain collapse.
///
/// The chain-collapse pre-pass (when `opts.collapse_chains` is set)
/// rewrites the sanitized network *before* the topology fingerprint is
/// taken, so the daemon shards on the network that actually reduces and
/// the `chains_collapsed`/`nodes_eliminated` counters land in the
/// prepared telemetry.
///
/// # Errors
///
/// Any [`PactError`] with the usual typed codes (`parse`, `flatten`,
/// `network`, ...).
pub fn prepare_deck(text: &str, opts: &DeckOptions) -> Result<PreparedDeck, PactError> {
    let mut tel = Telemetry::new();
    let deck = tel.time("parse", || parse(text))?;
    let deck = tel.time("flatten", || deck.flatten())?;
    for (name, count) in deck.duplicate_element_names() {
        tel.counters.duplicate_element_names += 1;
        tel.warn(Warning::DuplicateElementName { name, count });
    }
    let port_refs: Vec<&str> = opts.extra_ports.iter().map(String::as_str).collect();
    let ex = tel.time("extract", || extract_rc(&deck, &port_refs))?;
    let raw_ports = ex.network.num_ports;
    let raw_internal = ex.network.num_internal();
    let raw_resistors = ex.network.resistors.len();
    let raw_capacitors = ex.network.capacitors.len();
    let sanitized = tel.time("sanitize", || sanitize_network(&ex.network))?;
    sanitized.record(&mut tel);
    let network = match opts.collapse_spec()? {
        Some(spec) => {
            let cc = tel.time("collapse_chains", || {
                collapse_chains(&sanitized.network, &spec)
            });
            tel.counters.chains_collapsed += cc.chains_collapsed;
            tel.counters.nodes_eliminated += cc.nodes_eliminated;
            cc.network
        }
        None => sanitized.network,
    };
    Ok(PreparedDeck {
        deck,
        network,
        raw_ports,
        raw_internal,
        raw_resistors,
        raw_capacitors,
        sanitize_warnings: sanitized.warnings,
        telemetry: tel,
    })
}

/// The back half's result: a whole-network or per-component reduction.
#[derive(Clone, Debug)]
pub enum ReducedDeck {
    /// One reduction of the whole connected network (boxed: a
    /// `Reduction` is large relative to the per-component variant).
    Whole(Box<Reduction>),
    /// Independent reductions of each connected component.
    Components {
        /// The per-component reductions.
        reduction: ComponentReduction,
        /// Ported RC subnetworks counted by the embedded-parasitics
        /// flow; zero under bare `components` (same execution split,
        /// but the caller did not ask for extraction semantics).
        extract_subnets: u64,
    },
}

impl ReducedDeck {
    /// The reduction's telemetry (aggregated across components).
    pub fn telemetry(&self) -> Telemetry {
        match self {
            ReducedDeck::Whole(r) => r.telemetry.clone(),
            ReducedDeck::Components {
                reduction,
                extract_subnets,
            } => {
                let mut tel = reduction.telemetry();
                tel.counters.extract_subnets = *extract_subnets;
                tel
            }
        }
    }

    /// Poles retained by the reduced model(s).
    pub fn num_poles(&self) -> usize {
        match self {
            ReducedDeck::Whole(r) => r.model.num_poles(),
            ReducedDeck::Components { reduction, .. } => reduction.num_poles(),
        }
    }

    /// SPICE elements realizing the reduced network.
    pub fn to_netlist_elements(&self, prefix: &str, sparsify_tol: f64) -> Vec<Element> {
        match self {
            ReducedDeck::Whole(r) => r.model.to_netlist_elements(prefix, sparsify_tol),
            ReducedDeck::Components { reduction, .. } => {
                reduction.to_netlist_elements(prefix, sparsify_tol)
            }
        }
    }
}

/// Reduces a prepared deck inside `session`: whole-network by default,
/// or per ported RC subnetwork when `opts.components` or `opts.extract`
/// is set (the two share the execution split; `extract` additionally
/// reports the subnetwork count through the `extract_subnets` counter).
///
/// # Errors
///
/// Reduction failures, remapped to node/element attribution on the
/// prepared network.
pub fn reduce_prepared(
    prep: &PreparedDeck,
    session: &mut ReductionSession,
    opts: &DeckOptions,
) -> Result<ReducedDeck, PactError> {
    let net = &prep.network;
    if opts.components || opts.extract {
        session
            .reduce_network_components(net)
            .map(|reduction| {
                let extract_subnets = if opts.extract {
                    reduction.reductions.len() as u64
                } else {
                    0
                };
                ReducedDeck::Components {
                    reduction,
                    extract_subnets,
                }
            })
            .map_err(|e| PactError::from_reduce(e, net))
    } else {
        session
            .reduce_network(net)
            .map(|r| ReducedDeck::Whole(Box::new(r)))
            .map_err(|e| PactError::from_reduce(e, net))
    }
}

/// Realizes the reduced model as SPICE elements, splices them into the
/// original deck and renders the result. Returns the rendered deck text
/// and the number of realized elements; the `emit` phase is recorded on
/// `tel`.
pub fn render_reduced(
    prep: &PreparedDeck,
    reduced: &ReducedDeck,
    prefix: &str,
    sparsify: f64,
    tel: &mut Telemetry,
) -> (String, usize) {
    let elements = reduced.to_netlist_elements(prefix, sparsify);
    let count = elements.len();
    let rendered = tel.time("emit", || splice_reduced(&prep.deck, elements).to_string());
    (rendered, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = "* ladder\n\
        R1 in n1 1k\n\
        R2 n1 out 1k\n\
        C1 n1 0 1p\n\
        C2 out 0 1p\n\
        V1 in 0 1\n\
        RL out 0 10k\n\
        .end\n";

    #[test]
    fn pipeline_round_trips_a_deck() {
        let opts = DeckOptions::default();
        let prep = prepare_deck(DECK, &opts).unwrap();
        assert_eq!(
            prep.network.num_ports, 1,
            "only `in` touches a non-RC device"
        );
        assert_eq!(prep.raw_resistors, 3);
        assert_eq!(prep.raw_capacitors, 2);
        let mut session = ReductionSession::new(opts.reduce_options().unwrap());
        let red = reduce_prepared(&prep, &mut session, &opts).unwrap();
        let mut tel = prep.telemetry.clone();
        let (text, n) = render_reduced(&prep, &red, "rcfit", opts.sparsify, &mut tel);
        assert!(n > 0);
        assert!(text.contains("V1"), "non-RC elements survive the splice");
        assert!(tel.phases.iter().any(|p| p.name == "emit"));
    }

    #[test]
    fn prepared_decks_same_topology_share_a_shard_key() {
        let opts = DeckOptions::default();
        let prep = prepare_deck(DECK, &opts).unwrap();
        let scaled = DECK.replace("1k", "2k").replace("1p", "3p");
        let prep2 = prepare_deck(&scaled, &opts).unwrap();
        assert_eq!(prep.topology_key(), prep2.topology_key());
        let rewired = DECK.replace("C2 out 0 1p", "C2 n1 out 1p");
        let prep3 = prepare_deck(&rewired, &opts).unwrap();
        assert_ne!(prep.topology_key(), prep3.topology_key());
    }

    /// A driven RC line long enough for the chain-collapse pre-pass to
    /// re-segment at a loose tolerance.
    fn line_deck(segments: usize) -> String {
        let mut s = String::from("* line\nVdrv in 0 1\n");
        let mut prev = "in".to_owned();
        for i in 0..segments {
            let next = if i + 1 == segments {
                "out".to_owned()
            } else {
                format!("n{}", i + 1)
            };
            s.push_str(&format!("R{i} {prev} {next} 10\n"));
            s.push_str(&format!("C{i} {next} 0 1p\n"));
            prev = next;
        }
        s.push_str("RL out 0 1k\n.end\n");
        s
    }

    #[test]
    fn collapse_chains_option_shrinks_the_prepared_network() {
        let deck = line_deck(120);
        let plain = DeckOptions::default();
        // 120 segments of 10 Ω / 1 pF: τ = 1.44e-7 s, so at 1 MHz
        // ωτ ≈ 0.9 and the 1e-3 budget re-segments onto ~23 nodes.
        let collapsing = DeckOptions {
            collapse_chains: true,
            chain_tol: 1e-3,
            f_max: 1e6,
            ..DeckOptions::default()
        };
        let before = prepare_deck(&deck, &plain).unwrap();
        let after = prepare_deck(&deck, &collapsing).unwrap();
        assert!(
            after.network.num_internal() < before.network.num_internal(),
            "collapse removed internal nodes: {} -> {}",
            before.network.num_internal(),
            after.network.num_internal()
        );
        assert!(after.telemetry.counters.chains_collapsed >= 1);
        assert!(after.telemetry.counters.nodes_eliminated > 0);
        assert_ne!(
            before.topology_key(),
            after.topology_key(),
            "the shard key follows the collapsed topology"
        );
        assert_eq!(before.telemetry.counters.chains_collapsed, 0);
    }

    #[test]
    fn bad_chain_tol_is_a_typed_error() {
        let opts = DeckOptions {
            collapse_chains: true,
            chain_tol: 0.0,
            ..DeckOptions::default()
        };
        let e = prepare_deck(DECK, &opts).unwrap_err();
        assert_eq!(e.code(), "internal");
        // With the pre-pass off the same tolerance is never inspected.
        let off = DeckOptions {
            chain_tol: 0.0,
            ..DeckOptions::default()
        };
        assert!(prepare_deck(DECK, &off).is_ok());
    }

    #[test]
    fn extract_option_counts_subnetworks() {
        // Two RC islands separated by a voltage source: each gets its
        // own reduced realization under `extract`.
        let deck = "* two islands\n\
            R1 a m1 1k\nC1 m1 0 1p\nR2 m1 b 1k\n\
            V1 b c 1\n\
            R3 c m2 2k\nC2 m2 0 2p\nR4 m2 d 2k\n\
            Vd a 0 1\nRL d 0 1k\n.end\n";
        let opts = DeckOptions {
            extract: true,
            ..DeckOptions::default()
        };
        let prep = prepare_deck(deck, &opts).unwrap();
        let mut session = ReductionSession::new(opts.reduce_options().unwrap());
        let red = reduce_prepared(&prep, &mut session, &opts).unwrap();
        match &red {
            ReducedDeck::Components {
                reduction,
                extract_subnets,
            } => {
                assert_eq!(reduction.reductions.len(), 2, "two RC islands");
                assert_eq!(*extract_subnets, 2);
            }
            ReducedDeck::Whole(_) => panic!("extract must split per subnetwork"),
        }
        assert_eq!(red.telemetry().counters.extract_subnets, 2);

        // Bare `components` takes the same split without claiming the
        // extraction counter.
        let comp = DeckOptions {
            components: true,
            ..DeckOptions::default()
        };
        let red = reduce_prepared(&prep, &mut session, &comp).unwrap();
        assert_eq!(red.telemetry().counters.extract_subnets, 0);
    }

    #[test]
    fn session_key_tracks_numeric_options_only() {
        let a = DeckOptions::default();
        let b = DeckOptions {
            sparsify: 1e-3,
            extra_ports: vec!["n1".to_owned()],
            ..DeckOptions::default()
        };
        assert_eq!(
            a.session_key(),
            b.session_key(),
            "render-only fields excluded"
        );
        let c = DeckOptions {
            f_max: 2e9,
            ..DeckOptions::default()
        };
        assert_ne!(a.session_key(), c.session_key());
        let d = DeckOptions {
            hier: true,
            ..DeckOptions::default()
        };
        assert_ne!(a.session_key(), d.session_key());
        let e = DeckOptions {
            extract: true,
            collapse_chains: true,
            chain_tol: 1e-3,
            ..DeckOptions::default()
        };
        assert_eq!(
            a.session_key(),
            e.session_key(),
            "deck-shaping and execution-split fields excluded"
        );
    }

    #[test]
    fn strategy_arg_round_trips_and_rejects_unknowns() {
        for s in ["flat", "hier"] {
            assert_eq!(StrategyArg::parse(s).unwrap().name(), s);
        }
        let err = StrategyArg::parse("quadtree").unwrap_err();
        assert!(err.contains("quadtree"), "error names the bad value: {err}");
    }

    #[test]
    fn explicit_strategy_overrides_the_hier_alias() {
        let o = DeckOptions {
            hier: true,
            strategy: Some(StrategyArg::Flat),
            ..DeckOptions::default()
        };
        assert!(matches!(o.reduce_strategy(), ReduceStrategy::Flat));
    }

    #[test]
    fn session_key_tracks_strategy() {
        let a = DeckOptions::default();
        let explicit_flat = DeckOptions {
            strategy: Some(StrategyArg::Flat),
            ..DeckOptions::default()
        };
        assert_eq!(a.session_key(), explicit_flat.session_key());
        let hier_alias = DeckOptions {
            hier: true,
            ..DeckOptions::default()
        };
        let hier_explicit = DeckOptions {
            strategy: Some(StrategyArg::Hier),
            ..DeckOptions::default()
        };
        assert_eq!(
            hier_alias.session_key(),
            hier_explicit.session_key(),
            "alias and explicit spelling resolve to the same session"
        );
    }

    #[test]
    fn eigen_option_resolves_like_the_cli() {
        let mut o = DeckOptions::default();
        assert!(matches!(o.eigen_select(), EigenSelect::Lanczos(_)));
        o.eigen = Some(EigenArg::LowRank);
        assert!(matches!(o.eigen_select(), EigenSelect::LowRank));
        o.eigen = Some(EigenArg::Dense);
        assert!(matches!(o.eigen_select(), EigenSelect::Dense));
    }
}
