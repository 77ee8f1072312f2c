//! The top-level PACT reduction driver.
//!
//! `reduce` chains the two congruence transforms: Cholesky-based
//! conversion of the internal blocks (Section 3.1), then pole analysis of
//! `E'` (Section 3.2) keeping only eigenvalues above `λ_c`, and packages
//! the result as a [`ReducedModel`] plus work statistics.
//!
//! The free functions here are one-shot conveniences over
//! [`crate::ReductionSession`], which additionally caches symbolic
//! analyses and scratch across calls — use a session when reducing many
//! decks.

use pact_lanczos::{LanczosError, LanczosStats};
use pact_netlist::{RcNetwork, Stamped};
use pact_sparse::{CholKernel, EigenError, FactorError, Ordering};

use crate::backend::EigenSelect;
use crate::cutoff::CutoffSpec;
use crate::model::ReducedModel;
use crate::session::ReductionSession;
use crate::telemetry::Telemetry;

/// How the reduction is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReduceStrategy {
    /// One-shot PACT over the whole network: a single Cholesky of the
    /// full internal block and one pole analysis.
    #[default]
    Flat,
    /// Divide-and-conquer ([`crate::hier`]): partition the internal-node
    /// graph by nested-dissection vertex separators, reduce each leaf
    /// block independently (separator nodes promoted to temporary
    /// ports) via the two-level Schur path — one Cholesky per leaf,
    /// boundary Schur complement on the factor, W-trick pole extraction,
    /// and an error-budgeted trim of out-of-band leaf poles — then
    /// stitch the reduced blocks and run a final flat pass over the
    /// much smaller stitched network. Leaves sharing a sparsity pattern
    /// reuse one symbolic analysis through the session, and the leaf
    /// fan-out parallelizes over the worker pool with bit-identical
    /// results at any thread count.
    Hierarchical {
        /// Target maximum internal nodes per leaf block.
        max_block: usize,
        /// Maximum dissection recursion depth.
        max_depth: usize,
    },
}

/// Options controlling a reduction.
#[derive(Clone, Debug)]
pub struct ReduceOptions {
    /// Accuracy specification (max frequency + tolerance).
    pub cutoff: CutoffSpec,
    /// Eigen backend selection for the pole analysis
    /// ([`EigenSelect::Auto`] adapts to block size and capacitance rank).
    pub eigen_backend: EigenSelect,
    /// Fill-reducing ordering for the Cholesky factorization of `D`.
    pub ordering: Ordering,
    /// [`EigenSelect::Auto`] switches from the low-rank/dense path to
    /// Lanczos above this internal-block size.
    pub dense_threshold: usize,
    /// Worker threads for the parallel stages (port fan-out, Ritz rows,
    /// operator products). `None` ⇒ all available cores. The reduced
    /// model is bit-identical for every thread count.
    pub threads: Option<usize>,
    /// Relief floor for quasi-singular pivots of `D`, relative to the
    /// largest diagonal entry (e.g. `Some(1e-12)`). `None` keeps the
    /// strict behavior: any non-positive pivot fails the reduction with
    /// a typed error. When set, offending pivots are raised to the floor
    /// (a passivity-preserving diagonal stiffening `D → D + ΔD`,
    /// `ΔD ⪰ 0`) and each substitution is recorded as a
    /// [`crate::Warning::PerturbedPivot`] in the reduction's telemetry.
    pub pivot_relief: Option<f64>,
    /// Execution strategy: one-shot flat PACT (default) or hierarchical
    /// divide-and-conquer over a nested-dissection partition tree.
    pub strategy: ReduceStrategy,
    /// Numeric Cholesky kernel for factoring `D`:
    /// [`CholKernel::Auto`] (default) resolves to the supernodal blocked
    /// kernel; [`CholKernel::Scalar`] forces the scalar up-looking
    /// reference kernel (the in-code A/B baseline for tests and
    /// benchmarks). Retained poles agree between the kernels to
    /// floating-point roundoff.
    pub chol_kernel: CholKernel,
}

impl ReduceOptions {
    /// Default options for a given accuracy specification.
    pub fn new(cutoff: CutoffSpec) -> Self {
        ReduceOptions {
            cutoff,
            eigen_backend: EigenSelect::Auto,
            ordering: Ordering::NestedDissection,
            dense_threshold: 400,
            threads: None,
            pivot_relief: None,
            strategy: ReduceStrategy::Flat,
            chol_kernel: CholKernel::Auto,
        }
    }
}

/// Work/footprint statistics for one reduction, feeding the paper's
/// tables (reduction time, memory) and the Section-4 complexity study.
#[derive(Clone, Debug, Default)]
pub struct ReductionStats {
    /// Ports `m`.
    pub num_ports: usize,
    /// Internal nodes `n` before reduction.
    pub num_internal: usize,
    /// Poles retained (internal nodes after reduction).
    pub poles_retained: usize,
    /// Wall-clock seconds for the whole reduction.
    pub elapsed_seconds: f64,
    /// Nonzeros in the Cholesky factor of `D`.
    pub chol_nnz: usize,
    /// Modelled bytes for the Cholesky factor (the paper's dominant term).
    pub chol_memory_bytes: usize,
    /// Modelled peak bytes for the whole reduction: factor + dense port
    /// blocks + Lanczos working set.
    pub modelled_memory_bytes: usize,
    /// Lanczos work counters when the Lanczos backend ran.
    pub lanczos: Option<LanczosStats>,
}

/// Error from a reduction.
#[derive(Clone, Debug)]
pub enum ReduceError {
    /// `D` was not positive definite (internal node without DC path) or
    /// carried a non-finite entry.
    Factor(FactorError),
    /// The Lanczos solver failed to resolve the spectrum near the cutoff.
    Lanczos(LanczosError),
    /// The dense eigensolver failed.
    Eigen(EigenError),
    /// A sub-network rejected during hierarchical reduction (per-block
    /// sanitization found non-physical element values).
    Network(pact_netlist::NetworkError),
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::Factor(e) => write!(f, "internal conductance factorization failed: {e}"),
            ReduceError::Lanczos(e) => write!(f, "pole analysis failed: {e}"),
            ReduceError::Eigen(e) => write!(f, "dense eigendecomposition failed: {e}"),
            ReduceError::Network(e) => write!(f, "block sanitization rejected the network: {e}"),
        }
    }
}

impl std::error::Error for ReduceError {}

impl From<FactorError> for ReduceError {
    fn from(e: FactorError) -> Self {
        ReduceError::Factor(e)
    }
}
impl From<LanczosError> for ReduceError {
    fn from(e: LanczosError) -> Self {
        ReduceError::Lanczos(e)
    }
}
impl From<EigenError> for ReduceError {
    fn from(e: EigenError) -> Self {
        ReduceError::Eigen(e)
    }
}
impl From<pact_netlist::NetworkError> for ReduceError {
    fn from(e: pact_netlist::NetworkError) -> Self {
        ReduceError::Network(e)
    }
}

/// A completed reduction: the passive reduced model and its statistics.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The reduced-order model.
    pub model: ReducedModel,
    /// Work statistics.
    pub stats: ReductionStats,
    /// Structured telemetry: per-phase wall times, deterministic
    /// counters, warnings (pivot perturbations etc.), and the eigen
    /// backend chosen per block.
    pub telemetry: Telemetry,
}

/// Reduces stamped network matrices with PACT.
///
/// `port_names` labels the leading `stamped.num_ports` rows and is carried
/// into the model for netlist output. One-shot convenience over
/// [`ReductionSession::reduce`].
///
/// # Errors
///
/// See [`ReduceError`].
pub fn reduce(
    stamped: &Stamped,
    port_names: &[String],
    opts: &ReduceOptions,
) -> Result<Reduction, ReduceError> {
    ReductionSession::new(opts.clone()).reduce(stamped, port_names)
}

/// Convenience wrapper: stamps an [`RcNetwork`] and reduces it with the
/// strategy selected in `opts` (flat one-shot PACT by default,
/// divide-and-conquer for [`ReduceStrategy::Hierarchical`]).
///
/// Warnings in the returned telemetry carry real node names (the
/// stamped-matrix entry point [`reduce`] can only attribute by index).
/// One-shot convenience over [`ReductionSession::reduce_network`].
///
/// # Errors
///
/// See [`ReduceError`].
pub fn reduce_network(network: &RcNetwork, opts: &ReduceOptions) -> Result<Reduction, ReduceError> {
    ReductionSession::new(opts.clone()).reduce_network(network)
}

/// Result of a per-component reduction ([`reduce_network_components`]).
#[derive(Clone, Debug)]
pub struct ComponentReduction {
    /// One reduction per connected component that has port nodes.
    pub reductions: Vec<Reduction>,
    /// Connected components with no port node: they cannot influence any
    /// port and are dropped from the output entirely.
    pub floating_dropped: usize,
}

impl ComponentReduction {
    /// Total retained poles across all components.
    pub fn num_poles(&self) -> usize {
        self.reductions.iter().map(|r| r.model.num_poles()).sum()
    }

    /// Emits the SPICE elements of every component's reduced network.
    /// Internal node names are disambiguated per component
    /// (`<prefix><k>_p<i>`).
    pub fn to_netlist_elements(
        &self,
        prefix: &str,
        sparsify_tol: f64,
    ) -> Vec<pact_netlist::Element> {
        let mut out = Vec::new();
        for (k, r) in self.reductions.iter().enumerate() {
            out.extend(
                r.model
                    .to_netlist_elements(&format!("{prefix}{k}"), sparsify_tol),
            );
        }
        out
    }

    /// `true` when every component's reduced model is passive.
    pub fn is_passive(&self, rel_tol: f64) -> bool {
        self.reductions.iter().all(|r| r.model.is_passive(rel_tol))
    }

    /// Aggregated telemetry across all component reductions: phase times
    /// and counters summed (peaks maxed), warnings concatenated in
    /// component order, plus the component-level counters.
    pub fn telemetry(&self) -> Telemetry {
        let mut tel = Telemetry::new();
        for r in &self.reductions {
            tel.absorb(&r.telemetry);
        }
        tel.counters.components_reduced = self.reductions.len() as u64;
        tel.counters.floating_islands_dropped = self.floating_dropped as u64;
        tel
    }
}

/// Reduces each connected component of the network independently.
///
/// Real layouts contain many electrically independent nets (the paper's
/// multiplier parasitics are hundreds of separate RC trees); reducing
/// them per component keeps each eigenproblem small and drops floating
/// RC islands that no port can observe. One-shot convenience over
/// [`ReductionSession::reduce_network_components`].
///
/// # Errors
///
/// See [`ReduceError`]; the first failing component aborts.
pub fn reduce_network_components(
    network: &RcNetwork,
    opts: &ReduceOptions,
) -> Result<ComponentReduction, ReduceError> {
    ReductionSession::new(opts.clone()).reduce_network_components(network)
}

/// Rewrites a component-local factorization failure index into the parent
/// network's internal-node numbering, so callers attributing errors
/// against the parent network (e.g. [`crate::PactError::from_reduce`])
/// name the right node.
pub(crate) fn remap_factor_index(
    e: ReduceError,
    comp: &RcNetwork,
    parent: &RcNetwork,
) -> ReduceError {
    let remap = |index: usize| {
        comp.node_names
            .get(comp.num_ports + index)
            .and_then(|name| parent.node_index(name))
            .and_then(|gi| gi.checked_sub(parent.num_ports))
            .unwrap_or(index)
    };
    match e {
        ReduceError::Factor(FactorError::NotPositiveDefinite { step, index, pivot }) => {
            ReduceError::Factor(FactorError::NotPositiveDefinite {
                step,
                index: remap(index),
                pivot,
            })
        }
        ReduceError::Factor(FactorError::NonFinitePivot { step, index, pivot }) => {
            ReduceError::Factor(FactorError::NonFinitePivot {
                step,
                index: remap(index),
                pivot,
            })
        }
        other => other,
    }
}
