//! The unified error type for the whole reduction pipeline.
//!
//! Every failure on the `rcfit` path — parse, flatten, extraction,
//! cutoff validation, factorization, pole analysis, output — surfaces
//! as one [`PactError`] variant carrying enough attribution (node name,
//! element name, line/column) to act on. The taxonomy is documented in
//! DESIGN.md; [`PactError::code`] gives each variant a stable
//! machine-readable identifier that golden tests snapshot against.

use pact_lanczos::LanczosError;
use pact_netlist::{FlattenError, NetworkError, ParseNetlistError, ParseValueError, RcNetwork};
use pact_sparse::EigenError;

use crate::cutoff::CutoffError;
use crate::reduce::ReduceError;

/// Any failure of the PACT pipeline, with attribution.
#[derive(Clone, Debug)]
pub enum PactError {
    /// The SPICE deck did not parse; carries line (and column when
    /// known) information.
    Parse(ParseNetlistError),
    /// A numeric value (e.g. a `--fmax` argument) did not parse.
    Value(ParseValueError),
    /// Subcircuit expansion failed.
    Flatten(FlattenError),
    /// RC extraction rejected the deck (bad element values, no ports, …).
    Network(NetworkError),
    /// The accuracy specification was invalid.
    Cutoff(CutoffError),
    /// The internal conductance block `D` is singular: the named internal
    /// node has no DC path to any port, so the congruence transform (and
    /// the paper's stability theorem, which needs `D ≻ 0`) is undefined.
    /// Sanitization prunes purely-floating nodes beforehand, so reaching
    /// this means a structurally connected but numerically singular node.
    SingularInternalConductance {
        /// Name of the offending internal node.
        node: String,
        /// The non-positive pivot encountered.
        pivot: f64,
    },
    /// The conductance block carried a NaN or infinite value (a poisoned
    /// deck or upstream arithmetic overflow): factorization hit a
    /// non-finite pivot at the named internal node. Reported as its own
    /// variant — unlike a singular pivot, no relief floor can repair it.
    NonFiniteInternalConductance {
        /// Name of the offending internal node.
        node: String,
        /// The non-finite pivot encountered.
        pivot: f64,
    },
    /// The Lanczos eigensolver did not converge near the cutoff.
    Lanczos(LanczosError),
    /// The dense eigensolver failed.
    Eigen(EigenError),
    /// Reading or writing a file failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// An invariant the pipeline guarantees by construction was violated
    /// (a bug, not a property of the input).
    Internal {
        /// Description of the violated invariant.
        message: String,
    },
}

impl PactError {
    /// Stable machine-readable identifier for each variant.
    pub fn code(&self) -> &'static str {
        match self {
            PactError::Parse(_) => "parse",
            PactError::Value(_) => "value",
            PactError::Flatten(_) => "flatten",
            PactError::Network(_) => "network",
            PactError::Cutoff(_) => "cutoff",
            PactError::SingularInternalConductance { .. } => "singular_internal_conductance",
            PactError::NonFiniteInternalConductance { .. } => "non_finite_internal_conductance",
            PactError::Lanczos(_) => "lanczos",
            PactError::Eigen(_) => "eigen",
            PactError::Io { .. } => "io",
            PactError::Internal { .. } => "internal",
        }
    }

    /// Converts a [`ReduceError`] into a [`PactError`], attributing
    /// factorization failures to the node that owns the failed pivot.
    ///
    /// [`pact_sparse::FactorError`] reports the `D`-local row of the bad
    /// pivot; `network` (the same network that was reduced) maps it back
    /// to the global node name.
    pub fn from_reduce(e: ReduceError, network: &RcNetwork) -> PactError {
        match e {
            ReduceError::Factor(pact_sparse::FactorError::NotPositiveDefinite {
                index,
                pivot,
                ..
            }) => {
                let node = network
                    .node_names
                    .get(network.num_ports + index)
                    .cloned()
                    .unwrap_or_else(|| format!("internal#{index}"));
                PactError::SingularInternalConductance { node, pivot }
            }
            ReduceError::Factor(pact_sparse::FactorError::NonFinitePivot {
                index, pivot, ..
            }) => {
                let node = network
                    .node_names
                    .get(network.num_ports + index)
                    .cloned()
                    .unwrap_or_else(|| format!("internal#{index}"));
                PactError::NonFiniteInternalConductance { node, pivot }
            }
            ReduceError::Factor(fe) => PactError::Internal {
                message: format!("conductance block factorization failed: {fe}"),
            },
            ReduceError::Lanczos(le) => PactError::Lanczos(le),
            ReduceError::Eigen(ee) => PactError::Eigen(ee),
            ReduceError::Network(ne) => PactError::Network(ne),
        }
    }

    /// Wraps an I/O failure with the path it concerned.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> PactError {
        PactError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for PactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PactError::Parse(e) => write!(f, "parse error: {e}"),
            PactError::Value(e) => write!(f, "invalid value: {e}"),
            PactError::Flatten(e) => write!(f, "flatten error: {e}"),
            PactError::Network(e) => write!(f, "extraction error: {e}"),
            PactError::Cutoff(e) => write!(f, "cutoff error: {e}"),
            PactError::SingularInternalConductance { node, pivot } => write!(
                f,
                "internal node `{node}` has no DC path to any port \
                 (singular pivot {pivot:.3e} in the conductance block)"
            ),
            PactError::NonFiniteInternalConductance { node, pivot } => write!(
                f,
                "internal node `{node}` produced a non-finite pivot ({pivot}) \
                 in the conductance block — the deck carries a NaN or \
                 infinite value"
            ),
            PactError::Lanczos(e) => write!(f, "pole analysis failed: {e}"),
            PactError::Eigen(e) => write!(f, "dense eigendecomposition failed: {e}"),
            PactError::Io { path, message } => write!(f, "{path}: {message}"),
            PactError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for PactError {}

impl From<ParseNetlistError> for PactError {
    fn from(e: ParseNetlistError) -> Self {
        PactError::Parse(e)
    }
}
impl From<ParseValueError> for PactError {
    fn from(e: ParseValueError) -> Self {
        PactError::Value(e)
    }
}
impl From<FlattenError> for PactError {
    fn from(e: FlattenError) -> Self {
        PactError::Flatten(e)
    }
}
impl From<NetworkError> for PactError {
    fn from(e: NetworkError) -> Self {
        PactError::Network(e)
    }
}
impl From<CutoffError> for PactError {
    fn from(e: CutoffError) -> Self {
        PactError::Cutoff(e)
    }
}
impl From<LanczosError> for PactError {
    fn from(e: LanczosError) -> Self {
        PactError::Lanczos(e)
    }
}
impl From<EigenError> for PactError {
    fn from(e: EigenError) -> Self {
        PactError::Eigen(e)
    }
}
