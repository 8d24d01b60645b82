//! Typed errors for fallible workload execution.

use crate::spec::SpecError;
use quest_core::fault::LinkFailure;
use quest_core::{BuildError, CnotError};
use std::fmt;

/// Why [`Runtime::run`](crate::Runtime::run) or
/// [`run_reference`](crate::run_reference) refused a workload, or why a
/// run shut down early.
///
/// Both executors validate the spec up front and build their systems
/// fallibly, so no invalid user input reaches a panicking constructor;
/// and every mid-run failure — a bus link out of retries, a shard
/// thread panicking, the decode pool dying — is contained and surfaces
/// here with a one-line display, never as a process abort.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The spec failed [`WorkloadSpec::validate`](crate::WorkloadSpec::validate).
    Spec(SpecError),
    /// System construction rejected the spec's physical parameters.
    Build(BuildError),
    /// A bus transfer exhausted its retransmission budget.
    Link(LinkFailure),
    /// A shard worker thread panicked; the panic was caught and the run
    /// shut down cleanly.
    ShardFailed {
        /// Which shard's thread failed.
        shard: usize,
        /// The panic message (or a disconnect description).
        detail: String,
    },
    /// The global decoder could not complete a batch (its lane died
    /// again after the supervisor's one rebuild).
    DecodePoolFailed {
        /// What the supervisor observed.
        detail: String,
    },
    /// The single-threaded reference executor was asked to run a spec
    /// with fault injection; only the concurrent runtime injects faults.
    ReferenceFaults,
    /// A transversal CNOT was rejected by the tile physics (validated
    /// specs make this unreachable; it is typed rather than panicking).
    Cnot(CnotError),
    /// The run's [`CancelToken`](crate::CancelToken) tripped and the
    /// runtime wound the run down at the next cooperative checkpoint
    /// (operation boundary or QECC cycle). Every thread was joined; no
    /// partial report escapes.
    Cancelled {
        /// QECC cycles completed before the cancellation was observed.
        cycles_done: u64,
    },
    /// A master ↔ shard message violated the runtime protocol: a payload
    /// arrived in a state that cannot accept it. Indicates a runtime bug,
    /// reported as an error instead of aborting the process.
    Protocol {
        /// Which protocol state was violated (e.g. `"cycle barrier"`).
        context: &'static str,
        /// Debug rendering of the offending payload.
        payload: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Spec(e) => e.fmt(f),
            RuntimeError::Build(e) => e.fmt(f),
            RuntimeError::Link(e) => e.fmt(f),
            RuntimeError::ShardFailed { shard, detail } => {
                write!(f, "shard {shard} worker failed: {detail}")
            }
            RuntimeError::DecodePoolFailed { detail } => {
                write!(f, "global-decode pool failed: {detail}")
            }
            RuntimeError::ReferenceFaults => write!(
                f,
                "the reference executor does not inject faults: run fault plans \
                 on the concurrent runtime, or clear the spec's fault plan"
            ),
            RuntimeError::Cnot(e) => e.fmt(f),
            RuntimeError::Cancelled { cycles_done } => {
                write!(f, "run cancelled after {cycles_done} QECC cycles")
            }
            RuntimeError::Protocol { context, payload } => {
                write!(f, "protocol violation in {context}: unexpected {payload}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Spec(e) => Some(e),
            RuntimeError::Build(e) => Some(e),
            RuntimeError::Link(e) => Some(e),
            RuntimeError::Cnot(e) => Some(e),
            RuntimeError::ShardFailed { .. }
            | RuntimeError::DecodePoolFailed { .. }
            | RuntimeError::ReferenceFaults
            | RuntimeError::Cancelled { .. }
            | RuntimeError::Protocol { .. } => None,
        }
    }
}

impl From<CnotError> for RuntimeError {
    fn from(e: CnotError) -> RuntimeError {
        RuntimeError::Cnot(e)
    }
}

impl From<LinkFailure> for RuntimeError {
    fn from(e: LinkFailure) -> RuntimeError {
        RuntimeError::Link(e)
    }
}

impl From<SpecError> for RuntimeError {
    fn from(e: SpecError) -> RuntimeError {
        RuntimeError::Spec(e)
    }
}

impl From<BuildError> for RuntimeError {
    fn from(e: BuildError) -> RuntimeError {
        RuntimeError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_are_one_line_and_sourced() {
        let e = RuntimeError::from(SpecError::NoTiles);
        assert_eq!(
            e.to_string(),
            "invalid workload spec: need at least one tile"
        );
        assert!(!e.to_string().contains('\n'));
        assert!(e.source().is_some());
        let e = RuntimeError::from(BuildError::InvalidDistance(4));
        assert!(e.to_string().contains("odd number"));
        assert!(e.source().is_some());
        let e = RuntimeError::from(LinkFailure {
            tile: 3,
            attempts: 9,
        });
        assert!(e.to_string().contains("MCE 3"));
        assert!(!e.to_string().contains('\n'));
        assert!(e.source().is_some());
        for e in [
            RuntimeError::ShardFailed {
                shard: 1,
                detail: "tile 2 panicked".into(),
            },
            RuntimeError::DecodePoolFailed {
                detail: "all workers dead".into(),
            },
            RuntimeError::ReferenceFaults,
        ] {
            assert!(!e.to_string().is_empty());
            assert!(!e.to_string().contains('\n'), "one-line display: {e}");
        }
    }
}
