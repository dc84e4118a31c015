//! Fault-domain vocabulary for the experiment engine: the typed error a
//! single run can die with, the report of one engine call, and the fault a
//! chaos test can inject into a run.
//!
//! The design goal is the property the paper assumes of real SMT
//! hardware: a misbehaving workload degrades *its own* results, never the
//! machine running the other threads. Every failure mode of a run —
//! panicking policy code, invalid machine configuration, unknown
//! benchmark — maps to one [`RunError`] variant carried in a
//! [`RunOutcome::Failed`](crate::runner::RunOutcome::Failed), and sibling
//! runs in the same sweep are unaffected.
//!
//! A run is a pure function of its [`RunSpec`](crate::runner::RunSpec),
//! so the engine gives each run exactly one attempt: a failure would
//! repeat identically on a fresh simulator.

/// Why a single run failed. Clonable and comparable so sweep reports can
/// carry, deduplicate and assert on failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A benchmark name resolved to no registry profile.
    UnknownBenchmark {
        /// The unresolvable benchmark name.
        bench: String,
    },
    /// The spec's machine configuration failed
    /// [`SimConfig::validate`](smt_sim::SimConfig::validate), or its
    /// thread count differs from its number of benchmarks.
    InvalidSpec {
        /// The validation message.
        message: String,
    },
    /// Policy or simulator code panicked mid-run. The worker's simulator
    /// is discarded (its state may be arbitrarily corrupt); the panic is
    /// contained to this run.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark { bench } => write!(f, "unknown benchmark `{bench}`"),
            RunError::InvalidSpec { message } => {
                write!(f, "invalid run spec configuration: {message}")
            }
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
        }
    }
}

impl std::error::Error for RunError {}

/// What the isolated engine observed while draining one queue — the
/// sweep-level fault report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Runs that completed and delivered statistics.
    pub completed: usize,
    /// Runs that failed with a typed [`RunError`].
    pub failed: usize,
    /// Spec indices whose *sink callback* panicked. The outcome of such a
    /// run is lost to the consumer, but the panic was contained: sibling
    /// runs kept draining the queue and the shared sink lock was recovered
    /// rather than poisoned. Sorted ascending.
    pub sink_panics: Vec<usize>,
}

/// A deterministic fault to inject into a run — the hook the chaos
/// harness (see [`crate::chaos`]) uses to make runs fail on purpose.
/// Carried on [`RunSpec::fault`](crate::runner::RunSpec::fault); `None`
/// everywhere outside fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The run panics when its clock reaches `at_cycle`, after the prewarm
    /// and before any pipeline stage of that cycle. A fuse at or past the
    /// end of the measurement never fires.
    PanicAtCycle {
        /// Cycle at which the run panics.
        at_cycle: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_run_error_has_a_message() {
        for err in [
            RunError::UnknownBenchmark { bench: "x".into() },
            RunError::InvalidSpec {
                message: "bad".into(),
            },
            RunError::Panicked {
                message: "boom".into(),
            },
        ] {
            assert!(!format!("{err}").is_empty(), "{err:?}");
        }
    }
}
