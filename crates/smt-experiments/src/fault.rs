//! Fault-domain vocabulary for the experiment engine: the typed error a
//! single run can die with, the report of one engine call, and the fault a
//! chaos test can inject into a run.
//!
//! The design goal is the property the paper assumes of real SMT
//! hardware: a misbehaving workload degrades *its own* results, never the
//! machine running the other threads. Every failure mode of a run —
//! panicking policy code, invalid machine configuration, unknown
//! benchmark, livelock, cycle-budget exhaustion — maps to one
//! [`RunError`] variant carried in a
//! [`RunOutcome::Failed`](crate::runner::RunOutcome::Failed), and sibling
//! runs in the same sweep are unaffected.
//!
//! A run is a pure function of its [`RunSpec`](crate::runner::RunSpec),
//! so the engine gives each run exactly one attempt: a failure would
//! repeat identically on a fresh simulator.

use smt_sim::watch::BudgetBreach;

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
    /// The run advanced a full livelock window without committing a
    /// single instruction (see
    /// [`RunBudget::livelock_window`](smt_sim::RunBudget::livelock_window)).
    Livelock {
        /// The configured window.
        window: u64,
        /// Cycle at which the breach was observed.
        at_cycle: u64,
        /// Last checkpoint with visible commit progress.
        last_progress_cycle: u64,
        /// Committed instructions at the breach.
        committed: u64,
    },
    /// The run hit its hard cycle cap (see
    /// [`RunBudget::max_cycles`](smt_sim::RunBudget::max_cycles)).
    CycleBudget {
        /// The configured cap.
        limit: u64,
        /// Committed instructions when the cap was hit.
        committed: u64,
    },
}

impl RunError {
    pub(crate) fn from_breach(breach: BudgetBreach) -> Self {
        match breach {
            BudgetBreach::CycleCap {
                limit, committed, ..
            } => RunError::CycleBudget { limit, committed },
            BudgetBreach::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            } => RunError::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            },
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark { bench } => write!(f, "unknown benchmark `{bench}`"),
            RunError::InvalidSpec { message } => {
                write!(f, "invalid run spec configuration: {message}")
            }
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
            RunError::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            } => write!(
                f,
                "livelock: no commit progress for {window} cycles (at cycle \
                 {at_cycle}, last progress checkpoint {last_progress_cycle}, \
                 {committed} committed)"
            ),
            RunError::CycleBudget { limit, committed } => write!(
                f,
                "cycle budget exhausted: limit {limit}, {committed} committed"
            ),
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
    /// Wrap the run's policy so it panics once the simulation reaches
    /// `at_cycle`.
    PanicAtCycle {
        /// Cycle at (or after) which the wrapped policy panics.
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
            RunError::Livelock {
                window: 8,
                at_cycle: 8,
                last_progress_cycle: 0,
                committed: 0,
            },
            RunError::CycleBudget {
                limit: 100,
                committed: 5,
            },
        ] {
            assert!(!format!("{err}").is_empty(), "{err:?}");
        }
    }
}
