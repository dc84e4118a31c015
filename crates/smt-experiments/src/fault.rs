//! Fault-domain vocabulary for the experiment engine: the typed error a
//! single run can die with, and the panic hook that keeps the panics a
//! fault-injection test raises on purpose
//! ([`RunSpec::panic_at_cycle`](crate::runner::RunSpec::panic_at_cycle))
//! out of its output.
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

use std::sync::Once;

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

/// Marker embedded in the panic message of a
/// [`RunSpec::panic_at_cycle`](crate::runner::RunSpec::panic_at_cycle)
/// fault. [`silence_chaos_panics`] recognises it to keep expected panics
/// out of test output, and fault-injection tests use it to tell injected
/// panics from genuine bugs.
pub const CHAOS_MARKER: &str = "chaos-injected";

/// Install a process-global panic hook that suppresses the default
/// backtrace/location print for [`CHAOS_MARKER`]-tagged panics while
/// forwarding every other panic to the previously installed hook.
///
/// Fault-injection tests raise dozens of *expected* panics; without this,
/// `cargo test` output drowns in scary-but-harmless panic traces.
/// Installation happens once per process and is idempotent.
pub fn silence_chaos_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            match message {
                Some(m) if m.contains(CHAOS_MARKER) => {}
                _ => previous(info),
            }
        }));
    });
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
