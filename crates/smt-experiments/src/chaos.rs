//! Chaos harness: deterministic fault injection for the experiment
//! engine.
//!
//! A [`FaultPlan`] takes a clean batch of [`RunSpec`]s and sabotages a
//! seeded, reproducible subset of them — runs that panic mid-simulation,
//! invalid machine configurations, unknown benchmarks and sink
//! poisoning — so soak tests can push hundreds of mixed good/faulty runs
//! through [`Runner::run_isolated`](crate::runner::Runner::run_isolated) and
//! assert that every *good* run stays bit-identical to a fault-free
//! sweep while every fault surfaces, on its one attempt, as a typed
//! [`RunError`](crate::fault::RunError).
//!
//! Fault assignment is a pure function of `(seed, index)` via a
//! splitmix64 hash, so the same plan instruments the same specs on every
//! machine and worker count.

use crate::fault::InjectedFault;
use crate::runner::RunSpec;
use std::sync::Once;

/// Marker embedded in every panic message the chaos harness produces.
/// [`silence_chaos_panics`] recognises it to keep expected panics out of
/// test output, and soak assertions use it to tell injected panics from
/// genuine bugs.
pub const CHAOS_MARKER: &str = "chaos-injected";

/// The kinds of sabotage a [`FaultPlan`] can assign to a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The run panics mid-simulation
    /// ([`InjectedFault::PanicAtCycle`]) → the run fails
    /// [`RunError::Panicked`](crate::fault::RunError::Panicked).
    Panic,
    /// The spec's machine configuration is invalidated (zero-sized fetch
    /// queue) → [`RunError::InvalidSpec`](crate::fault::RunError::InvalidSpec).
    InvalidConfig,
    /// The first benchmark name is replaced with one outside the registry
    /// → [`RunError::UnknownBenchmark`](crate::fault::RunError::UnknownBenchmark).
    UnknownBenchmark,
    /// The spec itself is untouched; the *sink callback* is expected to
    /// panic for this index (the harness's caller arranges it via
    /// [`FaultPlan::poisons_sink`]) → the index lands in
    /// [`EngineReport::sink_panics`](crate::fault::EngineReport::sink_panics).
    PoisonedSink,
}

const ALL_KINDS: [FaultKind; 4] = [
    FaultKind::Panic,
    FaultKind::InvalidConfig,
    FaultKind::UnknownBenchmark,
    FaultKind::PoisonedSink,
];

/// Deterministic per-index fault assignment over a batch of runs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    faults: Vec<Option<FaultKind>>,
}

/// splitmix64 — tiny, seedable, and already the idiom used by the
/// workload generator, so the chaos plan stays dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Assign faults to roughly `fault_share` (0.0–1.0) of `runs` run
    /// indices, cycling uniformly over every [`FaultKind`]. Assignment is
    /// a pure function of `(seed, index)`.
    pub fn seeded(seed: u64, runs: usize, fault_share: f64) -> Self {
        let share = fault_share.clamp(0.0, 1.0);
        #[expect(
            clippy::indexing_slicing,
            reason = "index is reduced modulo ALL_KINDS.len(), in bounds for any hash value"
        )]
        let faults = (0..runs)
            .map(|i| {
                let h = splitmix64(seed ^ splitmix64(i as u64));
                // Top 53 bits → uniform in [0, 1).
                let x = (h >> 11) as f64 / (1u64 << 53) as f64;
                if x < share {
                    Some(ALL_KINDS[(h % ALL_KINDS.len() as u64) as usize])
                } else {
                    None
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// The fault assigned to run `i`, if any.
    pub fn fault_at(&self, i: usize) -> Option<FaultKind> {
        self.faults.get(i).copied().flatten()
    }

    /// Number of runs carrying a fault.
    pub fn fault_count(&self) -> usize {
        self.faults.iter().filter(|f| f.is_some()).count()
    }

    /// `true` when the sink callback is expected to panic for run `i`.
    pub fn poisons_sink(&self, i: usize) -> bool {
        self.fault_at(i) == Some(FaultKind::PoisonedSink)
    }

    /// Apply the plan: return a copy of `specs` with each planned fault
    /// baked into its spec. [`FaultKind::PoisonedSink`] leaves the spec
    /// untouched — that fault lives in the caller's sink.
    pub fn instrument(&self, specs: &[RunSpec]) -> Vec<RunSpec> {
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut s = spec.clone();
                match self.fault_at(i) {
                    None | Some(FaultKind::PoisonedSink) => {}
                    Some(FaultKind::Panic) => {
                        s.fault = Some(InjectedFault::PanicAtCycle { at_cycle: 64 });
                    }
                    Some(FaultKind::InvalidConfig) => {
                        s.config.fetch_queue = 0;
                    }
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "chaos mutation of a spec the harness itself built with at least one benchmark"
                    )]
                    Some(FaultKind::UnknownBenchmark) => {
                        s.benches[0] = "__chaos_unknown__".to_string();
                    }
                }
                s
            })
            .collect()
    }
}

/// Install a process-global panic hook that suppresses the default
/// backtrace/location print for [`CHAOS_MARKER`]-tagged panics while
/// forwarding every other panic to the previously installed hook.
///
/// Chaos tests inject dozens of *expected* panics; without this, `cargo
/// test` output drowns in scary-but-harmless panic traces. Installation
/// happens once per process and is idempotent.
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
    use crate::runner::{PolicyKind, RunSpec};

    #[test]
    fn plans_are_deterministic_and_cover_all_kinds() {
        let a = FaultPlan::seeded(7, 400, 0.35);
        let b = FaultPlan::seeded(7, 400, 0.35);
        for i in 0..400 {
            assert_eq!(a.fault_at(i), b.fault_at(i));
        }
        // Share lands in a sane band around the request.
        let share = a.fault_count() as f64 / 400.0;
        assert!((0.25..=0.45).contains(&share), "share {share}");
        // Every kind shows up at this scale.
        for kind in ALL_KINDS {
            assert!(
                (0..400).any(|i| a.fault_at(i) == Some(kind)),
                "{kind:?} never assigned"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::seeded(1, 200, 0.35);
        let b = FaultPlan::seeded(2, 200, 0.35);
        assert!((0..200).any(|i| a.fault_at(i) != b.fault_at(i)));
    }

    #[test]
    fn instrument_bakes_faults_into_specs() {
        let clean: Vec<RunSpec> = (0..ALL_KINDS.len())
            .map(|i| {
                let mut s = RunSpec::new(&["gzip", "mcf"], PolicyKind::Icount);
                s.seed = 42 + i as u64;
                s
            })
            .collect();
        // A plan that assigns each kind to one index, hand-rolled.
        let plan = FaultPlan {
            faults: ALL_KINDS.iter().copied().map(Some).collect(),
        };
        let specs = plan.instrument(&clean);
        let panic = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::Panic)
            .unwrap();
        assert_eq!(
            specs[panic].fault,
            Some(InjectedFault::PanicAtCycle { at_cycle: 64 })
        );
        let invalid = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::InvalidConfig)
            .unwrap();
        assert_eq!(specs[invalid].config.fetch_queue, 0);
        let unknown = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::UnknownBenchmark)
            .unwrap();
        assert_eq!(specs[unknown].benches[0], "__chaos_unknown__");
        let sink = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::PoisonedSink)
            .unwrap();
        assert_eq!(specs[sink], clean[sink], "sink poisoning leaves the spec");
        assert!(plan.poisons_sink(sink));
    }
}
