//! Chaos harness: deterministic fault injection for the experiment
//! engine.
//!
//! A [`FaultPlan`] takes a clean batch of [`RunSpec`]s and sabotages a
//! seeded, reproducible subset of them — panicking policy wrappers,
//! invalid machine configurations, unknown benchmarks, budget-exhausting
//! workloads and sink poisoning — so soak tests can push hundreds of
//! mixed good/faulty runs through
//! [`Runner::run_isolated`](crate::runner::Runner::run_isolated) and
//! assert that every *good* run stays bit-identical to a fault-free
//! sweep while every fault surfaces, on its one attempt, as a typed
//! [`RunError`](crate::fault::RunError).
//!
//! Fault assignment is a pure function of `(seed, index)` via a
//! splitmix64 hash, so the same plan instruments the same specs on every
//! machine and worker count.

use crate::fault::InjectedFault;
use crate::runner::RunSpec;
use smt_sim::policy::{AnyPolicy, CycleView, MissResponse, Policy};
use smt_sim::RunBudget;
use std::sync::Once;

/// Marker embedded in every panic message the chaos harness produces.
/// [`silence_chaos_panics`] recognises it to keep expected panics out of
/// test output, and soak assertions use it to tell injected panics from
/// genuine bugs.
pub const CHAOS_MARKER: &str = "chaos-injected";

/// The kinds of sabotage a [`FaultPlan`] can assign to a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The policy panics mid-run → the run fails
    /// [`RunError::Panicked`](crate::fault::RunError::Panicked).
    Panic,
    /// The spec's machine configuration is invalidated (zero-sized fetch
    /// queue) → [`RunError::InvalidSpec`](crate::fault::RunError::InvalidSpec).
    InvalidConfig,
    /// The first benchmark name is replaced with one outside the registry
    /// → [`RunError::UnknownBenchmark`](crate::fault::RunError::UnknownBenchmark).
    UnknownBenchmark,
    /// A one-cycle livelock window is attached → trips before the machine
    /// can possibly commit →
    /// [`RunError::Livelock`](crate::fault::RunError::Livelock).
    Livelock,
    /// A cycle cap far below the spec's warmup length is attached →
    /// [`RunError::CycleBudget`](crate::fault::RunError::CycleBudget).
    CycleCap,
    /// The spec itself is untouched; the *sink callback* is expected to
    /// panic for this index (the harness's caller arranges it via
    /// [`FaultPlan::poisons_sink`]) → the index lands in
    /// [`EngineReport::sink_panics`](crate::fault::EngineReport::sink_panics).
    PoisonedSink,
}

const ALL_KINDS: [FaultKind; 6] = [
    FaultKind::Panic,
    FaultKind::InvalidConfig,
    FaultKind::UnknownBenchmark,
    FaultKind::Livelock,
    FaultKind::CycleCap,
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
                        s.profile_overrides = None;
                    }
                    Some(FaultKind::Livelock) => {
                        // A fresh machine cannot commit by cycle 1, so a
                        // one-cycle window trips deterministically.
                        s.budget = RunBudget {
                            max_cycles: None,
                            livelock_window: Some(1),
                        };
                    }
                    Some(FaultKind::CycleCap) => {
                        s.budget = RunBudget {
                            max_cycles: Some(50),
                            livelock_window: None,
                        };
                    }
                }
                s
            })
            .collect()
    }
}

/// A [`Policy`] wrapper that behaves exactly like its inner policy until
/// the simulation clock reaches `at_cycle`, then panics with a
/// [`CHAOS_MARKER`]-tagged message. Used by the engine to realise
/// [`InjectedFault::PanicAtCycle`].
#[derive(Debug)]
pub struct ChaosPolicy {
    inner: AnyPolicy,
    at_cycle: u64,
}

impl ChaosPolicy {
    /// Wrap `inner` to panic at (or after — fast-forward may skip the
    /// exact cycle) `at_cycle`.
    pub fn new(inner: AnyPolicy, at_cycle: u64) -> Self {
        ChaosPolicy { inner, at_cycle }
    }
}

impl Policy for ChaosPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    #[expect(
        clippy::panic,
        reason = "deliberate fault injection: the panic is the chaos payload, contained by the runner's catch_unwind fault domain"
    )]
    fn begin_cycle(&mut self, view: &CycleView) {
        if view.now >= self.at_cycle {
            panic!(
                "{CHAOS_MARKER}: policy {} detonated at cycle {}",
                self.inner.name(),
                view.now
            );
        }
        self.inner.begin_cycle(view);
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<smt_isa::ThreadId>) {
        self.inner.fetch_order(view, order);
    }

    fn fetch_gate(&mut self, t: smt_isa::ThreadId, view: &CycleView) -> bool {
        self.inner.fetch_gate(t, view)
    }

    fn may_dispatch(
        &self,
        t: smt_isa::ThreadId,
        queue: smt_isa::QueueKind,
        dest: Option<smt_isa::RegClass>,
        view: &CycleView,
    ) -> bool {
        self.inner.may_dispatch(t, queue, dest, view)
    }

    fn on_fetch_inst(&mut self, t: smt_isa::ThreadId, inst: &smt_isa::PackedInst) {
        self.inner.on_fetch_inst(t, inst);
    }

    fn on_dispatch(
        &mut self,
        t: smt_isa::ThreadId,
        queue: smt_isa::QueueKind,
        dest: Option<smt_isa::RegClass>,
    ) {
        self.inner.on_dispatch(t, queue, dest);
    }

    fn on_l1d_miss(&mut self, t: smt_isa::ThreadId, pc: u64) {
        self.inner.on_l1d_miss(t, pc);
    }

    fn on_l2_miss_detected(&mut self, t: smt_isa::ThreadId, view: &CycleView) -> MissResponse {
        self.inner.on_l2_miss_detected(t, view)
    }

    fn on_miss_resolved(&mut self, t: smt_isa::ThreadId, pc: u64, level: smt_mem::HitLevel) {
        self.inner.on_miss_resolved(t, pc, level);
    }

    fn on_load_complete(&mut self, t: smt_isa::ThreadId, pc: u64, l1_missed: bool) {
        self.inner.on_load_complete(t, pc, l1_missed);
    }

    fn on_squash_inst(&mut self, t: smt_isa::ThreadId, inst: &smt_isa::PackedInst) {
        self.inner.on_squash_inst(t, inst);
    }

    fn on_idle_cycles(&mut self, n: u64, view: &CycleView) -> u64 {
        // Never fast-forward past the detonation cycle, or the panic
        // could land at a run-dependent later cycle.
        let skip = self.inner.on_idle_cycles(n, view);
        let remaining = self.at_cycle.saturating_sub(view.now);
        skip.min(remaining)
    }

    fn wants_fast_forward(&self) -> bool {
        self.inner.wants_fast_forward()
    }

    fn wants_squash_inst(&self) -> bool {
        self.inner.wants_squash_inst()
    }

    fn wants_dispatch_view(&self) -> bool {
        self.inner.wants_dispatch_view()
    }

    fn wants_dispatch_gate(&self) -> bool {
        self.inner.wants_dispatch_gate()
    }

    fn wants_progress_counters(&self) -> bool {
        self.inner.wants_progress_counters()
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
    use smt_sim::policy::ThreadView;

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
        let livelock = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::Livelock)
            .unwrap();
        assert_eq!(specs[livelock].budget.livelock_window, Some(1));
        let cap = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::CycleCap)
            .unwrap();
        assert_eq!(specs[cap].budget.max_cycles, Some(50));
        let sink = ALL_KINDS
            .iter()
            .position(|k| *k == FaultKind::PoisonedSink)
            .unwrap();
        assert_eq!(specs[sink], clean[sink], "sink poisoning leaves the spec");
        assert!(plan.poisons_sink(sink));
    }

    #[test]
    fn chaos_policy_delegates_until_detonation() {
        let view = |now: u64| {
            CycleView::new(
                now,
                smt_isa::PerResource::filled(80),
                &vec![ThreadView::default(); 2],
            )
        };
        let mut p = ChaosPolicy::new(AnyPolicy::from(smt_policies::Icount), 100);
        assert_eq!(p.name(), "ICOUNT");
        p.begin_cycle(&view(99)); // one cycle short: no panic
        let mut order = Vec::new();
        p.fetch_order(&view(99), &mut order);
        assert_eq!(order.len(), 2);
        // Fast-forward is clamped so the detonation cycle is never
        // skipped: from cycle 99 it may advance at most to cycle 100.
        assert!(p.on_idle_cycles(1_000, &view(99)) <= 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.begin_cycle(&view(100));
        }));
        let payload = panicked.expect_err("must detonate at 100");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains(CHAOS_MARKER));
    }
}
