//! Per-stage wall-clock attribution for the cycle loop.
//!
//! [`Simulator::step_profiled`] runs the identical stage sequence as
//! [`Simulator::step`], wrapping each stage in a monotonic-clock pair and
//! accumulating the elapsed time into a [`StageProfile`]. It exists for
//! instrumentation binaries (`bench_snapshot` records the percentage
//! breakdown into `BENCH_core.json` so future optimisation PRs can see
//! where batching paid off); the unprofiled `step` stays free of timer
//! calls.

#![expect(
    clippy::disallowed_methods,
    reason = "stage-profiling instrumentation; wall-clock readings are reported, never fed back into simulated state"
)]

use super::Simulator;
use crate::policy::Policy;
use std::time::{Duration, Instant};

/// Accumulated wall-clock time per pipeline stage of the cycle loop.
///
/// `policy` covers the per-cycle policy work that precedes the stages
/// (`begin_cycle` + `fetch_order` + the view refresh); `other` is the
/// residue of the loop (MLP sampling, cycle bookkeeping).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageProfile {
    /// Cycles accumulated into this profile — stepped *and* skipped, so
    /// `cycles` always equals simulated time.
    pub cycles: u64,
    /// Cycles covered by fast-forward jumps instead of steps (a subset of
    /// `cycles`; only [`Simulator::run_cycles_profiled`] produces them).
    pub skipped: u64,
    /// View refresh + `begin_cycle` + `fetch_order`.
    pub policy: Duration,
    /// Event drain (timing wheel + wakeup scoreboard).
    pub events: Duration,
    /// Commit stage.
    pub commit: Duration,
    /// Issue stage.
    pub issue: Duration,
    /// Dispatch stage.
    pub dispatch: Duration,
    /// Fetch stage.
    pub fetch: Duration,
    /// Fast-forward: idle-deadline computation + policy/statistics replay.
    pub forward: Duration,
    /// MLP sampling and loop bookkeeping.
    pub other: Duration,
}

impl StageProfile {
    /// Total attributed wall-clock time.
    pub fn total(&self) -> Duration {
        self.policy
            + self.events
            + self.commit
            + self.issue
            + self.dispatch
            + self.fetch
            + self.forward
            + self.other
    }

    /// The stages as `(name, share_of_total)` pairs, in pipeline order.
    /// Shares sum to ~1.0 (all zero when nothing was profiled).
    pub fn shares(&self) -> [(&'static str, f64); 8] {
        let total = self.total().as_secs_f64();
        let of = |d: Duration| {
            if total > 0.0 {
                d.as_secs_f64() / total
            } else {
                0.0
            }
        };
        [
            ("policy", of(self.policy)),
            ("events", of(self.events)),
            ("commit", of(self.commit)),
            ("issue", of(self.issue)),
            ("dispatch", of(self.dispatch)),
            ("fetch", of(self.fetch)),
            ("forward", of(self.forward)),
            ("other", of(self.other)),
        ]
    }
}

impl Simulator {
    /// Advances the machine one cycle exactly like [`Simulator::step`],
    /// attributing each stage's wall-clock cost to `profile`. Simulation
    /// output is bit-identical to `step`; only speed differs (six timer
    /// reads per cycle).
    pub fn step_profiled(&mut self, profile: &mut StageProfile) {
        let mut view = std::mem::take(&mut self.cycle_view);
        let mut order = std::mem::take(&mut self.order_scratch);
        self.idle = super::IdleTrack::default();
        let t0 = Instant::now();
        self.fill_view(&mut view);
        self.policy.begin_cycle(&view);
        order.clear();
        self.policy.fetch_order(&view, &mut order);
        let t1 = Instant::now();
        profile.policy += t1 - t0;

        self.drain_events();
        let t2 = Instant::now();
        profile.events += t2 - t1;

        self.commit();
        let t3 = Instant::now();
        profile.commit += t3 - t2;

        self.issue();
        let t4 = Instant::now();
        profile.issue += t4 - t3;

        self.dispatch(&order);
        let t5 = Instant::now();
        profile.dispatch += t5 - t4;

        self.fetch(&order, &view);
        let t6 = Instant::now();
        profile.fetch += t6 - t5;

        self.sample_mlp();
        self.now += 1;
        self.cycle_view = view;
        self.order_scratch = order;
        profile.other += t6.elapsed();
        profile.cycles += 1;
    }

    /// Profiled equivalent of [`Simulator::run_cycles`]: per-stage
    /// attribution via [`Simulator::step_profiled`], with fast-forward
    /// jumps timed into [`StageProfile::forward`] and the skipped cycles
    /// counted in [`StageProfile::skipped`]. Simulation output is
    /// bit-identical to `run_cycles`.
    pub fn run_cycles_profiled(&mut self, n: u64, profile: &mut StageProfile) {
        let end = self.now + n;
        while self.now < end {
            self.step_profiled(profile);
            let before = self.now;
            let t0 = Instant::now();
            self.fast_forward(end);
            profile.forward += t0.elapsed();
            let jumped = self.now - before;
            profile.cycles += jumped;
            profile.skipped += jumped;
        }
    }
}
