//! The cycle-level SMT simulator core, as a staged pipeline.
//!
//! Each pipeline stage lives in its own module and owns its slice of the
//! machine behind a narrow interface, so the per-cycle loop in
//! [`Simulator::step`] reads as the pipeline diagram:
//!
//! | module      | stage                                                    |
//! |-------------|----------------------------------------------------------|
//! | [`events`]  | timing wheel + wakeup scoreboard (completion, L2 detect) |
//! | [`commit`]  | in-order retirement, round-robin across threads          |
//! | [`issue`]   | ready-list pop, oldest-first, per-queue unit limits      |
//! | [`dispatch`]| rename/allocate against shared structural limits         |
//! | [`fetch`]   | I-cache access, branch prediction, fetch-queue fill      |
//! | [`squash`]  | misprediction/flush recovery (shared by events + policy) |
//! | [`rings`]   | the power-of-two seq-indexed ring storage they share     |
//! | [`profile`] | the run loop's observers: stage clock, watchdog hook     |
//!
//! Every stage is *batched*: it processes per-thread bursts (contiguous
//! sequence-number runs) with thread-invariant state hoisted out of the
//! inner loop, instead of re-deriving it per instruction. The stage lane
//! of the window ring is struct-of-arrays (see [`crate::thread`]), so the
//! burst scans are contiguous byte scans. Batching is pure mechanics —
//! the golden determinism tests pin the output bit-identical to the
//! original one-instruction-at-a-time loop.

pub(crate) mod commit;
pub(crate) mod debug;
pub(crate) mod dispatch;
pub(crate) mod events;
pub(crate) mod fetch;
pub(crate) mod forward;
pub(crate) mod issue;
pub(crate) mod profile;
pub(crate) mod rings;
pub(crate) mod squash;

pub use profile::StageProfile;

use profile::{ProfileClock, RunObserver};

use crate::config::SimConfig;
use crate::policy::{AnyPolicy, CycleView, Policy};
use crate::stats::{SimResult, ThreadStats};
use crate::thread::ThreadState;
use events::{EventWheel, ReadyEntry};
use smt_bpred::BranchPredictor;
use smt_isa::{PerResource, ThreadId};
use smt_mem::{MemoryHierarchy, WarmState};
use smt_workloads::{BenchmarkProfile, ThreadTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The cycle-level SMT processor simulator.
///
/// One instance simulates one multiprogrammed run: a set of per-thread
/// trace generators executing on the shared pipeline described by
/// [`SimConfig`], arbitrated by a [`Policy`].
///
/// # Examples
///
/// ```
/// use smt_sim::{SimConfig, Simulator};
/// use smt_sim::policy::RoundRobin;
/// use smt_workloads::spec;
///
/// let cfg = SimConfig::baseline(2);
/// let profiles = [spec::profile("gzip").unwrap(), spec::profile("gcc").unwrap()];
/// let mut sim = Simulator::new(cfg, &profiles, RoundRobin::default(), 42);
/// sim.run_cycles(1_000);
/// let result = sim.result();
/// assert!(result.total_committed() > 0);
/// ```
pub struct Simulator {
    pub(crate) config: SimConfig,
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) policy: AnyPolicy,
    pub(crate) bpred: BranchPredictor,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) now: u64,
    pub(crate) measure_start: u64,
    pub(crate) uid_counter: u64,
    // Shared-resource occupancy.
    pub(crate) rob_used: u32,
    pub(crate) iq_used: [u32; 3],
    pub(crate) regs_used: [u32; 2],
    pub(crate) usage: Vec<PerResource<u32>>,
    pub(crate) events: EventWheel,
    pub(crate) stats: Vec<ThreadStats>,
    pub(crate) commit_rr: usize,
    /// Event-driven wakeup scoreboard: one ready list per issue queue,
    /// ordered oldest-first by [`ReadyEntry`]. The issue stage pops from
    /// these instead of rescanning every in-flight instruction.
    pub(crate) ready: [BinaryHeap<Reverse<ReadyEntry>>; 3],
    /// Reusable per-cycle policy view (refreshed in place at the start of
    /// every cycle; also used by `fetch`, which sees pre-commit state).
    pub(crate) cycle_view: CycleView,
    /// Reusable mid-cycle policy view for `dispatch` / `detect_l2`, which
    /// need post-commit/issue state.
    pub(crate) scratch_view: CycleView,
    /// Reusable fetch-order buffer handed to the policy each cycle.
    pub(crate) order_scratch: Vec<ThreadId>,
    /// Reusable per-thread MLP sample buffer.
    pub(crate) mlp_scratch: Vec<u32>,
    /// `config.resource_totals()`, computed once — the configuration is
    /// immutable after construction and the view is refreshed every cycle.
    pub(crate) totals: PerResource<u32>,
    /// What the last `step` observed: whether any stage changed machine
    /// state, and which per-cycle statistics were charged to which thread.
    /// The fast-forward path ([`forward`]) reads it to decide whether the
    /// machine is skippable and to replay the skipped cycles' statistics.
    pub(crate) idle: IdleTrack,
}

/// Per-cycle activity record, reset at the top of every [`Simulator::step`].
///
/// `active` means "this cycle changed machine state" (an event was
/// delivered, or something committed, issued, dispatched, fetched, or at
/// least touched the I-cache). The bit masks record which threads were
/// charged a per-cycle statistic this cycle — exactly the statistics that
/// keep accruing, unchanged, on every subsequent idle cycle, and therefore
/// the ones the fast-forward replay multiplies out (thread ids fit in `u8`
/// masks because `ThreadId::MAX_THREADS == 8`, enforced by
/// [`SimConfig::validate`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdleTrack {
    /// Any machine-state change this cycle.
    pub active: bool,
    /// Threads whose `gated_cycles` statistic was charged (fetchable but
    /// refused by the policy's fetch gate).
    pub gated: u8,
    /// Threads whose `blocked_rob` statistic was charged at dispatch.
    pub blocked_rob: u8,
    /// Threads whose `blocked_iq` statistic was charged at dispatch.
    pub blocked_iq: u8,
    /// Threads whose `blocked_regs` statistic was charged at dispatch.
    pub blocked_regs: u8,
    /// Threads whose `blocked_policy` statistic was charged at dispatch.
    pub blocked_policy: u8,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// Derives the per-thread trace seed from the run seed and the thread
/// slot. The single definition is what makes [`Simulator::reset`]'s
/// workload key match [`Simulator::new`]'s — the trace store reuses its
/// retained blocks across a reset exactly when (profile, seed, slot) all
/// compare equal, so `new` and `reset` must derive seeds identically.
fn thread_seed(seed: u64, slot: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(slot as u64)
}

impl Simulator {
    /// Builds a simulator running one thread per profile under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles.len() != config.threads` or the configuration is
    /// invalid.
    pub fn new(
        config: SimConfig,
        profiles: &[&BenchmarkProfile],
        policy: impl Into<AnyPolicy>,
        seed: u64,
    ) -> Self {
        config.validate().expect("invalid simulator configuration");
        assert_eq!(
            profiles.len(),
            config.threads,
            "need exactly one benchmark per hardware thread"
        );
        let window_span = (config.rob_entries + config.fetch_queue) as usize;
        let threads: Vec<ThreadState> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                ThreadState::new(
                    ThreadTrace::new(p, thread_seed(seed, i), i as u64, window_span as u64),
                    window_span,
                )
            })
            .collect();
        let n = threads.len();
        let totals = config.resource_totals();
        Simulator {
            bpred: BranchPredictor::new(&config.bpred, n),
            mem: MemoryHierarchy::new(&config.mem, n),
            threads,
            policy: policy.into(),
            now: 0,
            measure_start: 0,
            uid_counter: 0,
            rob_used: 0,
            iq_used: [0; 3],
            regs_used: [0; 2],
            usage: vec![PerResource::default(); n],
            events: EventWheel::new(
                u64::from(config.regread_delay)
                    + u64::from(config.mem.dl1.latency)
                    + u64::from(config.mem.l2.latency)
                    + u64::from(config.mem.memory_latency)
                    + u64::from(config.mem.tlb_miss_penalty)
                    + 64,
            ),
            stats: vec![ThreadStats::default(); n],
            config,
            commit_rr: 0,
            ready: [BinaryHeap::new(), BinaryHeap::new(), BinaryHeap::new()],
            cycle_view: CycleView::default(),
            scratch_view: CycleView::default(),
            order_scratch: Vec::new(),
            mlp_scratch: vec![0; n],
            totals,
            idle: IdleTrack::default(),
        }
    }

    /// Re-initialises the simulator in place for a fresh run on the same
    /// machine configuration: rebound trace stores (which *reuse* their
    /// pre-generated blocks when the workload key is unchanged — the
    /// policy-sweep case), a new policy, cold
    /// caches/predictors, zeroed counters and an empty window — exactly the
    /// state [`Simulator::new`] would produce, but with every long-lived
    /// allocation (instruction windows, cache tag arrays, event wheel,
    /// ready lists, waiter pools) retained. This is what makes sweep
    /// sessions cheap: hundreds of short runs reuse one simulator instead
    /// of reallocating the whole machine per run.
    ///
    /// # Panics
    ///
    /// Panics if `profiles.len() != config.threads` (the thread count is
    /// fixed at construction).
    pub fn reset(
        &mut self,
        profiles: &[&BenchmarkProfile],
        policy: impl Into<AnyPolicy>,
        seed: u64,
    ) {
        assert_eq!(
            profiles.len(),
            self.threads.len(),
            "need exactly one benchmark per hardware thread"
        );
        for (i, (th, p)) in self.threads.iter_mut().zip(profiles).enumerate() {
            th.reset(p, thread_seed(seed, i), i as u64);
        }
        self.policy = policy.into();
        self.bpred.reset_cold();
        self.mem.reset_cold();
        self.now = 0;
        self.measure_start = 0;
        self.uid_counter = 0;
        self.rob_used = 0;
        self.iq_used = [0; 3];
        self.regs_used = [0; 2];
        for u in &mut self.usage {
            *u = PerResource::default();
        }
        self.events.clear();
        for s in &mut self.stats {
            *s = ThreadStats::default();
        }
        self.commit_rr = 0;
        for r in &mut self.ready {
            r.clear();
        }
        self.idle = IdleTrack::default();
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration of this machine.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The memory hierarchy (for cache statistics).
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The branch predictor (for misprediction statistics).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Name of the active policy.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Clears measured statistics; subsequent results count from this
    /// cycle. Use after a warm-up period.
    pub fn reset_stats(&mut self) {
        self.measure_start = self.now;
        for s in &mut self.stats {
            *s = ThreadStats::default();
        }
        self.mem.reset_stats();
        self.bpred.reset_stats();
    }

    /// Functionally warms the caches and TLBs: streams the first
    /// `insts_per_thread` instructions of every thread's trace through the
    /// memory hierarchy without simulating timing, then clears the
    /// statistics. Equivalent to the "functional warm-up" phase of
    /// checkpoint-based simulators; it removes cold-start effects that
    /// would otherwise need millions of timed cycles (and would bias
    /// policies that throttle on cold misses).
    ///
    /// The warm-up streams from a decorrelated generator twin, so the
    /// timed simulation still replays the same instruction stream from the
    /// beginning — every prewarmed line is revisited warm. It reads the
    /// twin through [`TraceGenerator::next_access`](smt_workloads::TraceGenerator::next_access),
    /// which draws what `next_inst` draws but builds no records, since
    /// warm-up needs only the fetch pc and the data address.
    ///
    /// Every access is made at cycle 0, so the data misses leave fills in
    /// the MSHRs that are still "in flight" when timed simulation starts:
    /// on the baseline machine several hundred to 1.6k memory-level fills
    /// per run at a 20k-instruction prewarm, several thousand at the
    /// figures' 400k.
    /// Until they are due, timed accesses to those lines coalesce with
    /// them and they count towards the outstanding-miss (MLP) samples.
    /// All of them are due by `dl1 + l2 + memory` latency (cycle 321 on
    /// the baseline), so none outlives a timed warm-up of 322 cycles or
    /// more; the `prewarm_fills_drain_within_one_memory_latency` test pins
    /// this.
    ///
    /// The result depends only on the thread profiles, the seed, the
    /// memory configuration and `insts_per_thread` — never on the policy
    /// or the core's sizes. A caller that prewarms the same workload many
    /// times can therefore prewarm once, keep [`Self::warm_state`], and
    /// [`Self::restore_warm`] it into every later run: the experiment
    /// runner's engine does this for every run it executes.
    pub fn prewarm(&mut self, insts_per_thread: u64) {
        for tid in 0..self.threads.len() {
            let t = ThreadId::new(tid);
            let mut gen = self.threads[tid].trace().decorrelated(0xCAFE);
            for _ in 0..insts_per_thread {
                let (pc, data) = gen.next_access();
                self.mem.access_inst(t, pc, 0);
                if let Some((addr, is_store)) = data {
                    self.mem.access_data(t, addr, is_store, 0);
                }
            }
        }
        self.mem.reset_stats();
    }

    /// The memory hierarchy's state in compact, exact form (see
    /// [`MemoryHierarchy::warm_state`]); taken right after
    /// [`Self::prewarm`], it is the whole effect of the prewarm.
    pub fn warm_state(&self) -> WarmState {
        self.mem.warm_state()
    }

    /// Restores a [`Self::warm_state`] into the memory hierarchy with
    /// zeroed statistics. After [`Self::new`] or [`Self::reset`] onto the
    /// same profiles, seed and memory configuration, this leaves the
    /// simulator exactly as [`Self::prewarm`] would have.
    ///
    /// # Panics
    ///
    /// Panics if the state was captured with a different thread count.
    pub fn restore_warm(&mut self, state: &WarmState) {
        self.mem.restore_warm(state);
    }

    /// Runs `n` cycles, fast-forwarding through spans where every thread
    /// is stalled (the `core/forward` module). Bit-identical to calling
    /// [`Self::step`] `n` times — the golden determinism suite and the
    /// stepped-vs-fast-forward property test pin this — but far faster on
    /// memory-bound workloads, where most cycles are empty waits on L2/
    /// memory fills.
    pub fn run_cycles(&mut self, n: u64) {
        // The no-op observer never stops the run.
        let _ = self.run_observed(n, &mut ());
    }

    /// [`Self::run_cycles`] under a
    /// [`CommitWatchdog`](crate::watch::CommitWatchdog): identical stepping
    /// (so in-budget runs are bit-identical to [`Self::run_cycles`] — the
    /// budget suite pins this), but the watchdog sees the clock after
    /// every step + fast-forward span, and converts a cycle cap or
    /// commit-progress violation into an early
    /// [`BudgetBreach`](crate::watch::BudgetBreach) return. On breach the
    /// simulator is left in a consistent mid-run state (the breach is
    /// detected between cycles, never inside one); the caller decides
    /// whether to salvage partial statistics or discard the run.
    ///
    /// # Errors
    ///
    /// Returns the first breach the watchdog detects.
    pub fn run_cycles_budgeted(
        &mut self,
        n: u64,
        watch: &mut crate::watch::CommitWatchdog,
    ) -> Result<(), crate::watch::BudgetBreach> {
        self.run_observed(n, watch)
    }

    /// [`Self::run_cycles`] with per-stage wall-clock attribution: every
    /// stage of every stepped cycle, and every fast-forward jump (into
    /// [`StageProfile::forward`]), is timed into `profile`, and the
    /// skipped cycles are counted in [`StageProfile::skipped`]. Simulation
    /// output is bit-identical to `run_cycles`; only speed differs (nine
    /// clock reads per stepped cycle).
    pub fn run_cycles_profiled(&mut self, n: u64, profile: &mut StageProfile) {
        // The profile clock never stops the run.
        let _ = self.run_observed(n, &mut ProfileClock::new(profile));
    }

    /// The one cycle loop: step, fast-forward through any idle span up to
    /// the run's end, then let the observer look.
    fn run_observed<O: RunObserver>(
        &mut self,
        n: u64,
        obs: &mut O,
    ) -> Result<(), crate::watch::BudgetBreach> {
        let end = self.now + n;
        while self.now < end {
            self.step_observed(obs);
            let stepped = self.now;
            self.fast_forward(end);
            obs.lap(|p| &mut p.forward);
            obs.after_span(self, self.now - stepped)?;
        }
        Ok(())
    }

    /// Total instructions committed in the current measurement interval
    /// (since construction, [`Self::reset`] or [`Self::reset_stats`]),
    /// summed over threads. The commit-progress signal the
    /// [`CommitWatchdog`](crate::watch::CommitWatchdog) samples.
    pub fn committed_total(&self) -> u64 {
        self.stats.iter().map(|s| s.committed).sum()
    }

    /// Snapshot of the measured statistics.
    pub fn result(&self) -> SimResult {
        SimResult {
            cycles: self.now - self.measure_start,
            policy: self.policy.name().to_string(),
            threads: self.stats.clone(),
        }
    }

    /// Refreshes a reusable per-cycle view in place — the allocation-free
    /// replacement for building a fresh `CycleView` every call. The view's
    /// struct-of-arrays lanes are scattered directly from the simulator's
    /// state; policies read them back as contiguous batch slices. The
    /// cumulative progress lanes are refreshed only for policies that
    /// declared they read them.
    pub(crate) fn fill_view(&self, view: &mut CycleView) {
        view.now = self.now;
        view.totals = self.totals;
        let n = self.threads.len();
        view.resize(n);
        for (i, th) in self.threads.iter().enumerate() {
            view.set_hot(
                i,
                th.pre_issue,
                self.usage[i],
                th.l1d_pending,
                th.l2_pending,
            );
        }
        if self.policy.wants_progress_counters() {
            for (i, s) in self.stats.iter().enumerate() {
                view.set_progress(i, s.committed, s.l2_misses, s.loads);
            }
        }
    }

    /// Advances the machine one cycle. Steady-state allocation-free: the
    /// policy view, fetch order, ready lists and MLP sample buffer are all
    /// long-lived buffers reused across cycles.
    pub fn step(&mut self) {
        self.step_observed(&mut ());
    }

    /// The one body of [`Self::step`], with the observer's stage clock
    /// around each stage (no clock at all for `()`). Kept out of line, as
    /// `step` was before the loop became generic, so the no-op instance
    /// compiles to the same machine code as that `step`.
    #[inline(never)]
    fn step_observed<O: RunObserver>(&mut self, clock: &mut O) {
        let mut view = std::mem::take(&mut self.cycle_view);
        let mut order = std::mem::take(&mut self.order_scratch);
        self.idle = IdleTrack::default();
        clock.start();
        self.fill_view(&mut view);
        self.policy.begin_cycle(&view);
        order.clear();
        self.policy.fetch_order(&view, &mut order);
        clock.lap(|p| &mut p.policy);

        self.drain_events();
        clock.lap(|p| &mut p.events);
        self.commit();
        clock.lap(|p| &mut p.commit);
        self.issue();
        clock.lap(|p| &mut p.issue);
        self.dispatch(&order);
        clock.lap(|p| &mut p.dispatch);
        self.fetch(&order, &view);
        clock.lap(|p| &mut p.fetch);
        self.sample_mlp();
        self.now += 1;
        self.cycle_view = view;
        self.order_scratch = order;
        clock.lap(|p| &mut p.other);
    }

    pub(crate) fn sample_mlp(&mut self) {
        self.mem
            .outstanding_l2_misses_into(self.now, &mut self.mlp_scratch);
        for (tid, &c) in self.mlp_scratch.iter().enumerate() {
            if c > 0 {
                self.stats[tid].mlp_sum += u64::from(c);
                self.stats[tid].mlp_cycles += 1;
            }
        }
    }

    /// Current per-thread occupancy of each controlled resource — the
    /// hardware usage counters of the paper's Section 3.4. Sampled by
    /// [`crate::watch::OccupancyRecorder`].
    pub fn thread_usage(&self, t: ThreadId) -> PerResource<u32> {
        self.usage[t.index()]
    }

    /// The thread's pending L1-data-miss count (the paper's slow/fast phase
    /// signal, Section 3.1.1).
    pub fn thread_l1d_pending(&self, t: ThreadId) -> u32 {
        self.threads[t.index()].l1d_pending
    }
}

#[cfg(test)]
mod tests;
