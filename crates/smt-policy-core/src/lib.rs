//! The resource-allocation / fetch-policy interface.
//!
//! The simulator consults a [`Policy`] at three points every cycle —
//! fetch ordering, fetch gating, dispatch gating — and notifies it of the
//! events the paper's policies key on (fetch, dispatch-time allocation,
//! L2 miss detection, load completion, squash). Instruction-fetch policies
//! (ICOUNT, STALL, FLUSH, DG, PDG, FLUSH++) use only the gates and events;
//! *allocation* policies (SRA, DCRA) additionally use the per-thread
//! resource-usage counters in the [`CycleView`] — exactly the distinction
//! Section 3.3 of the paper draws.
//!
//! The [`CycleView`] is stored *struct-of-arrays*: one contiguous lane per
//! per-thread quantity (icount, pending-miss counters, usage, commit
//! counters). Policies that rank or scan threads every cycle — the ICOUNT
//! sort, DCRA's classification pass, FLUSH++'s window rollover — read the
//! lane they need via the batch accessors ([`CycleView::icounts`],
//! [`CycleView::l1d_pendings`], ...) instead of striding over an
//! array-of-structs, so the per-cycle scans touch only the bytes they use.
//! [`ThreadView`] remains as the *record* form: views are built from (and
//! tests construct them with) per-thread records via [`CycleView::new`].
//!
//! This crate sits *below* both the concrete policy crates (`smt-policies`,
//! `dcra`) and the simulator (`smt-sim`), so the simulator can depend on
//! the concrete policies and dispatch them statically through its
//! `AnyPolicy` enum. `smt-sim` re-exports everything here under
//! `smt_sim::policy`, which remains the canonical import path for
//! simulator users.

#![warn(missing_docs)]

use smt_isa::{PackedInst, PerResource, QueueKind, RegClass, ResourceKind, ThreadId};

/// Per-thread state visible to policies each cycle, in record form.
///
/// These correspond to the hardware counters of Section 3.4: per-thread
/// queue/register occupancy and the pending-L1-miss counter, plus the
/// ICOUNT-style pre-issue instruction count that fetch policies use.
///
/// Inside a [`CycleView`] the same quantities are stored as per-field
/// lanes; this struct is the unit views are built from ([`CycleView::new`],
/// [`CycleView::set_thread`]).
#[derive(Debug, Clone, Default)]
pub struct ThreadView {
    /// Instructions in pre-issue stages (fetch queue + issue queues).
    pub icount: u32,
    /// Currently allocated entries of each controlled resource.
    pub usage: PerResource<u32>,
    /// Loads with an outstanding L1 data miss.
    pub l1d_pending: u32,
    /// Loads with a *detected* outstanding L2 miss (detection lags the
    /// access by the L2 latency, as in the paper's STALL discussion).
    pub l2_pending: u32,
    /// Instructions committed so far.
    pub committed: u64,
    /// L2 misses so far (for FLUSH++'s workload pressure heuristic).
    pub l2_misses: u64,
    /// Loads executed so far.
    pub loads: u64,
}

/// Machine-wide state visible to policies each cycle.
///
/// Stored struct-of-arrays: one lane per per-thread field, so per-cycle
/// policy scans (the ICOUNT sort, DCRA's classification, gating sweeps)
/// are contiguous. The simulator owns long-lived `CycleView` buffers and
/// refreshes them in place each cycle (no per-cycle allocation); policies
/// only ever see a shared reference.
///
/// # Examples
///
/// ```
/// use smt_policy_core::{CycleView, ThreadView};
/// use smt_isa::PerResource;
///
/// let view = CycleView::new(
///     7,
///     PerResource::filled(80),
///     &[
///         ThreadView { icount: 3, ..ThreadView::default() },
///         ThreadView { icount: 9, ..ThreadView::default() },
///     ],
/// );
/// assert_eq!(view.thread_count(), 2);
/// assert_eq!(view.icounts(), &[3, 9]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CycleView {
    /// Current cycle.
    pub now: u64,
    /// Total entries of each controlled resource.
    pub totals: PerResource<u32>,
    icount: Vec<u32>,
    l1d_pending: Vec<u32>,
    l2_pending: Vec<u32>,
    usage: Vec<PerResource<u32>>,
    committed: Vec<u64>,
    l2_misses: Vec<u64>,
    loads: Vec<u64>,
}

impl CycleView {
    /// Builds a view from per-thread records.
    pub fn new(now: u64, totals: PerResource<u32>, threads: &[ThreadView]) -> Self {
        let mut v = CycleView {
            now,
            totals,
            ..CycleView::default()
        };
        v.resize(threads.len());
        for (i, tv) in threads.iter().enumerate() {
            v.set_thread(i, tv);
        }
        v
    }

    /// Resizes every lane to `n` threads (new entries zeroed). Existing
    /// entries are retained; the simulator overwrites them all each cycle.
    pub fn resize(&mut self, n: usize) {
        self.icount.resize(n, 0);
        self.l1d_pending.resize(n, 0);
        self.l2_pending.resize(n, 0);
        self.usage.resize(n, PerResource::default());
        self.committed.resize(n, 0);
        self.l2_misses.resize(n, 0);
        self.loads.resize(n, 0);
    }

    /// Scatters one thread's record into the lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (call [`CycleView::resize`] first).
    pub fn set_thread(&mut self, i: usize, tv: &ThreadView) {
        self.set_hot(i, tv.icount, tv.usage, tv.l1d_pending, tv.l2_pending);
        self.set_progress(i, tv.committed, tv.l2_misses, tv.loads);
    }

    /// Refreshes one thread's per-cycle ("hot") lanes: icount, usage and
    /// the pending-miss counters. The progress counters are refreshed
    /// separately ([`CycleView::set_progress`]) so a caller can skip them
    /// for policies that never read them
    /// ([`Policy::wants_progress_counters`]).
    #[inline]
    pub fn set_hot(
        &mut self,
        i: usize,
        icount: u32,
        usage: PerResource<u32>,
        l1d_pending: u32,
        l2_pending: u32,
    ) {
        self.icount[i] = icount;
        self.usage[i] = usage;
        self.l1d_pending[i] = l1d_pending;
        self.l2_pending[i] = l2_pending;
    }

    /// Refreshes one thread's cumulative progress lanes (committed, L2
    /// misses, loads). Only meaningful to policies that opted in via
    /// [`Policy::wants_progress_counters`]; for everyone else the caller
    /// may leave these lanes stale.
    #[inline]
    pub fn set_progress(&mut self, i: usize, committed: u64, l2_misses: u64, loads: u64) {
        self.committed[i] = committed;
        self.l2_misses[i] = l2_misses;
        self.loads[i] = loads;
    }

    /// Number of hardware threads.
    #[inline]
    pub fn thread_count(&self) -> usize {
        self.icount.len()
    }

    // ------------------------------------------------- per-thread accessors

    /// Pending L1 data misses of thread `t`.
    #[inline]
    pub fn l1d_pending(&self, t: ThreadId) -> u32 {
        self.l1d_pending[t.index()]
    }

    /// Detected pending L2 misses of thread `t`.
    #[inline]
    pub fn l2_pending(&self, t: ThreadId) -> u32 {
        self.l2_pending[t.index()]
    }

    /// Resource usage of thread `t`.
    #[inline]
    pub fn usage(&self, t: ThreadId) -> &PerResource<u32> {
        &self.usage[t.index()]
    }

    // ------------------------------------------------------ batch accessors

    /// All threads' pre-issue instruction counts, indexed by thread id —
    /// the lane the ICOUNT priority sort scans.
    #[inline]
    pub fn icounts(&self) -> &[u32] {
        &self.icount
    }

    /// All threads' pending-L1-data-miss counters (DCRA's fast/slow
    /// classification input).
    #[inline]
    pub fn l1d_pendings(&self) -> &[u32] {
        &self.l1d_pending
    }

    /// All threads' resource-usage counters (allocation-policy gating
    /// sweeps).
    #[inline]
    pub fn usages(&self) -> &[PerResource<u32>] {
        &self.usage
    }

    /// All threads' committed-instruction counters.
    #[inline]
    pub fn committed_counts(&self) -> &[u64] {
        &self.committed
    }

    /// All threads' L2-miss counters.
    #[inline]
    pub fn l2_miss_counts(&self) -> &[u64] {
        &self.l2_misses
    }

    /// All threads' executed-load counters.
    #[inline]
    pub fn load_counts(&self) -> &[u64] {
        &self.loads
    }

    /// Increments the usage mirror of thread `t` for `kind` — used by the
    /// simulator's dispatch stage so hard-partition policies see
    /// same-cycle allocations immediately.
    #[inline]
    pub fn bump_usage(&mut self, t: ThreadId, kind: ResourceKind) {
        self.usage[t.index()][kind] += 1;
    }
}

/// Reaction to a detected L2 miss (Tullsen & Brown's STALL vs FLUSH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissResponse {
    /// Do nothing special.
    Continue,
    /// Stop fetching from the thread until the miss is serviced.
    Stall,
    /// Squash every instruction of the thread younger than the missing load
    /// and stall fetch until the miss is serviced.
    Flush,
}

/// A fetch/resource-allocation policy.
///
/// Implementations must be deterministic: the simulator is fully
/// reproducible for a given seed and the experiments depend on it.
pub trait Policy {
    /// Short name used in reports (e.g. `"DCRA"`, `"FLUSH++"`).
    fn name(&self) -> &'static str;

    /// Called once at the start of every cycle, before any stage runs.
    fn begin_cycle(&mut self, _view: &CycleView) {}

    /// Appends the threads in fetch-priority order (best first) to
    /// `order`. Threads omitted are not fetched this cycle.
    ///
    /// The buffer arrives cleared and is reused by the simulator across
    /// cycles, so implementations stay allocation-free in steady state.
    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>);

    /// `true` if thread `t` may fetch this cycle. Called only for threads
    /// in the fetch order. This is the *response action* of stalling
    /// policies (STALL, DG, PDG) and the enforcement point of DCRA.
    fn fetch_gate(&mut self, _t: ThreadId, _view: &CycleView) -> bool {
        true
    }

    /// `true` if thread `t` may dispatch (rename) an instruction occupying
    /// `queue` and optionally a `dest` rename register. Hard-partition
    /// policies (SRA) enforce their limits here.
    fn may_dispatch(
        &self,
        _t: ThreadId,
        _queue: QueueKind,
        _dest: Option<RegClass>,
        _view: &CycleView,
    ) -> bool {
        true
    }

    /// Notification: thread `t` fetched `inst` (PDG trains its miss
    /// predictor here). The record is the 16-byte packed hot core — class,
    /// pc, dest and dependence deltas; cold mem/branch payloads stay in
    /// the trace store's sidecar lanes and are not part of this view.
    fn on_fetch_inst(&mut self, _t: ThreadId, _inst: &PackedInst) {}

    /// Notification: thread `t` dispatched an instruction into `queue`,
    /// allocating a `dest`-class rename register if `Some` (DCRA resets its
    /// activity counters here).
    fn on_dispatch(&mut self, _t: ThreadId, _queue: QueueKind, _dest: Option<RegClass>) {}

    /// A load of thread `t` has been *detected* to miss in the L2 (the
    /// detection happens one L2 latency after issue). The returned
    /// [`MissResponse`] is applied by the simulator.
    fn on_l2_miss_detected(&mut self, _t: ThreadId, _view: &CycleView) -> MissResponse {
        MissResponse::Continue
    }

    /// Notification: a load of thread `t` completed. `l1_missed` reports
    /// whether it had missed the L1 (PDG trains and releases its gate
    /// here, covering loads its predictor flagged that actually hit).
    fn on_load_complete(&mut self, _t: ThreadId, _pc: u64, _l1_missed: bool) {}

    /// Notification: an in-flight instruction of thread `t` was squashed
    /// (branch misprediction or policy flush). Lets stateful policies
    /// release bookkeeping tied to the instruction.
    fn on_squash_inst(&mut self, _t: ThreadId, _inst: &PackedInst) {}

    /// `true` if the policy's [`Policy::may_dispatch`] can ever refuse a
    /// dispatch, and so reads the [`CycleView`] there. When `false` (the
    /// default, correct for every policy that leaves `may_dispatch` at its
    /// always-`true` default), the simulator's dispatch stage skips the
    /// mid-cycle view refresh and the per-instruction policy call, and
    /// dispatches each thread's burst against the structural limits alone.
    /// Of the canonical nine only SRA overrides it.
    fn wants_dispatch_view(&self) -> bool {
        false
    }

    /// `true` if the policy reads the cumulative progress counters of the
    /// view — [`CycleView::committed_counts`],
    /// [`CycleView::l2_miss_counts`] or [`CycleView::load_counts`]. When
    /// `false` (the default) the simulator skips refreshing those lanes
    /// each cycle; policies that read them without overriding this hint
    /// see stale values. FLUSH++ (window pressure) and DCRA with degenerate-case
    /// detection override it.
    fn wants_progress_counters(&self) -> bool {
        false
    }

    /// `true` if the policy consumes [`Policy::on_squash_inst`]. The
    /// simulator skips the packed-record lookup for every squashed
    /// instruction when the notification would be a no-op (squash rates
    /// run at roughly half of fetch, so this is a measurable hot-path
    /// saving); override alongside `on_squash_inst`.
    fn wants_squash_inst(&self) -> bool {
        false
    }

    /// Fast-forward hook: replay up to `n` *idle* cycles' worth of
    /// per-cycle policy side effects arithmetically and return how many
    /// were replayed.
    ///
    /// The simulator calls this after a cycle in which the whole machine
    /// was provably idle — no event delivered, nothing committed, issued,
    /// dispatched or fetched — and it has computed that the machine state
    /// cannot change before `view.now + n` (next event-wheel deadline,
    /// dispatch eligibility, I-cache stall expiry and MSHR fill arrival
    /// are all at least `n` cycles away). `view` is the machine state the
    /// skipped cycles would all observe; `view.now` is the first skipped
    /// cycle.
    ///
    /// A policy returning `k > 0` asserts that for the cycles
    /// `view.now .. view.now + k`:
    ///
    /// * [`Policy::begin_cycle`] and [`Policy::fetch_order`] would have
    ///   had no *externally observable* effect beyond what this call
    ///   replays internally (rotation state, decay counters, window
    ///   rollovers, ...), and
    /// * every [`Policy::fetch_gate`] decision would have been identical
    ///   to the decision made in the idle cycle just executed (the
    ///   simulator replays `gated_cycles` statistics under that
    ///   assumption), and
    /// * every [`Policy::may_dispatch`] decision would have been identical
    ///   too (the simulator replays `blocked_policy` charges and assumes a
    ///   refused dispatch stays refused for the whole span), and
    /// * [`Policy::fetch_order`] would have listed the same *set* of
    ///   threads (the permutation is irrelevant on an idle cycle).
    ///
    /// Returning less than `n` ends the fast-forward early (the simulator
    /// resumes stepping, so a policy whose decisions change mid-span —
    /// e.g. DCRA when an activity counter is about to flip a thread
    /// inactive — simply caps the jump). The default returns `0`: a policy
    /// that does not override this never fast-forwards, which is always
    /// correct, only slower.
    fn on_idle_cycles(&mut self, _n: u64, _view: &CycleView) -> u64 {
        0
    }
}

/// Round-robin over runnable threads — the simplest possible fetch order,
/// used as the default and as the paper's ROUND-ROBIN baseline.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    start: usize,
}

impl Policy for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        let n = view.thread_count();
        let start = self.start;
        self.start = (self.start + 1) % n.max(1);
        order.extend((0..n).map(|i| ThreadId::new((start + i) % n)));
    }

    fn on_idle_cycles(&mut self, n: u64, view: &CycleView) -> u64 {
        // The only per-cycle state is the rotation origin, which advances
        // once per `fetch_order` call; RR never gates, so the order
        // permutation is the sole effect and it is invisible on idle
        // cycles.
        let m = view.thread_count().max(1);
        self.start = (self.start + (n % m as u64) as usize) % m;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: usize) -> CycleView {
        CycleView::new(0, PerResource::filled(80), &vec![ThreadView::default(); n])
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        let v = view(3);
        let mut a = Vec::new();
        let mut b = Vec::new();
        rr.fetch_order(&v, &mut a);
        rr.fetch_order(&v, &mut b);
        assert_eq!(a[0].index(), 0);
        assert_eq!(b[0].index(), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn default_gates_are_open() {
        let mut rr = RoundRobin::default();
        let v = view(2);
        assert!(rr.fetch_gate(ThreadId::new(0), &v));
        assert!(rr.may_dispatch(ThreadId::new(0), QueueKind::Int, Some(RegClass::Int), &v));
        assert!(!rr.wants_dispatch_view());
        assert_eq!(
            rr.on_l2_miss_detected(ThreadId::new(0), &v),
            MissResponse::Continue
        );
    }

    #[test]
    fn idle_replay_matches_stepped_rotation() {
        // Skipping k idle cycles must leave RR in exactly the state k
        // fetch_order calls would have — including spans far larger than
        // the thread count, where the `n % threads` arithmetic carries
        // the load.
        let v = view(3);
        for warm in [0usize, 1, 2, 5] {
            for k in [0u64, 1, 2, 3, 7, 50, 4_099, 1_000_003] {
                let mut stepped = RoundRobin::default();
                let mut jumped = RoundRobin::default();
                // Desynchronise the starting origin from zero.
                for _ in 0..warm {
                    let (mut buf, mut buf2) = (Vec::new(), Vec::new());
                    stepped.fetch_order(&v, &mut buf);
                    jumped.fetch_order(&v, &mut buf2);
                }
                for _ in 0..k {
                    let mut buf = Vec::new();
                    stepped.fetch_order(&v, &mut buf);
                }
                assert_eq!(jumped.on_idle_cycles(k, &v), k);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                stepped.fetch_order(&v, &mut a);
                jumped.fetch_order(&v, &mut b);
                assert_eq!(a, b, "rotation drifted after replaying {k} cycles");
            }
        }
    }

    #[test]
    fn default_idle_replay_declines() {
        // A policy that does not override the hook must never be
        // fast-forwarded past.
        struct Plain;
        impl Policy for Plain {
            fn name(&self) -> &'static str {
                "PLAIN"
            }
            fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
                order.extend((0..view.thread_count()).map(ThreadId::new));
            }
        }
        assert_eq!(Plain.on_idle_cycles(1_000, &view(2)), 0);
    }

    #[test]
    fn lanes_mirror_records() {
        let threads = [
            ThreadView {
                icount: 4,
                l1d_pending: 1,
                l2_pending: 2,
                committed: 30,
                l2_misses: 5,
                loads: 11,
                ..ThreadView::default()
            },
            ThreadView::default(),
        ];
        let mut v = CycleView::new(9, PerResource::filled(80), &threads);
        assert_eq!(v.icounts(), &[4, 0]);
        assert_eq!(v.l1d_pendings(), &[1, 0]);
        assert_eq!(v.l2_pending(ThreadId::new(0)), 2);
        assert_eq!(v.committed_counts(), &[30, 0]);
        assert_eq!(v.l2_miss_counts(), &[5, 0]);
        assert_eq!(v.load_counts(), &[11, 0]);
        let t0 = ThreadId::new(0);
        v.bump_usage(t0, ResourceKind::IntQueue);
        assert_eq!(v.usage(t0)[ResourceKind::IntQueue], 1);
        assert_eq!(v.usages()[0][ResourceKind::IntQueue], 1);
    }
}
