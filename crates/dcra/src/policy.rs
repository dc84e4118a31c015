//! The DCRA policy: classification + sharing model + enforcement, with
//! the paper's future-work degenerate-case detection as an optional mask
//! over the same model.

use crate::classify::{ActivityTracker, ThreadPhase};
use crate::sharing::{slow_share, SharingConfig, SharingFactor};
use serde::{Deserialize, Serialize};
use smt_isa::{PerResource, QueueKind, RegClass, ResourceKind, ThreadId};
use smt_policy_core::{CycleView, Policy};

/// Configuration of the DCRA policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DcraConfig {
    /// Sharing factors for queues and registers (tune with
    /// [`SharingConfig::for_memory_latency`] when sweeping latency).
    pub sharing: SharingConfig,
    /// Activity-counter reset value (paper: 256).
    pub activity_init: u32,
}

impl Default for DcraConfig {
    fn default() -> Self {
        DcraConfig {
            sharing: SharingConfig::default(),
            activity_init: ActivityTracker::DEFAULT_INIT,
        }
    }
}

/// Dynamically Controlled Resource Allocation (the paper's proposal).
///
/// Every cycle DCRA re-classifies each thread as fast/slow (pending L1 data
/// misses) and active/inactive per resource (activity counters), evaluates
/// the sharing model for each of the five controlled resources, and
/// fetch-stalls any slow-active thread whose usage meets or exceeds its
/// entitlement. Fetch priority among unstalled threads is ICOUNT.
///
/// # Examples
///
/// ```
/// use dcra::{Dcra, DcraConfig, SharingConfig};
///
/// // Baseline DCRA for the 300-cycle machine:
/// let policy = Dcra::default();
/// // DCRA tuned for a 500-cycle memory (Section 5.3):
/// let tuned = Dcra::new(DcraConfig {
///     sharing: SharingConfig::for_memory_latency(500),
///     ..DcraConfig::default()
/// });
/// # let _ = (policy, tuned);
/// ```
#[derive(Debug, Clone)]
pub struct Dcra {
    config: DcraConfig,
    activity: Option<ActivityTracker>,
    /// Per-resource `E_slow` computed this cycle (`None` = unlimited).
    limits: PerResource<Option<u32>>,
    /// Threads gated this cycle.
    gated: Vec<bool>,
    /// Phase of each thread this cycle, the sharing model's input.
    phases: Vec<ThreadPhase>,
    /// Memoization of the sharing-model evaluation: the limits (and the
    /// slow-active membership below) only depend on the phase vector and
    /// the per-resource active sets, so they are recomputed only when one
    /// of those inputs changed since the previous cycle.
    limits_valid: bool,
    /// An activity flag flipped since the limits were last computed.
    activity_dirty: bool,
    /// Resource totals the limits were last computed against (constant
    /// within one simulator run, but the public API allows differently
    /// shaped views cycle to cycle).
    last_totals: PerResource<u32>,
    /// Bitmask (over thread ids) of slow-active threads per resource, from
    /// the last limits recompute — the enforcement sweep walks only these.
    slow_active: PerResource<u8>,
    /// Degenerate-case detection, when on
    /// ([`Dcra::with_degenerate_detection`]).
    degeneracy: Option<Degeneracy>,
}

/// Re-evaluation window of the degenerate-case detector, in cycles.
const DEGENERATE_WINDOW: u64 = 8192;
/// A thread slow for at least this fraction of a window is a candidate.
const DEGENERATE_SLOW_FRACTION: f64 = 0.8;
/// Candidates whose window IPC is below this are degenerate.
const DEGENERATE_IPC: f64 = 0.1;

/// The degenerate-case detector's state (the paper's future work, §5.2
/// and §5.3).
///
/// The paper observes that mcf-like threads are *degenerate*: giving them
/// extra entries does raise their number of overlapping misses, "however,
/// this increase is hardly visible in the overall processor performance
/// due to the extremely low baseline performance, and comes at the expense
/// of slightly decreased performance of other threads". Over fixed
/// windows, a thread that was slow for most of the window *and* committed
/// almost nothing is marked degenerate for the next window, and is then
/// held to the even share of the active threads (`C = 0` for it) while
/// ordinary slow threads keep borrowing.
#[derive(Debug, Clone, Default)]
struct Degeneracy {
    window_start: u64,
    /// Cycles of the current window each thread spent slow.
    slow_cycles: Vec<u64>,
    /// Each thread's committed count at the start of the window.
    committed_base: Vec<u64>,
    /// Bitmask (over thread ids) of the threads held to the even share.
    degenerate: u8,
    /// Per-resource even share `slow_share(R, FA, SA, C = 0)`, from the
    /// last limits recompute (meaningful where a limit applies).
    even: PerResource<u32>,
}

impl Degeneracy {
    /// Counts this cycle's slow threads and, at the end of a window,
    /// re-classifies every thread. The first call only sizes the state.
    fn roll(&mut self, view: &CycleView) {
        let n = view.thread_count();
        let committed = view.committed_counts();
        if self.slow_cycles.len() != n {
            self.slow_cycles = vec![0; n];
            self.committed_base = committed.to_vec();
            self.degenerate = 0;
            self.window_start = view.now;
            return;
        }
        for (slow, &l1p) in self.slow_cycles.iter_mut().zip(view.l1d_pendings()) {
            if l1p > 0 {
                *slow += 1;
            }
        }
        let elapsed = view.now.saturating_sub(self.window_start);
        if elapsed < DEGENERATE_WINDOW {
            return;
        }
        self.degenerate = 0;
        let lanes = self.slow_cycles.iter_mut().zip(&mut self.committed_base);
        for (i, ((slow, base), &now_committed)) in lanes.zip(committed).enumerate() {
            let slow_frac = *slow as f64 / elapsed as f64;
            // Counters can rewind when the simulator resets statistics
            // between warm-up and measurement.
            let done = now_committed.saturating_sub(*base);
            let ipc = done as f64 / elapsed as f64;
            if slow_frac >= DEGENERATE_SLOW_FRACTION && ipc < DEGENERATE_IPC {
                self.degenerate |= 1 << i;
            }
            *slow = 0;
            *base = now_committed;
        }
        self.window_start = view.now;
    }
}

impl Default for Dcra {
    fn default() -> Self {
        Dcra::new(DcraConfig::default())
    }
}

impl Dcra {
    /// Creates the policy with the given configuration.
    pub fn new(config: DcraConfig) -> Self {
        Dcra {
            config,
            activity: None,
            limits: PerResource::default(),
            gated: Vec::new(),
            phases: Vec::new(),
            limits_valid: false,
            activity_dirty: false,
            last_totals: PerResource::default(),
            slow_active: PerResource::default(),
            degeneracy: None,
        }
    }

    /// DCRA at its default configuration plus degenerate-case detection
    /// (DCRA-DC, the paper's future-work extension): a slow thread that
    /// was slow for most of an 8192-cycle window and committed almost
    /// nothing in it is capped at the even share of the active threads
    /// for the next window, instead of its borrowed `E_slow`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcra::Dcra;
    /// use smt_policy_core::Policy;
    ///
    /// assert_eq!(Dcra::with_degenerate_detection().name(), "DCRA-DC");
    /// ```
    pub fn with_degenerate_detection() -> Self {
        Dcra {
            degeneracy: Some(Degeneracy::default()),
            ..Dcra::default()
        }
    }

    /// The per-resource slow-thread entitlements computed in the last
    /// cycle (`None` where no limit applies).
    pub fn current_limits(&self) -> &PerResource<Option<u32>> {
        &self.limits
    }

    /// `true` if thread `t` was fetch-gated in the last cycle.
    pub fn is_gated(&self, t: ThreadId) -> bool {
        self.gated.get(t.index()).copied().unwrap_or(false)
    }

    fn activity(&mut self, threads: usize) -> &mut ActivityTracker {
        let init = self.config.activity_init;
        self.activity
            .get_or_insert_with(|| ActivityTracker::new(threads, init))
    }
}

impl Policy for Dcra {
    fn name(&self) -> &'static str {
        if self.degeneracy.is_some() {
            "DCRA-DC"
        } else {
            "DCRA"
        }
    }

    fn begin_cycle(&mut self, view: &CycleView) {
        let n = view.thread_count();
        if let Some(d) = self.degeneracy.as_mut() {
            d.roll(view);
        }
        self.activity_dirty |= self.activity(n).tick();

        // Re-classify phases from the pending-miss lane, noting whether
        // anything actually changed since the previous cycle.
        let l1d = view.l1d_pendings();
        let mut phases_changed = self.phases.len() != n;
        if phases_changed {
            self.phases.clear();
            self.phases
                .extend(l1d.iter().map(|&c| ThreadPhase::from_pending_misses(c)));
        } else {
            for (p, &c) in self.phases.iter_mut().zip(l1d) {
                let fresh = ThreadPhase::from_pending_misses(c);
                phases_changed |= *p != fresh;
                *p = fresh;
            }
        }

        // The sharing model is a pure function of (phases, active sets,
        // totals); skip its evaluation on the (common) cycles where no
        // input moved and reuse the memoized limits and slow-active sets.
        if phases_changed
            || self.activity_dirty
            || !self.limits_valid
            || self.last_totals != view.totals
        {
            let activity = self.activity.as_ref().expect("initialised above");
            for kind in ResourceKind::ALL {
                // Count fast-active and slow-active threads for this
                // resource, remembering who the slow-active ones are.
                let mut fa = 0u32;
                let mut sa = 0u32;
                let mut slow_mask = 0u8;
                for i in 0..n {
                    if !activity.is_active(ThreadId::new(i), kind) {
                        continue;
                    }
                    match self.phases[i] {
                        ThreadPhase::Fast => fa += 1,
                        ThreadPhase::Slow => {
                            sa += 1;
                            slow_mask |= 1 << i;
                        }
                    }
                }
                self.slow_active[kind] = slow_mask;
                if sa == 0 {
                    self.limits[kind] = None;
                    continue;
                }
                let factor = if kind.is_queue() {
                    self.config.sharing.queue_factor
                } else {
                    self.config.sharing.reg_factor
                };
                self.limits[kind] = Some(slow_share(view.totals[kind], fa, sa, factor));
                if let Some(d) = self.degeneracy.as_mut() {
                    d.even[kind] = slow_share(view.totals[kind], fa, sa, SharingFactor::Zero);
                }
            }
            self.limits_valid = true;
            self.activity_dirty = false;
            self.last_totals = view.totals;
        }

        // Enforcement every cycle (usage moves constantly): gate
        // slow-active threads at/above their share, degenerate ones at/above
        // the even share.
        self.gated.clear();
        self.gated.resize(n, false);
        let usages = view.usages();
        for kind in ResourceKind::ALL {
            let Some(e_slow) = self.limits[kind] else {
                continue;
            };
            let mut slow = self.slow_active[kind];
            if let Some(d) = &self.degeneracy {
                gate_at(
                    &mut self.gated,
                    usages,
                    kind,
                    slow & d.degenerate,
                    d.even[kind],
                );
                slow &= !d.degenerate;
            }
            gate_at(&mut self.gated, usages, kind, slow, e_slow);
        }
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        // ICOUNT fetch priority (gating is separate, via `fetch_gate`).
        smt_policies::icount_order_into(view, order);
    }

    fn fetch_gate(&mut self, t: ThreadId, _view: &CycleView) -> bool {
        !self.is_gated(t)
    }

    fn on_dispatch(&mut self, t: ThreadId, queue: QueueKind, dest: Option<RegClass>) {
        let activity = self
            .activity
            .as_mut()
            .expect("on_dispatch before begin_cycle");
        self.activity_dirty |= activity.on_alloc(t, queue.resource());
        if let Some(d) = dest {
            self.activity_dirty |= activity.on_alloc(t, d.resource());
        }
    }

    fn wants_progress_counters(&self) -> bool {
        // The degeneracy windows read per-thread committed counts.
        self.degeneracy.is_some()
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        if self.degeneracy.is_some() {
            // The detector counts slow cycles and rolls its window on cycle
            // boundaries; it is not replayed, so DCRA-DC keeps stepping.
            return 0;
        }
        // The only per-cycle state is the activity decay. Phases and usage
        // are frozen on idle cycles, so the gated set — and therefore every
        // fetch_gate answer — can only change when a decaying FP counter
        // flips a thread inactive; `idle_replay` caps the span just short
        // of the first flip.
        match self.activity.as_mut() {
            Some(activity) => activity.idle_replay(n),
            // No cycle has run yet; nothing is decaying to replay.
            None => 0,
        }
    }
}

/// Gates every thread in `mask` whose `kind` usage meets or exceeds `cap`.
fn gate_at(
    gated: &mut [bool],
    usages: &[PerResource<u32>],
    kind: ResourceKind,
    mut mask: u8,
    cap: u32,
) {
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        if usages[i][kind] >= cap {
            gated[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_policy_core::ThreadView;

    /// One thread's test fixture: (icount, l1d_pending, usage overrides).
    type ThreadSpec<'a> = (u32, u32, &'a [(ResourceKind, u32)]);

    fn view(specs: &[ThreadSpec]) -> CycleView {
        let threads: Vec<ThreadView> = specs
            .iter()
            .map(|(ic, l1p, usages)| {
                let mut tv = ThreadView {
                    icount: *ic,
                    l1d_pending: *l1p,
                    ..ThreadView::default()
                };
                for (k, v) in usages.iter() {
                    tv.usage[*k] = *v;
                }
                tv
            })
            .collect();
        CycleView::new(0, PerResource::filled(32), &threads)
    }

    fn inverse_dcra() -> Dcra {
        Dcra::new(DcraConfig {
            sharing: SharingConfig {
                queue_factor: crate::SharingFactor::Inverse,
                reg_factor: crate::SharingFactor::Inverse,
            },
            ..DcraConfig::default()
        })
    }

    #[test]
    fn slow_thread_over_share_is_gated() {
        let mut d = inverse_dcra();
        // 2 threads: T0 slow holding 24 LSQ entries, T1 fast.
        // E_slow = 32/2 * (1 + 1/2) = 24 -> usage 24 >= 24: gated.
        let v = view(&[(10, 1, &[(ResourceKind::LsQueue, 24)]), (10, 0, &[])]);
        d.begin_cycle(&v);
        assert_eq!(d.current_limits()[ResourceKind::LsQueue], Some(24));
        assert!(d.is_gated(ThreadId::new(0)));
        assert!(!d.is_gated(ThreadId::new(1)));
        assert!(!d.fetch_gate(ThreadId::new(0), &v));
        assert!(d.fetch_gate(ThreadId::new(1), &v));
    }

    #[test]
    fn slow_thread_below_share_is_not_gated() {
        let mut d = inverse_dcra();
        let v = view(&[(10, 1, &[(ResourceKind::LsQueue, 23)]), (10, 0, &[])]);
        d.begin_cycle(&v);
        assert!(!d.is_gated(ThreadId::new(0)));
    }

    #[test]
    fn fast_threads_are_never_gated() {
        let mut d = inverse_dcra();
        // T0 fast but hogging the queue: DCRA leaves fast threads alone.
        let v = view(&[(10, 0, &[(ResourceKind::IntQueue, 32)]), (10, 1, &[])]);
        d.begin_cycle(&v);
        assert!(!d.is_gated(ThreadId::new(0)));
    }

    #[test]
    fn no_slow_threads_means_no_limits() {
        let mut d = inverse_dcra();
        let v = view(&[(10, 0, &[]), (10, 0, &[])]);
        d.begin_cycle(&v);
        for kind in ResourceKind::ALL {
            assert_eq!(d.current_limits()[kind], None);
        }
    }

    #[test]
    fn inactive_fp_threads_donate_their_share() {
        let mut d = inverse_dcra();
        // Let thread 1's FP activity decay to zero (integer thread), with
        // thread 0 slow and FP-active via dispatches.
        let v = view(&[(10, 1, &[]), (10, 0, &[])]);
        for _ in 0..300 {
            d.begin_cycle(&v);
            d.on_dispatch(ThreadId::new(0), QueueKind::Fp, Some(RegClass::Fp));
        }
        // FP queue: only T0 active (SA=1, FA=0) -> full 32 entries.
        assert_eq!(d.current_limits()[ResourceKind::FpQueue], Some(32));
        // LSQ: both active (always-active resource), SA=1 FA=1 -> 24.
        assert_eq!(d.current_limits()[ResourceKind::LsQueue], Some(24));
    }

    #[test]
    fn phases_tracked_per_thread() {
        let mut d = Dcra::default();
        let v = view(&[(0, 2, &[]), (0, 0, &[])]);
        d.begin_cycle(&v);
        assert_eq!(d.phases, [ThreadPhase::Slow, ThreadPhase::Fast]);
    }

    impl Dcra {
        /// `true` if thread `t` is currently classified degenerate.
        fn is_degenerate(&self, t: ThreadId) -> bool {
            self.degeneracy
                .as_ref()
                .is_some_and(|d| (d.degenerate >> t.index()) & 1 != 0)
        }
    }

    /// A view at cycle `now` from per-thread `(l1d_pending, committed)`.
    fn timed_view(now: u64, specs: &[(u32, u64)]) -> CycleView {
        let threads: Vec<ThreadView> = specs
            .iter()
            .map(|&(l1p, committed)| ThreadView {
                l1d_pending: l1p,
                committed,
                ..ThreadView::default()
            })
            .collect();
        CycleView::new(now, PerResource::filled(32), &threads)
    }

    #[test]
    fn detects_chronically_slow_unproductive_thread() {
        let mut p = Dcra::with_degenerate_detection();
        let w = DEGENERATE_WINDOW;
        // Thread 0: always slow, never commits. Thread 1: fast, commits.
        p.begin_cycle(&timed_view(0, &[(1, 0), (0, 0)]));
        for now in 1..=w + 1 {
            p.begin_cycle(&timed_view(now, &[(1, 10), (0, now * 2)]));
        }
        assert!(p.is_degenerate(ThreadId::new(0)));
        assert!(!p.is_degenerate(ThreadId::new(1)));
    }

    #[test]
    fn productive_slow_thread_is_not_degenerate() {
        let mut p = Dcra::with_degenerate_detection();
        let w = DEGENERATE_WINDOW;
        // Slow but committing at IPC 0.5.
        p.begin_cycle(&timed_view(0, &[(1, 0)]));
        for now in 1..=w + 1 {
            p.begin_cycle(&timed_view(now, &[(1, now / 2)]));
        }
        assert!(!p.is_degenerate(ThreadId::new(0)));
    }

    #[test]
    fn degenerate_thread_loses_its_borrowed_share() {
        let mut p = Dcra::with_degenerate_detection();
        let w = DEGENERATE_WINDOW;
        // Make thread 0 degenerate.
        p.begin_cycle(&timed_view(0, &[(1, 0), (0, 0)]));
        for now in 1..=w + 1 {
            p.begin_cycle(&timed_view(now, &[(1, 0), (0, now * 2)]));
        }
        assert!(p.is_degenerate(ThreadId::new(0)));
        // Usage 17 with 1 fast + 1 slow active: even share = 16, borrowed
        // share (1/(A+4) at 2 active) = 16·(1+1/6) ≈ 19. A degenerate
        // thread at usage 17 must be gated; an ordinary one must not.
        let mut v = timed_view(w + 2, &[(1, 0), (0, 0)]);
        v.set_thread(
            0,
            &ThreadView {
                l1d_pending: 1,
                usage: PerResource::filled(17),
                ..ThreadView::default()
            },
        );
        p.begin_cycle(&v);
        assert!(
            !p.fetch_gate(ThreadId::new(0), &v),
            "degenerate thread gated at even share"
        );

        let mut fresh = Dcra::with_degenerate_detection();
        fresh.begin_cycle(&v);
        assert!(
            fresh.fetch_gate(ThreadId::new(0), &v),
            "non-degenerate thread keeps its borrowed share"
        );
    }

    #[test]
    fn classification_recovers() {
        let mut p = Dcra::with_degenerate_detection();
        let w = DEGENERATE_WINDOW;
        p.begin_cycle(&timed_view(0, &[(1, 0)]));
        for now in 1..=w + 1 {
            p.begin_cycle(&timed_view(now, &[(1, 0)]));
        }
        assert!(p.is_degenerate(ThreadId::new(0)));
        // Next window: the thread commits briskly again.
        let base = w + 1;
        for now in base + 1..=base + w + 1 {
            p.begin_cycle(&timed_view(now, &[(1, now * 2)]));
        }
        assert!(!p.is_degenerate(ThreadId::new(0)), "degeneracy must decay");
    }

    #[test]
    fn fetch_order_is_icount() {
        let mut d = Dcra::default();
        let v = view(&[(9, 0, &[]), (3, 0, &[]), (6, 0, &[])]);
        let mut buf = Vec::new();
        d.fetch_order(&v, &mut buf);
        let order: Vec<usize> = buf.iter().map(|t| t.index()).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}
