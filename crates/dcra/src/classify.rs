//! Thread phase and resource-activity classification (paper Section 3.1).

use smt_isa::{PerResource, ResourceKind, ThreadId};

/// Execution-phase classification of a thread (Section 3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadPhase {
    /// No pending L1 data misses: the thread exploits ILP on a small,
    /// rapidly recycling set of resources.
    Fast,
    /// At least one pending L1 data miss: the thread will hold resources
    /// for a long time and benefits from extra entries (memory
    /// parallelism).
    Slow,
}

impl ThreadPhase {
    /// Classifies from the pending L1 data-miss counter.
    #[inline]
    pub fn from_pending_misses(l1d_pending: u32) -> Self {
        if l1d_pending > 0 {
            ThreadPhase::Slow
        } else {
            ThreadPhase::Fast
        }
    }
}

/// Per-thread, per-resource activity counters (Section 3.1.2).
///
/// Every time a thread allocates an entry of a resource the counter resets
/// to its initial value (256 in the paper); it decrements every cycle the
/// resource goes unused. At zero the thread is *inactive* for that resource
/// and its share is redistributed. The paper tracks activity only for the
/// FP resources (an integer program never uses the FP queue or registers);
/// integer and load/store resources are considered always active, which
/// this implementation mirrors.
///
/// # Examples
///
/// ```
/// use dcra::ActivityTracker;
/// use smt_isa::{ResourceKind, ThreadId};
///
/// let mut a = ActivityTracker::new(2, 4); // tiny window for the example
/// let t = ThreadId::new(0);
/// assert!(a.is_active(t, ResourceKind::FpQueue));
/// for _ in 0..4 { a.tick(); }
/// assert!(!a.is_active(t, ResourceKind::FpQueue)); // decayed
/// a.on_alloc(t, ResourceKind::FpQueue);
/// assert!(a.is_active(t, ResourceKind::FpQueue));  // reset on use
/// ```
#[derive(Debug, Clone)]
pub struct ActivityTracker {
    counters: Vec<PerResource<u32>>,
    init: u32,
}

impl ActivityTracker {
    /// The paper's initial/reset counter value (Section 3.4, chosen from a
    /// 64–8192 sweep).
    pub const DEFAULT_INIT: u32 = 256;

    /// Creates a tracker for `threads` contexts with the given reset value.
    /// All threads start *active* for every resource.
    pub fn new(threads: usize, init: u32) -> Self {
        ActivityTracker {
            counters: vec![PerResource::filled(init); threads],
            init,
        }
    }

    /// Advances one cycle: decrements every FP-resource counter. Returns
    /// `true` if any thread's active flag flipped (a counter reached zero
    /// this cycle) — the signal memoizing policies invalidate on.
    pub fn tick(&mut self) -> bool {
        let mut flipped = false;
        for c in &mut self.counters {
            for kind in ResourceKind::ALL {
                if kind.is_fp() {
                    if c[kind] == 1 {
                        flipped = true;
                    }
                    c[kind] = c[kind].saturating_sub(1);
                }
            }
        }
        flipped
    }

    /// Number of [`ActivityTracker::tick`] calls that can elapse before
    /// any thread's active flag flips (the tick on which some positive FP
    /// counter reaches zero), or `None` when every FP counter is already
    /// zero — without an allocation no flip can ever happen.
    ///
    /// Used by the fast-forward path: `tick_many(k)` with
    /// `k < ticks_until_flip()` is guaranteed flip-free, so the active
    /// sets (and every decision derived from them) stay frozen across the
    /// replayed cycles.
    pub fn ticks_until_flip(&self) -> Option<u32> {
        self.counters
            .iter()
            .flat_map(|c| {
                ResourceKind::ALL
                    .iter()
                    .filter(|k| k.is_fp())
                    .map(|&k| c[k])
            })
            .filter(|&v| v > 0)
            .min()
    }

    /// Advances `n` cycles at once: decrements every FP-resource counter
    /// by `n` (saturating). Returns `true` if any active flag flipped —
    /// equivalent to OR-ing the results of `n` consecutive
    /// [`ActivityTracker::tick`] calls.
    pub fn tick_many(&mut self, n: u64) -> bool {
        let step = u32::try_from(n).unwrap_or(u32::MAX);
        let mut flipped = false;
        for c in &mut self.counters {
            for kind in ResourceKind::ALL {
                if kind.is_fp() {
                    if c[kind] > 0 && c[kind] <= step {
                        flipped = true;
                    }
                    c[kind] = c[kind].saturating_sub(step);
                }
            }
        }
        flipped
    }

    /// Fast-forward replay: applies up to `n` idle cycles' worth of decay
    /// and returns how many were applied — capped one tick *before* the
    /// next activity flip, so the active sets (and every decision derived
    /// from them) are provably unchanged across the replayed span. The
    /// flip cycle itself must be stepped normally (`tick` inside
    /// `begin_cycle`), where the policy recomputes its sharing model.
    /// Shared by both DCRA variants' `Policy::on_idle_cycles`.
    pub fn idle_replay(&mut self, n: u64) -> u64 {
        let k = match self.ticks_until_flip() {
            Some(m) => n.min(u64::from(m) - 1),
            None => n, // all counters at rest: decay is a no-op
        };
        if k > 0 {
            let flipped = self.tick_many(k);
            debug_assert!(!flipped, "idle replay must stop before a flip");
        }
        k
    }

    /// Resets the counter of `kind` for thread `t` (the thread allocated an
    /// entry this cycle). Returns `true` if the thread's active flag for
    /// `kind` flipped from inactive to active.
    pub fn on_alloc(&mut self, t: ThreadId, kind: ResourceKind) -> bool {
        let c = &mut self.counters[t.index()][kind];
        let flipped = kind.is_fp() && *c == 0;
        *c = self.init;
        flipped
    }

    /// `true` if thread `t` currently competes for `kind`. Non-FP resources
    /// are always active.
    pub fn is_active(&self, t: ThreadId, kind: ResourceKind) -> bool {
        !kind.is_fp() || self.counters[t.index()][kind] > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_follows_pending_counter() {
        assert_eq!(ThreadPhase::from_pending_misses(0), ThreadPhase::Fast);
        assert_eq!(ThreadPhase::from_pending_misses(1), ThreadPhase::Slow);
        assert_eq!(ThreadPhase::from_pending_misses(7), ThreadPhase::Slow);
    }

    #[test]
    fn non_fp_resources_always_active() {
        let mut a = ActivityTracker::new(1, 2);
        for _ in 0..100 {
            a.tick();
        }
        let t = ThreadId::new(0);
        assert!(a.is_active(t, ResourceKind::IntQueue));
        assert!(a.is_active(t, ResourceKind::LsQueue));
        assert!(a.is_active(t, ResourceKind::IntRegs));
        assert!(!a.is_active(t, ResourceKind::FpQueue));
        assert!(!a.is_active(t, ResourceKind::FpRegs));
    }

    #[test]
    fn fp_activity_decays_and_resets() {
        let mut a = ActivityTracker::new(2, 3);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        a.tick();
        a.tick();
        // t0 keeps using the FP queue; t1 does not.
        a.on_alloc(t0, ResourceKind::FpQueue);
        a.tick();
        assert!(a.is_active(t0, ResourceKind::FpQueue));
        assert!(!a.is_active(t1, ResourceKind::FpQueue));
        // FP regs decay independently of the FP queue.
        assert!(!a.is_active(t0, ResourceKind::FpRegs));
    }

    #[test]
    fn tick_many_matches_repeated_ticks() {
        let t0 = ThreadId::new(0);
        for n in [0u64, 1, 2, 3, 5, 100] {
            let mut a = ActivityTracker::new(2, 4);
            let mut b = ActivityTracker::new(2, 4);
            a.on_alloc(t0, ResourceKind::FpQueue);
            b.on_alloc(t0, ResourceKind::FpQueue);
            let mut flipped_stepped = false;
            for _ in 0..n {
                flipped_stepped |= a.tick();
            }
            let flipped_batched = b.tick_many(n);
            assert_eq!(flipped_stepped, flipped_batched, "flip signal at n={n}");
            for tid in 0..2 {
                for kind in ResourceKind::ALL {
                    assert_eq!(
                        a.is_active(ThreadId::new(tid), kind),
                        b.is_active(ThreadId::new(tid), kind),
                        "active flag drifted at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn ticks_until_flip_is_the_min_positive_counter() {
        let mut a = ActivityTracker::new(2, 5);
        assert_eq!(a.ticks_until_flip(), Some(5));
        a.tick();
        a.tick();
        assert_eq!(a.ticks_until_flip(), Some(3));
        // One thread re-arms a counter; the minimum stays with the other.
        a.on_alloc(ThreadId::new(0), ResourceKind::FpQueue);
        assert_eq!(a.ticks_until_flip(), Some(3));
        // Decay everything to zero: no flip can ever happen again.
        a.tick_many(10);
        assert_eq!(a.ticks_until_flip(), None);
    }

    #[test]
    fn counters_saturate_at_zero() {
        let mut a = ActivityTracker::new(1, 1);
        for _ in 0..10 {
            a.tick();
        }
        assert!(!a.is_active(ThreadId::new(0), ResourceKind::FpQueue));
    }

    #[test]
    fn default_init_matches_paper() {
        assert_eq!(ActivityTracker::DEFAULT_INIT, 256);
    }
}
