//! The hooks of the one cycle loop, and per-stage wall-clock attribution.
//!
//! [`Simulator::step`](crate::Simulator::step) and the run loop behind
//! `run_cycles` and `run_cycles_profiled` are generic over a crate-private
//! [`RunObserver`]. `()` observes nothing, so its instance compiles to the
//! bare loop. [`ProfileClock`] times each stage into a [`StageProfile`]
//! (what [`Simulator::run_cycles_profiled`](crate::Simulator::run_cycles_profiled)
//! reports).

#![expect(
    clippy::disallowed_methods,
    reason = "stage-profiling instrumentation; wall-clock readings are reported, never fed back into simulated state"
)]

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
    /// `cycles`).
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
    /// Fast-forward: idle-deadline computation, policy replay and the
    /// skipped span's close.
    pub forward: Duration,
    /// The stepped cycle's close (counters, MLP and phase samples) and
    /// loop bookkeeping.
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

/// Names one [`StageProfile`] field, so a clock can charge time to it.
pub(crate) type Stage = fn(&mut StageProfile) -> &mut Duration;

/// What the cycle loop reports to its observer. Every hook defaults to
/// nothing, and the loop never reads anything back from an observer, so
/// every instance simulates bit-identically.
pub(crate) trait RunObserver {
    /// Marks the start of a stepped cycle, so the loop's own bookkeeping
    /// between spans is charged to no stage.
    #[inline(always)]
    fn start(&mut self) {}

    /// Charges the time since the last mark to `stage` and marks again.
    #[inline(always)]
    fn lap(&mut self, _stage: Stage) {}

    /// Called after each span of one step plus the fast-forward jump that
    /// followed it (`skipped` cycles).
    #[inline(always)]
    fn after_span(&mut self, _skipped: u64) {}
}

/// The no-op observer: the plain `step` and `run_cycles`.
impl RunObserver for () {}

/// Times every stage of every stepped cycle, and every fast-forward jump,
/// into a [`StageProfile`]: nine clock reads per span.
pub(crate) struct ProfileClock<'a> {
    profile: &'a mut StageProfile,
    mark: Instant,
}

impl<'a> ProfileClock<'a> {
    pub(crate) fn new(profile: &'a mut StageProfile) -> Self {
        ProfileClock {
            profile,
            mark: Instant::now(),
        }
    }
}

impl RunObserver for ProfileClock<'_> {
    #[inline(always)]
    fn start(&mut self) {
        self.mark = Instant::now();
    }

    #[inline(always)]
    fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        *stage(self.profile) += now - self.mark;
        self.mark = now;
    }

    #[inline(always)]
    fn after_span(&mut self, skipped: u64) {
        self.profile.cycles += 1 + skipped;
        self.profile.skipped += skipped;
    }
}
