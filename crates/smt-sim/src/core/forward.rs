//! Multi-cycle fast-forward: when a whole cycle goes by with nothing to
//! do — every thread stalled on a miss, gated by the policy, or blocked on
//! a full shared structure — the machine will keep doing nothing until
//! some deadline arrives. This module jumps the clock straight to that
//! deadline: the policy replays its per-cycle state through
//! [`Policy::on_idle_cycles`], and [`Simulator::close_cycles`], which ends
//! every stepped cycle too, closes the skipped span.
//!
//! # Why this is bit-identical
//!
//! A cycle whose step reported no activity ([`super::IdleTrack::active`]
//! false) changed nothing but what its close advanced and the policy's
//! internal state. Until an *input* changes, stepping it again repeats
//! the same refusals. The inputs that change on their own are:
//!
//! * an event coming due on the wheel (completion / L2 detection),
//! * an instruction's front-end delay expiring (`dispatch_eligible_at`),
//! * an I-cache stall expiring (`icache_stall_until`),
//! * a memory-level MSHR fill completing (which moves the MLP read), and
//! * the policy's own per-cycle dynamics (DCRA activity decay, FLUSH++
//!   window rollovers, RR rotation).
//!
//! [`Simulator::fast_forward`] takes the minimum of the first four
//! deadlines (and the run limit) and asks the policy to replay up to that
//! many cycles; the policy returns how many it can vouch for (DCRA caps at
//! the next activity-counter flip). The close's one MLP read holds for the
//! span because the deadline caps it before the next memory-level fill;
//! L2-level fills may expire inside it, and the close purges them up to
//! the span's last cycle as the stepped closes would. The phase mask
//! holds because `l1d_pending` moves only at issue, event delivery and
//! squash, each of which makes a cycle active. The stepped-vs-fast-forward
//! tests and the golden suite pin the equivalence for all nine policies.

use super::Simulator;
use crate::policy::Policy;

impl Simulator {
    /// After an idle [`Simulator::step`], jumps `now` forward to just
    /// before the next cycle on which anything can happen (bounded by
    /// `limit`, the end of the current run), replaying the skipped cycles'
    /// policy state and closing them. A no-op after an active step, so the
    /// run loops call it unconditionally.
    pub(crate) fn fast_forward(&mut self, limit: u64) {
        if self.idle.active || self.now >= limit {
            return;
        }
        let deadline = self.idle_deadline(limit);
        let want = deadline.saturating_sub(self.now);
        if want == 0 {
            return;
        }
        // Ask the policy to replay its per-cycle state for the span. The
        // scratch view carries the (frozen) machine state the skipped
        // cycles would observe; `view.now` is the first skipped cycle.
        let mut view = std::mem::take(&mut self.scratch_view);
        self.fill_view(&mut view);
        let skipped = self.policy.on_idle_cycles(want, &view);
        self.scratch_view = view;
        debug_assert!(
            skipped <= want,
            "policy replayed {skipped} idle cycles, only {want} requested"
        );
        let skipped = skipped.min(want);
        if skipped > 0 {
            self.close_cycles(skipped);
        }
    }

    /// First cycle at which the idle machine's state can change: the
    /// earliest of the next scheduled event, the next dispatch-eligibility
    /// or I-cache-stall expiry, the next MSHR fill completion, and the run
    /// limit. Cycles strictly before the returned deadline are provably
    /// identical to the idle cycle just stepped.
    fn idle_deadline(&mut self, limit: u64) -> u64 {
        let now = self.now;
        let mut deadline = limit;
        // `now` is the *first skippable* cycle; the idle step just ran at
        // `now - 1`. A wake-up whose cycle is `>= now` therefore ends the
        // span, including one landing exactly on `now` (which forces
        // `want == 0`: nothing is skipped and the wake-up cycle is
        // stepped normally). Wake-ups `< now` were already inert during
        // the idle step and stay inert.
        for th in &self.threads {
            // A fetched-but-undispatched head still inside its front-end
            // delay becomes dispatchable at `dispatch_eligible_at`.
            if th.next_dispatch < th.next_fetch {
                let eligible = th.at(th.next_dispatch).dispatch_eligible_at;
                if eligible >= now {
                    deadline = deadline.min(eligible);
                }
            }
            // An I-cache-stalled thread resumes fetching when the fill
            // arrives (and even if it stays gated/unfetchable then, the
            // per-cycle charge pattern may change — end the span there).
            if th.icache_stall_until >= now {
                deadline = deadline.min(th.icache_stall_until);
            }
        }
        // MLP samples count in-flight memory-level MSHR fills per cycle;
        // stop before the earliest such fill completes so the sampled
        // counts stay frozen (L2-level fills are invisible to the samples
        // and do not bound the span).
        if let Some(ready_at) = self.mem.next_fill_ready_at() {
            deadline = deadline.min(ready_at);
        }
        // Event-wheel scan last: the cheap caps above bound its horizon,
        // so the bucket walk never runs longer than the jump it could
        // justify.
        if deadline > now {
            if let Some(at) = self.events.next_due_at(now, deadline - now) {
                deadline = deadline.min(at);
            }
        }
        deadline.max(now)
    }
}
