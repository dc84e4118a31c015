//! Multi-cycle fast-forward: when a whole cycle goes by with nothing to
//! do — every thread stalled on a miss, gated by the policy, or blocked on
//! a full shared structure — the machine will keep doing nothing until
//! some deadline arrives. This module jumps the clock straight to that
//! deadline instead of grinding through the empty cycles one at a time,
//! replaying the per-cycle side effects (policy rotation/decay/windows via
//! [`Policy::on_idle_cycles`], gated/blocked statistics, MLP and phase
//! samples, the commit round-robin origin) arithmetically.
//!
//! # Why this is bit-identical
//!
//! A cycle whose step reported no activity ([`super::IdleTrack::active`]
//! false) changed nothing but `now`, the per-cycle statistics it charged,
//! and the policy's internal per-cycle state. As long as no *input* to
//! the next cycle changes, that cycle is a fixed point: stepping it again
//! produces the same nothing with the same charges. The inputs that can
//! change on their own (without any stage doing work) are exactly:
//!
//! * an event coming due on the wheel (completion / L2 detection),
//! * an instruction's front-end delay expiring (`dispatch_eligible_at`),
//! * an I-cache stall expiring (`icache_stall_until`),
//! * an MSHR fill completing (which moves the per-cycle MLP sample), and
//! * the policy's own per-cycle dynamics (DCRA activity decay, FLUSH++
//!   window rollovers, RR rotation).
//!
//! [`Simulator::fast_forward`] takes the minimum of the first four
//! deadlines (and the run limit), then asks the policy — via
//! [`Policy::on_idle_cycles`] — to replay up to that many cycles of its
//! own state; the policy returns how many cycles it can vouch for (DCRA
//! caps at the next activity-counter flip). The machine statistics for the
//! accepted span are then replayed in O(threads), and the clock jumps.
//! The stepped-vs-fast-forward property test and the golden determinism
//! suite pin the equivalence for all nine canonical policies.

use super::Simulator;
use crate::policy::Policy;

impl Simulator {
    /// After an idle [`Simulator::step`], jumps `now` forward to just
    /// before the next cycle on which anything can happen (bounded by
    /// `limit`, the end of the current run), replaying the skipped cycles'
    /// statistics and policy state. A no-op after an active step, so the
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
        if skipped == 0 {
            return;
        }

        // Replay the machine's per-cycle side effects for `skipped` more
        // cycles of exactly the pattern the idle step just charged.
        let idle = self.idle;
        for (tid, stats) in self.stats.iter_mut().enumerate() {
            let bit = 1u8 << tid;
            if idle.gated & bit != 0 {
                stats.gated_cycles += skipped;
            }
            if idle.blocked_rob & bit != 0 {
                stats.blocked_rob += skipped;
            }
            if idle.blocked_iq & bit != 0 {
                stats.blocked_iq += skipped;
            }
            if idle.blocked_regs & bit != 0 {
                stats.blocked_regs += skipped;
            }
            if idle.blocked_policy & bit != 0 {
                stats.blocked_policy += skipped;
            }
            // The MLP sample is frozen too: the deadline is capped at the
            // next MSHR fill completion, so the outstanding-miss counts of
            // the idle step's sample hold for every skipped cycle.
            let outstanding = self.mlp_scratch[tid];
            if outstanding > 0 {
                stats.mlp_sum += skipped * u64::from(outstanding);
                stats.mlp_cycles += skipped;
            }
        }
        // The phase mask is frozen too: `l1d_pending` moves only at issue,
        // event delivery and squash, each of which makes a cycle active.
        self.phase_cycles[usize::from(idle.slow)] += skipped;
        // The commit stage rotates its round-robin origin every cycle,
        // commits or not.
        self.commit_rr = (self.commit_rr + skipped as usize) % self.threads.len();
        self.now += skipped;
        // Replay the skipped cycles' MSHR housekeeping: the stepped core's
        // per-cycle MLP sample purges expired fills as a side effect, and
        // the last purge before the resumed cycle's stages ran at
        // `now - 1`. Without it, an L2-level fill expiring mid-span would
        // leave a dead map entry that blocks re-allocation of its line on
        // the resumed cycle — an observable divergence (coalescing latency,
        // MLP counts) from the stepped run. Memory-level fills cannot
        // expire mid-span (the deadline is capped at their earliest
        // completion), so this purge only ever collects L2-level leftovers.
        self.mem.collect_expired_fills(self.now - 1);
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
