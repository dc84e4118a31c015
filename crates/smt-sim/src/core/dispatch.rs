//! Dispatch (rename/allocate) stage, batched per thread.
//!
//! Each thread in the policy's fetch order dispatches a contiguous burst
//! of sequence numbers `[next_dispatch, ...)` until it hits the decode
//! budget, a structural limit, its front-end delay, or the policy's
//! allocation gate. Thread-invariant state — the structural capacities,
//! the policy's gating hints, the shared occupancy counters — is hoisted
//! into locals before the burst; the per-instruction policy call is
//! skipped entirely for policies whose `may_dispatch` can never refuse
//! ([`Policy::wants_dispatch_view`]), which is all of the canonical nine
//! except SRA.

use super::events::ReadyEntry;
use super::Simulator;
use crate::inst::{Stage, NO_DEP};
use crate::policy::Policy;
use smt_isa::ThreadId;
use std::cmp::Reverse;

impl Simulator {
    pub(crate) fn dispatch(&mut self, order: &[ThreadId]) {
        let mut budget = self.config.decode_width;
        // The view's usage is kept live across this cycle's dispatches so
        // hard-partition policies (SRA) see every allocation immediately —
        // otherwise several same-cycle dispatches could overshoot a cap.
        // Policies whose `may_dispatch` can never refuse (everything but
        // SRA) skip the refresh, the per-dispatch usage mirroring and the
        // gate call itself.
        let needs_view = self.policy.wants_dispatch_view();
        let mut view = std::mem::take(&mut self.scratch_view);
        if needs_view {
            self.fill_view(&mut view);
        }
        // Thread-invariant structural limits, hoisted out of the bursts.
        let now = self.now;
        let rob_cap = self.config.rob_entries;
        let iq_cap = self.config.iq_entries;
        let pools = [
            self.config.pool_of(smt_isa::RegClass::Int),
            self.config.pool_of(smt_isa::RegClass::Fp),
        ];
        for &t in order {
            if budget == 0 {
                break;
            }
            let tid = t.index();
            while budget > 0 {
                let th = &self.threads[tid];
                if th.next_dispatch >= th.next_fetch {
                    break; // nothing fetched to dispatch
                }
                // `next_dispatch < next_fetch` (checked above) and
                // `win_base <= next_dispatch` (commit never passes an
                // undispatched instruction), so the slot is live.
                let seq = th.next_dispatch;
                let inst = th.at(seq);
                debug_assert_eq!(th.stage_of(seq), Stage::Fetched);
                if inst.dispatch_eligible_at > now {
                    break;
                }
                let q = inst.class.queue();
                let dest = inst.dest;
                // Shared structural limits. A refusal sets the thread's
                // bit in the cycle's idle track, which the cycle's close
                // charges to the matching `blocked_*` counter.
                if self.rob_used >= rob_cap {
                    self.idle.blocked_rob |= 1 << tid;
                    break;
                }
                if self.iq_used[q.index()] >= iq_cap {
                    self.idle.blocked_iq |= 1 << tid;
                    break;
                }
                if let Some(d) = dest {
                    if self.regs_used[d.index()] >= pools[d.index()] {
                        self.idle.blocked_regs |= 1 << tid;
                        break;
                    }
                }
                // Policy gate (hard-partition policies only; skipped when
                // the policy can never refuse).
                if needs_view && !self.policy.may_dispatch(t, q, dest, &view) {
                    self.idle.blocked_policy |= 1 << tid;
                    break;
                }
                // Allocate.
                self.idle.active = true;
                let th = &mut self.threads[tid];
                th.set_stage(seq, Stage::Dispatched);
                let inst = th.at_mut(seq);
                inst.dispatched_at = now;
                let uid = inst.uid;
                th.next_dispatch += 1;
                self.rob_used += 1;
                self.iq_used[q.index()] += 1;
                self.usage[tid][q.resource()] += 1;
                if let Some(d) = dest {
                    self.regs_used[d.index()] += 1;
                    self.usage[tid][d.resource()] += 1;
                    if needs_view {
                        view.bump_usage(t, d.resource());
                    }
                }
                if needs_view {
                    view.bump_usage(t, q.resource());
                }

                // Wakeup scoreboard entry: count the operands still in
                // flight and subscribe to their producers. Producers below
                // the window base have committed and producers already
                // `Done` have their results — neither is outstanding.
                let th = &mut self.threads[tid];
                let mut pending = 0u8;
                for p in th.deps_of(seq) {
                    if p == NO_DEP {
                        continue;
                    }
                    let outstanding = th.get(p).is_some() && th.stage_of(p) != Stage::Done;
                    if outstanding {
                        pending += 1;
                        th.register_waiter(p, seq, uid);
                    }
                }
                th.at_mut(seq).pending_ops = pending;
                if pending == 0 {
                    self.ready[q.index()].push(Reverse(ReadyEntry::new(now, seq, tid)));
                }

                self.policy.on_dispatch(t, q, dest);
                budget -= 1;
            }
        }
        self.scratch_view = view;
    }
}
