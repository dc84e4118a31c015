//! Fetch stage: walk the policy's fetch order, gate, and fetch a block
//! per eligible thread, batched.
//!
//! Each selected thread fetches one I-cache block as a burst: the
//! per-block invariants (head decode, fetch-queue headroom, front-end
//! delay) are computed once, then the burst loop decodes, predicts and
//! enqueues until the block ends at a taken/mispredicted branch, the
//! fetch queue fills, or the width budget runs out.

use super::Simulator;
use crate::inst::{resolve_deps, DynInst, Stage};
use crate::policy::{CycleView, Policy};
use smt_isa::ThreadId;

impl Simulator {
    pub(crate) fn fetch(&mut self, order: &[ThreadId], view: &CycleView) {
        let mut budget = self.config.fetch_width;
        let mut threads_used = 0;
        for &t in order {
            if budget == 0 || threads_used >= self.config.fetch_threads {
                break;
            }
            let tid = t.index();
            if !self.thread_can_fetch(tid) {
                continue;
            }
            if !self.policy.fetch_gate(t, view) {
                self.idle.gated |= 1 << tid;
                continue;
            }
            // Past the gate the thread always does work: it either
            // fetches a burst or at least accesses (and possibly stalls
            // on) the I-cache — either way the cycle changed state.
            self.idle.active = true;
            threads_used += 1;
            budget = self.fetch_thread(tid, budget);
        }
    }

    fn thread_can_fetch(&self, tid: usize) -> bool {
        let th = &self.threads[tid];
        if th.icache_stall_until > self.now {
            return false;
        }
        if let Some(load) = th.stall_on_load {
            // Stalled until the missing load completes (STALL/FLUSH action).
            if th.get(load).is_some() && th.stage_of(load) != Stage::Done {
                return false;
            }
        }
        th.fetch_queue_len() < self.config.fetch_queue as usize
    }

    fn fetch_thread(&mut self, tid: usize, mut budget: u32) -> u32 {
        // The caller guarantees `budget > 0` (checked before the gate) and
        // at least one free fetch-queue slot (`thread_can_fetch` returns
        // false on a full queue, so a full-queue thread never reaches the
        // I-cache, consumes no fetch budget and is charged no stall).
        debug_assert!(budget > 0, "fetch_thread called with no budget");
        debug_assert!(
            self.threads[tid].fetch_queue_len() < self.config.fetch_queue as usize,
            "fetch_thread called with a full fetch queue"
        );
        let t = ThreadId::new(tid);
        // One I-cache access per fetch block.
        let head_seq = self.threads[tid].next_fetch;
        let first_pc = self.threads[tid].packed_at(head_seq).pc;
        let line = first_pc >> 6;
        if self.threads[tid].pending_inst_fill == Some(line) {
            // The fill requested when this block missed arrives now and is
            // consumed directly by the fetch unit, even if the line was
            // conflict-evicted from the I-cache during the stall.
            self.threads[tid].pending_inst_fill = None;
        } else {
            let ic = self.mem.access_inst(t, first_pc, self.now);
            if ic.level != smt_mem::HitLevel::L1 {
                let th = &mut self.threads[tid];
                th.icache_stall_until = ic.ready_at();
                th.pending_inst_fill = Some(line);
                // The missed access still occupied one fetch slot this
                // cycle. `budget >= 1` here (asserted above), so the
                // `saturating_sub` is defensive only — there is no
                // off-by-one: a width-1 front end that misses spends its
                // whole budget, and the boundary test in `core/tests.rs`
                // pins both that and the full-queue early return.
                return budget.saturating_sub(1);
            }
        }

        // Burst: block-invariant limits hoisted; each iteration adds
        // exactly one instruction, so the fetch-queue headroom is a local
        // countdown instead of a recomputed length.
        let now = self.now;
        let frontend_delay = self.config.frontend_delay;
        let mut room =
            (self.config.fetch_queue as usize).saturating_sub(self.threads[tid].fetch_queue_len());
        let Simulator {
            threads,
            policy,
            bpred,
            stats,
            uid_counter,
            ..
        } = self;
        let th = &mut threads[tid];
        let stats = &mut stats[tid];
        while budget > 0 && room > 0 {
            let seq = th.next_fetch;
            *uid_counter += 1;
            // One block lookup serves the 16-byte packed core; only the
            // minority of records that are branches pay a second sidecar
            // read (issue reads a load's or store's address from the store
            // itself). The policy sees only the packed view.
            let packed = th.packed_at(seq);
            let mut inst = DynInst::fetched(*uid_counter, &packed, now, frontend_delay);
            policy.on_fetch_inst(t, &packed);

            let mut stop_block = false;
            if packed.has_branch() {
                let bi = th.branch_at(seq);
                let pred = bpred.predict(t, packed.pc, bi.kind);
                bpred.update(t, packed.pc, bi, pred);
                if pred.mispredicted(bi) {
                    inst.set_mispredicted();
                    stats.mispredicts += 1;
                    // Fetch continues next cycle: the machine follows the
                    // (wrong) prediction and keeps allocating resources
                    // until the branch resolves and squashes.
                    stop_block = true;
                } else if bi.taken {
                    stop_block = true; // fetch block ends at a taken branch
                }
            }

            let deps = resolve_deps(&packed, seq);
            th.push_fetched(inst, deps);
            th.pre_issue += 1;
            stats.fetched += 1;
            budget -= 1;
            room -= 1;
            if stop_block {
                break;
            }
        }
        budget
    }
}
