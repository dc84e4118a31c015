//! Expensive cross-checks of the incrementally maintained state, used by
//! tests and the property suite.

use super::events::SeqTid;
use super::Simulator;
use crate::inst::{Stage, NO_DEP};
use smt_isa::PerResource;
use std::cmp::Reverse;

impl Simulator {
    /// Expensive consistency check used by tests: recomputes every
    /// incrementally-maintained counter from the instruction windows and
    /// asserts they match.
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        let mut rob = 0u32;
        let mut iq = [0u32; 3];
        let mut regs = [0u32; 2];
        for (tid, th) in self.threads.iter().enumerate() {
            let mut usage = PerResource::<u32>::default();
            let mut pre_issue = 0u32;
            let mut l1p = 0u32;
            let mut l2p = 0u32;
            for seq in th.window_seqs() {
                let inst = th.at(seq);
                let q = inst.class.queue();
                match th.stage_of(seq) {
                    Stage::Fetched => pre_issue += 1,
                    Stage::Dispatched => {
                        pre_issue += 1;
                        rob += 1;
                        iq[q.index()] += 1;
                        usage[q.resource()] += 1;
                        if let Some(d) = inst.dest {
                            regs[d.index()] += 1;
                            usage[d.resource()] += 1;
                        }
                    }
                    Stage::Executing => {
                        rob += 1;
                        if let Some(d) = inst.dest {
                            regs[d.index()] += 1;
                            usage[d.resource()] += 1;
                        }
                        if inst.l1_miss() {
                            l1p += 1;
                        }
                        if inst.l2_miss() && inst.l2_detected() {
                            l2p += 1;
                        }
                    }
                    Stage::Done => {
                        rob += 1;
                        if let Some(d) = inst.dest {
                            regs[d.index()] += 1;
                            usage[d.resource()] += 1;
                        }
                    }
                }
            }
            assert_eq!(th.pre_issue, pre_issue, "T{tid} pre_issue drift");
            assert_eq!(th.l1d_pending, l1p, "T{tid} l1d_pending drift");
            assert_eq!(th.l2_pending, l2p, "T{tid} l2_pending drift");
            assert_eq!(self.usage[tid], usage, "T{tid} usage drift");
        }
        assert_eq!(self.rob_used, rob, "rob drift");
        assert_eq!(self.iq_used, iq, "iq drift");
        assert_eq!(self.regs_used, regs, "regs drift");

        // Ready-list liveness: every entry that passes the issue stage's
        // liveness test names a `Dispatched` instruction of that queue with
        // no outstanding operand, and no instruction has two such entries
        // (so a stale entry can never issue a newer incarnation).
        let mut live = Vec::new();
        for (q, list) in self.ready.iter().enumerate() {
            for &Reverse(e) in list.iter() {
                if !self.ready_entry_is_live(e) {
                    continue;
                }
                let (tid, seq) = (e.id.tid(), e.id.seq());
                let inst = self.threads[tid].at(seq);
                assert_eq!(
                    self.threads[tid].stage_of(seq),
                    Stage::Dispatched,
                    "T{tid} seq {seq} live ready entry not Dispatched"
                );
                assert_eq!(inst.pending_ops, 0, "T{tid} seq {seq} listed before ready");
                assert_eq!(
                    inst.class.queue().index(),
                    q,
                    "T{tid} seq {seq} on the wrong queue"
                );
                live.push(e.id);
            }
        }
        live.sort_unstable();
        let listed = live.len();
        live.dedup();
        assert_eq!(
            live.len(),
            listed,
            "an instruction has two live ready entries"
        );

        // Wakeup-scoreboard invariants: every waiting instruction's
        // outstanding-operand count matches a fresh scan, and everything
        // the scan would consider issuable has a live entry on its queue's
        // ready list.
        for (tid, th) in self.threads.iter().enumerate() {
            if th.window_is_empty() {
                continue;
            }
            for seq in th.window_seqs() {
                if th.stage_of(seq) != Stage::Dispatched {
                    continue;
                }
                let inst = th.at(seq);
                let outstanding = th
                    .deps_of(seq)
                    .iter()
                    .filter(|&&p| {
                        p != NO_DEP && th.get(p).is_some() && th.stage_of(p) != Stage::Done
                    })
                    .count() as u8;
                assert_eq!(
                    inst.pending_ops, outstanding,
                    "T{tid} seq {seq} pending_ops drift"
                );
                assert_eq!(
                    self.operands_ready(tid, seq),
                    outstanding == 0,
                    "T{tid} seq {seq} scan/scoreboard disagreement"
                );
                if outstanding == 0 {
                    let id = SeqTid::new(seq, tid);
                    assert!(
                        live.binary_search(&id).is_ok(),
                        "T{tid} seq {seq} ready but not listed"
                    );
                }
            }
        }
    }
}
