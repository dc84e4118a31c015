//! Issue stage: pop ready instructions oldest-first from the per-queue
//! wakeup scoreboard, bounded by per-queue unit counts and the global
//! issue width.

use super::events::{Event, EventKind, ReadyEntry};
use super::Simulator;
use crate::inst::{Stage, NO_DEP};
use smt_isa::{InstClass, QueueKind, ThreadId};

impl Simulator {
    pub(crate) fn issue(&mut self) {
        // Any non-empty ready list makes the cycle active: even a
        // stale-only list is drained below, which mutates the heap (the
        // next cycle then starts from empty lists and can fast-forward).
        if self.ready.iter().any(|r| !r.is_empty()) {
            self.idle.active = true;
        }
        let mut global_budget = self.config.decode_width; // issue width = 8
        for q in QueueKind::ALL {
            let mut unit_budget = self.config.units(q).min(global_budget);
            // Pop ready instructions oldest-first. No window scan: the
            // wakeup scoreboard moved every issuable instruction onto this
            // queue's ready list when its last operand completed. Entries
            // that fail the liveness test were squashed (or already
            // issued) after being woken; they are discarded without
            // consuming issue bandwidth, exactly as the scan never saw
            // them.
            while unit_budget > 0 && global_budget > 0 {
                let Some(std::cmp::Reverse(entry)) = self.ready[q.index()].pop() else {
                    break;
                };
                if !self.ready_entry_is_live(entry) {
                    continue;
                }
                let (seq, tid) = (entry.id.seq(), entry.id.tid());
                debug_assert!(
                    self.operands_ready(tid, seq),
                    "wakeup scoreboard woke T{tid} seq {seq} before its operands"
                );
                self.issue_one(tid, seq);
                unit_budget -= 1;
                global_budget -= 1;
            }
        }
    }

    /// The issue stage's liveness test: `entry` names an instruction that
    /// is still `Dispatched` and was dispatched at `entry.at`. Exact,
    /// because a squashed incarnation is re-dispatched strictly later than
    /// the one it replaces, and each incarnation is listed once.
    #[inline]
    pub(crate) fn ready_entry_is_live(&self, entry: ReadyEntry) -> bool {
        let (seq, tid) = (entry.id.seq(), entry.id.tid());
        let th = &self.threads[tid];
        th.get(seq).is_some_and(|i| i.dispatched_at == entry.at)
            && th.stage_of(seq) == Stage::Dispatched
    }

    /// Scan-based readiness check, used only by debug assertions and the
    /// consistency checker to cross-validate the wakeup scoreboard.
    pub(crate) fn operands_ready(&self, tid: usize, seq: u64) -> bool {
        let th = &self.threads[tid];
        th.deps_of(seq).iter().all(|&p| {
            if p == NO_DEP {
                return true;
            }
            match th.get(p) {
                Some(_) => th.stage_of(p) == Stage::Done,
                None => true, // already committed
            }
        })
    }

    fn issue_one(&mut self, tid: usize, seq: u64) {
        let t = ThreadId::new(tid);
        let now = self.now;
        let regread = u64::from(self.config.regread_delay);
        let th = &mut self.threads[tid];
        th.set_stage(seq, Stage::Executing);
        let inst = th.at(seq);
        let class = inst.class;
        let q = class.queue();
        let uid = inst.uid;

        th.pre_issue -= 1;
        self.iq_used[q.index()] -= 1;
        self.usage[tid][q.resource()] -= 1;

        let ready_at = match class {
            InstClass::Load => {
                let mem_addr = self.threads[tid].inflight_record(seq).1;
                let outcome = self.mem.access_data(t, mem_addr, false, now);
                self.stats[tid].loads += 1;
                if outcome.l1_miss() {
                    let th = &mut self.threads[tid];
                    th.at_mut(seq).set_l1_miss();
                    th.l1d_pending += 1;
                    self.stats[tid].l1d_misses += 1;
                }
                if outcome.l2_miss() {
                    self.threads[tid].at_mut(seq).set_l2_miss();
                    self.stats[tid].l2_misses += 1;
                    self.events.push(
                        now,
                        Event {
                            at: now + u64::from(self.config.mem.l2.latency),
                            uid,
                            tid: tid as u32,
                            seq,
                            kind: EventKind::DetectL2,
                        },
                    );
                }
                now + regread + u64::from(outcome.latency)
            }
            InstClass::Store => {
                // Stores write at commit through a store buffer; the access
                // warms the caches but does not block the pipeline.
                let mem_addr = self.threads[tid].inflight_record(seq).1;
                let _ = self.mem.access_data(t, mem_addr, true, now);
                now + regread + u64::from(class.exec_latency())
            }
            c => now + regread + u64::from(c.exec_latency()),
        };
        self.events.push(
            now,
            Event {
                at: ready_at,
                uid,
                tid: tid as u32,
                seq,
                kind: EventKind::Complete,
            },
        );
    }
}
