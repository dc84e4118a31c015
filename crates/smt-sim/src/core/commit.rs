//! Commit stage: in-order retirement, round-robin across threads, batched.
//!
//! The original stage walked a nested loop — one instruction per thread
//! per round until the width budget ran out — touching every retired
//! instruction's window slot once per round. The batched version exploits
//! an invariant of the cycle loop: nothing becomes `Done` *during* commit
//! (stages only change in the event drain and issue), so each thread's
//! committable set this cycle is exactly the contiguous run of `Done`
//! instructions at its window base, fixed before the stage starts. The
//! stage therefore:
//!
//! 1. measures each thread's run with one contiguous scan of the
//!    byte-sized stage lane ([`crate::thread::ThreadState::done_run_len`]),
//! 2. replays the round-robin budget split arithmetically over those run
//!    lengths (no memory traffic), and
//! 3. retires each thread's allocation as one burst.
//!
//! The per-thread commit counts — and therefore every counter and
//! statistic — are identical to the nested loop's, which the golden
//! determinism tests pin down.

use super::Simulator;
use smt_isa::ThreadId;

impl Simulator {
    pub(crate) fn commit(&mut self) {
        let n = self.threads.len();
        let width = self.config.commit_width;
        // The cycle's close rotates the origin, commits or not.
        let start = self.commit_rr;

        // 1. Committable run per thread, in round-robin service order.
        let mut runs = [0u32; ThreadId::MAX_THREADS];
        for (k, run) in runs.iter_mut().enumerate().take(n) {
            *run = self.threads[(start + k) % n].done_run_len(width);
        }

        // 2. Round-robin allocation of the width budget over the runs:
        // one instruction per thread per round, threads dropping out as
        // their runs exhaust — the exact schedule of the nested loop,
        // replayed over run lengths instead of window slots.
        let mut alloc = [0u32; ThreadId::MAX_THREADS];
        let mut budget = width;
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for k in 0..n {
                if budget == 0 {
                    break;
                }
                if alloc[k] < runs[k] {
                    alloc[k] += 1;
                    budget -= 1;
                    progressed = true;
                }
            }
        }

        // 3. Burst-retire. Split borrows: each thread's window walk and
        // the shared counters update side by side.
        if budget != width {
            self.idle.active = true; // something retires this cycle
        }
        for (k, &take) in alloc.iter().enumerate().take(n) {
            if take == 0 {
                continue;
            }
            let tid = (start + k) % n;
            let th = &mut self.threads[tid];
            let usage = &mut self.usage[tid];
            let base = th.window_base().expect("non-empty committable run");
            let mut regs_freed = [0u32; 2];
            for seq in base..base + u64::from(take) {
                if let Some(dest) = th.at(seq).dest {
                    regs_freed[dest.index()] += 1;
                    usage[dest.resource()] -= 1;
                }
            }
            th.advance_base_by(u64::from(take));
            self.rob_used -= take;
            self.regs_used[0] -= regs_freed[0];
            self.regs_used[1] -= regs_freed[1];
            self.stats[tid].committed += u64::from(take);
        }
    }
}
