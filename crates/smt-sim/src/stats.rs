//! Simulation statistics and results.

use serde::{Deserialize, Serialize};

/// Per-thread outcome of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Committed (useful) instructions.
    pub committed: u64,
    /// Instructions fetched, including wrong-path refetches after squashes —
    /// the paper's "front-end activity" metric (Section 5.2).
    pub fetched: u64,
    /// Instructions squashed (branch mispredictions + policy flushes).
    pub squashed: u64,
    /// Conditional branch mispredictions observed at fetch.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Loads that missed the L1 data cache.
    pub l1d_misses: u64,
    /// Loads that missed the L2.
    pub l2_misses: u64,
    /// Cycles the policy's fetch gate (`Policy::fetch_gate`) refused this
    /// thread. Only gate refusals count: a thread that cannot fetch is not
    /// asked, and that includes the stall-on-load of STALL, FLUSH and
    /// FLUSH++ (held until the detected L2-missing load completes). Under
    /// FLUSH on mcf+twolf (250k cycles, seed 42) mcf is charged 504 gated
    /// cycles at a 28.6% L2 miss rate.
    pub gated_cycles: u64,
    /// Σ over cycles of this thread's in-flight L2 misses (MLP numerator).
    pub mlp_sum: u64,
    /// Cycles with at least one in-flight L2 miss (MLP denominator).
    pub mlp_cycles: u64,
    /// Dispatch attempts blocked on a full ROB.
    pub blocked_rob: u64,
    /// Dispatch attempts blocked on a full issue queue.
    pub blocked_iq: u64,
    /// Dispatch attempts blocked on an empty rename pool.
    pub blocked_regs: u64,
    /// Dispatch attempts blocked by the policy's allocation limit.
    pub blocked_policy: u64,
}

impl ThreadStats {
    /// Instructions per cycle given the run length.
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }

    /// Average number of overlapping L2 misses while at least one is
    /// outstanding — the paper's memory-parallelism metric.
    pub fn mlp(&self) -> f64 {
        if self.mlp_cycles == 0 {
            0.0
        } else {
            self.mlp_sum as f64 / self.mlp_cycles as f64
        }
    }
}

/// Outcome of a complete simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Cycles simulated (after warm-up).
    pub cycles: u64,
    /// Policy that produced this result.
    pub policy: String,
    /// Per-thread statistics.
    pub threads: Vec<ThreadStats>,
    /// Cycles per phase combination, `1 << threads` entries indexed by
    /// the bitmask of the threads that were *slow* at the end of the
    /// cycle: those with a pending L1 data miss, the paper's phase
    /// signal (Section 3.1.1). The entries sum to `cycles`.
    pub phase_cycles: Vec<u64>,
}

impl SimResult {
    /// IPC throughput: the sum of per-thread IPCs (the paper's throughput
    /// metric).
    pub fn throughput(&self) -> f64 {
        self.threads.iter().map(|t| t.ipc(self.cycles)).sum()
    }

    /// Per-thread IPC vector.
    pub fn ipcs(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc(self.cycles)).collect()
    }

    /// Total fetched instructions (front-end activity).
    pub fn total_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.fetched).sum()
    }

    /// Total committed instructions.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Cycles on which thread `t` was slow: the sum of the
    /// [`Self::phase_cycles`] entries whose mask contains `t`.
    pub fn slow_cycles(&self, t: usize) -> u64 {
        self.phase_cycles
            .iter()
            .enumerate()
            .filter(|&(mask, _)| mask >> t & 1 == 1)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_throughput() {
        let r = SimResult {
            cycles: 1000,
            policy: "TEST".into(),
            threads: vec![
                ThreadStats {
                    committed: 1500,
                    ..Default::default()
                },
                ThreadStats {
                    committed: 500,
                    ..Default::default()
                },
            ],
            phase_cycles: vec![400, 300, 200, 100],
        };
        assert!((r.throughput() - 2.0).abs() < 1e-12);
        assert_eq!(r.ipcs(), vec![1.5, 0.5]);
        assert_eq!((r.slow_cycles(0), r.slow_cycles(1)), (400, 300));
    }

    #[test]
    fn mlp_is_average_over_busy_cycles() {
        let t = ThreadStats {
            mlp_sum: 30,
            mlp_cycles: 10,
            ..Default::default()
        };
        assert!((t.mlp() - 3.0).abs() < 1e-12);
        assert_eq!(ThreadStats::default().mlp(), 0.0);
    }

    #[test]
    fn zero_cycles_yield_zero_ipc() {
        let t = ThreadStats {
            committed: 10,
            ..Default::default()
        };
        assert_eq!(t.ipc(0), 0.0);
    }
}
