//! SMT performance metrics used by the paper's evaluation (Section 5).
//!
//! * **IPC throughput** — the sum of per-thread IPCs; measures how
//!   effectively resources are used, but can be gamed by starving slow
//!   threads.
//! * **Hmean** (Luo, Gummaraju & Franklin, ISPASS'01) — the harmonic mean
//!   of each thread's speedup relative to running alone, the paper's
//!   fairness/throughput-balance metric.
//! * **MLP** — average overlapping L2 misses while at least one is
//!   outstanding (Section 5.2's memory-parallelism measurements).
//! * **Relative improvement** — [`improvement_pct`], the form every
//!   comparison is reported in, Section 5.2's front-end number included
//!   (fetched per committed instruction, FLUSH++ over DCRA).
//!
//! # Examples
//!
//! ```
//! use smt_metrics::{hmean, throughput};
//!
//! let multi = [1.2, 0.3];   // IPCs running together
//! let single = [2.4, 0.6];  // IPCs running alone
//! assert_eq!(throughput(&multi), 1.5);
//! assert!((hmean(&multi, &single) - 0.5).abs() < 1e-12); // both at half speed
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

use smt_sim::SimResult;

/// IPC throughput: the sum of per-thread IPCs.
pub fn throughput(ipcs: &[f64]) -> f64 {
    ipcs.iter().sum()
}

/// Per-thread relative IPCs (speedups vs single-thread execution).
///
/// # Panics
///
/// Panics if the slices have different lengths or a baseline IPC is not
/// positive (a benchmark cannot have zero single-thread IPC).
pub fn speedups(multi_ipcs: &[f64], single_ipcs: &[f64]) -> Vec<f64> {
    assert_eq!(
        multi_ipcs.len(),
        single_ipcs.len(),
        "need one baseline IPC per thread"
    );
    multi_ipcs
        .iter()
        .zip(single_ipcs)
        .map(|(&m, &s)| {
            assert!(s > 0.0, "single-thread baseline IPC must be positive");
            m / s
        })
        .collect()
}

/// The Hmean metric: harmonic mean of per-thread speedups. Exposes
/// "artificial" throughput obtained by starving slow threads — a policy
/// that runs one thread at full speed and another at zero scores 0.
///
/// Guarded against the degenerate inputs partial sweeps can produce: an
/// empty slice scores 0 (not NaN from 0/0), a zero-IPC thread scores the
/// whole workload 0 (its reciprocal speedup is treated as infinite), and
/// NaN can never propagate out of the reduction.
pub fn hmean(multi_ipcs: &[f64], single_ipcs: &[f64]) -> f64 {
    let sp = speedups(multi_ipcs, single_ipcs);
    if sp.is_empty() {
        return 0.0;
    }
    let n = sp.len() as f64;
    let denom: f64 = sp
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { f64::INFINITY })
        .sum();
    if denom.is_infinite() || denom.is_nan() || denom <= 0.0 {
        // Infinite: some thread is fully starved -> 0 by definition.
        // Non-positive or NaN cannot arise from positive speedups, but a
        // guarded 0 beats poisoning a whole figure bin.
        0.0
    } else {
        n / denom
    }
}

/// Relative improvement of `ours` over `baseline`, in percent.
pub fn improvement_pct(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (ours / baseline - 1.0) * 100.0
    }
}

/// Workload-level memory parallelism: average of the per-thread MLP values
/// over threads that had any outstanding L2 miss.
pub fn workload_mlp(result: &SimResult) -> f64 {
    let vals: Vec<f64> = result
        .threads
        .iter()
        .filter(|t| t.mlp_cycles > 0)
        .map(|t| t.mlp())
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::ThreadStats;

    #[test]
    fn throughput_sums() {
        assert_eq!(throughput(&[1.0, 2.0, 0.5]), 3.5);
        assert_eq!(throughput(&[]), 0.0);
    }

    #[test]
    fn hmean_penalises_starvation() {
        let single = [2.0, 2.0];
        // Balanced halving.
        let fair = hmean(&[1.0, 1.0], &single);
        assert!((fair - 0.5).abs() < 1e-12);
        // Same total IPC, but one thread starved: Hmean collapses.
        let unfair = hmean(&[2.0, 0.001], &single);
        assert!(unfair < fair / 10.0, "unfair={unfair} fair={fair}");
        // Fully starved thread -> 0.
        assert_eq!(hmean(&[2.0, 0.0], &single), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_baseline_rejected() {
        let _ = speedups(&[1.0], &[0.0]);
    }

    #[test]
    fn empty_inputs_score_zero_not_nan() {
        // Empty or fully-starved inputs must yield finite, zero scores —
        // a NaN here used to poison whole figure bins in partial sweeps.
        assert_eq!(hmean(&[], &[]), 0.0);
        assert!(hmean(&[], &[]).is_finite());
    }

    #[test]
    fn zero_ipc_threads_never_produce_inf_or_nan() {
        let single = [2.0, 2.0, 2.0];
        for multi in [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]] {
            let h = hmean(&multi, &single);
            assert_eq!(h, 0.0, "starved thread must zero the Hmean");
            assert!(h.is_finite());
        }
    }

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(1.08, 1.0) - 8.0).abs() < 1e-9);
        assert!(improvement_pct(0.9, 1.0) < 0.0);
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }

    fn result_with(fetched: &[u64], committed: &[u64]) -> SimResult {
        SimResult {
            cycles: 1000,
            policy: "X".into(),
            threads: fetched
                .iter()
                .zip(committed)
                .map(|(&f, &c)| ThreadStats {
                    fetched: f,
                    committed: c,
                    ..ThreadStats::default()
                })
                .collect(),
            phase_cycles: Vec::new(),
        }
    }

    #[test]
    fn workload_mlp_averages_busy_threads() {
        let mut r = result_with(&[0, 0], &[1, 1]);
        r.threads[0].mlp_sum = 40;
        // Thread 0 has MLP 4; thread 1 never missed, so it is excluded.
        r.threads[0].mlp_cycles = 10;
        assert!((workload_mlp(&r) - 4.0).abs() < 1e-12);
    }
}
