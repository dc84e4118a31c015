//! Paper Table 5: how often the two threads of 2-thread workloads are in
//! the same or different phases (slow/slow, fast/slow, fast/fast).
//!
//! The phase signal is the paper's own criterion: a thread is *slow* while
//! it has pending L1 data misses (Section 3.1.1).

use crate::fault::RunError;
use crate::tables::TextTable;
use smt_isa::ThreadId;
use smt_sim::{SimConfig, Simulator};
use smt_workloads::{spec, workloads_of, WorkloadType};

/// Phase-combination shares for one workload class, in percent.
#[derive(Debug, Clone, Copy)]
pub struct PhaseDistribution {
    /// Both threads slow.
    pub slow_slow: f64,
    /// One slow, one fast.
    pub mixed: f64,
    /// Both fast.
    pub fast_fast: f64,
}

/// Paper Table 5 values (percent) for comparison.
pub const PAPER: [(WorkloadType, PhaseDistribution); 3] = [
    (
        WorkloadType::Ilp,
        PhaseDistribution {
            slow_slow: 7.8,
            mixed: 41.4,
            fast_fast: 50.8,
        },
    ),
    (
        WorkloadType::Mix,
        PhaseDistribution {
            slow_slow: 25.6,
            mixed: 63.2,
            fast_fast: 11.2,
        },
    ),
    (
        WorkloadType::Mem,
        PhaseDistribution {
            slow_slow: 85.0,
            mixed: 14.7,
            fast_fast: 0.3,
        },
    ),
];

/// Samples the phase combination every cycle for all four groups of each
/// 2-thread workload class.
///
/// # Errors
///
/// [`RunError::UnknownBenchmark`] if a Table-4 workload names a benchmark
/// missing from the registry — typed like every other driver since PR 7,
/// instead of panicking mid-sweep.
pub fn run(cycles_per_workload: u64) -> Result<Vec<(WorkloadType, PhaseDistribution)>, RunError> {
    let mut rows = Vec::with_capacity(WorkloadType::ALL.len());
    for &kind in WorkloadType::ALL.iter() {
        let mut counts = [0u64; 3];
        for w in workloads_of(kind, 2) {
            let profiles = w
                .benchmarks
                .iter()
                .map(|b| {
                    spec::profile(b).ok_or_else(|| RunError::UnknownBenchmark { bench: b.clone() })
                })
                .collect::<Result<Vec<_>, RunError>>()?;
            let mut sim =
                Simulator::new(SimConfig::baseline(2), &profiles, smt_policies::Icount, 42);
            sim.prewarm(300_000);
            sim.run_cycles(20_000);
            for _ in 0..cycles_per_workload {
                sim.step();
                let slow0 = sim.thread_l1d_pending(ThreadId::new(0)) > 0;
                let slow1 = sim.thread_l1d_pending(ThreadId::new(1)) > 0;
                let count = match (slow0, slow1) {
                    (true, true) => &mut counts[0],
                    (false, false) => &mut counts[2],
                    _ => &mut counts[1],
                };
                *count += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        let pct = |c: u64| 100.0 * c as f64 / total.max(1) as f64;
        rows.push((
            kind,
            PhaseDistribution {
                slow_slow: pct(counts[0]),
                mixed: pct(counts[1]),
                fast_fast: pct(counts[2]),
            },
        ));
    }
    Ok(rows)
}

/// The paper's Table-5 distribution for one workload class, if the paper
/// reports it (the paper covers exactly ILP/MIX/MEM).
pub fn paper_row(kind: WorkloadType) -> Option<PhaseDistribution> {
    PAPER.iter().find(|(k, _)| *k == kind).map(|(_, p)| *p)
}

/// Formats measured-vs-paper distributions. A class the paper does not
/// report renders its paper columns as explicit "—" markers instead of
/// dropping the measured row or dying on the lookup.
pub fn report(rows: &[(WorkloadType, PhaseDistribution)]) -> TextTable {
    let mut t = TextTable::new(&[
        "workload", "SS ours", "SS paper", "SF ours", "SF paper", "FF ours", "FF paper",
    ]);
    for (kind, d) in rows {
        let fmt_paper = |f: fn(&PhaseDistribution) -> f64| {
            paper_row(*kind)
                .map(|p| format!("{:.1}", f(&p)))
                .unwrap_or_else(|| "—".to_string())
        };
        t.row_owned(vec![
            kind.to_string(),
            format!("{:.1}", d.slow_slow),
            fmt_paper(|p| p.slow_slow),
            format!("{:.1}", d.mixed),
            fmt_paper(|p| p.mixed),
            format!("{:.1}", d.fast_fast),
            fmt_paper(|p| p.fast_fast),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short sampling run: the qualitative ordering of Table 5 must hold —
    /// MEM workloads spend the most time slow-slow, ILP the least.
    #[test]
    fn phase_ordering_matches_paper() {
        let rows = run(15_000).expect("registry benchmarks");
        let get = |k: WorkloadType| {
            rows.iter()
                .find(|(kind, _)| *kind == k)
                .unwrap_or_else(|| panic!("run() must cover {k}"))
                .1
        };
        let ilp = get(WorkloadType::Ilp);
        let mem = get(WorkloadType::Mem);
        assert!(
            mem.slow_slow > ilp.slow_slow,
            "MEM SS ({:.1}) must exceed ILP SS ({:.1})",
            mem.slow_slow,
            ilp.slow_slow
        );
        assert!(
            ilp.fast_fast > mem.fast_fast,
            "ILP FF ({:.1}) must exceed MEM FF ({:.1})",
            ilp.fast_fast,
            mem.fast_fast
        );
        for (_, d) in &rows {
            let sum = d.slow_slow + d.mixed + d.fast_fast;
            assert!((sum - 100.0).abs() < 1e-6, "shares must sum to 100");
        }
    }
}
