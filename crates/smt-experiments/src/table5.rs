//! Paper Table 5: how often the two threads of 2-thread workloads are in
//! the same or different phases (slow/slow, fast/slow, fast/fast).
//!
//! The phase signal is the paper's own criterion: a thread is *slow* while
//! it has pending L1 data misses (Section 3.1.1).

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunSpec, Runner};
use crate::sweep::sensitivity_lengths;
use crate::tables::TextTable;
use smt_workloads::{workloads_of, WorkloadType};

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

/// Measures the phase combination of every cycle of all four groups of
/// each 2-thread workload class: one engine call of twelve ICOUNT runs,
/// seeded, prewarmed and warmed up as the sensitivity sweeps are,
/// measuring `cycles_per_workload` cycles each. The simulator counts the phase
/// combinations itself ([`SimResult::phase_cycles`](smt_sim::SimResult::phase_cycles)).
///
/// # Errors
///
/// The error of the first failed run, e.g. [`RunError::UnknownBenchmark`]
/// if a Table-4 workload names a benchmark missing from the registry.
pub fn run(
    runner: &Runner,
    cycles_per_workload: u64,
) -> Result<Vec<(WorkloadType, PhaseDistribution)>, RunError> {
    let lengths = sensitivity_lengths();
    let classes = WorkloadType::ALL.map(|kind| (kind, workloads_of(kind, 2)));
    let specs: Vec<RunSpec> = classes
        .iter()
        .flat_map(|(_, workloads)| workloads)
        .map(|w| {
            let mut s = RunSpec::for_workload(w, PolicyKind::Icount).with_lengths(&lengths);
            s.measure_cycles = cycles_per_workload;
            s
        })
        .collect();
    let mut outcomes = runner
        .run_all_with_workers(&specs, default_workers())
        .into_iter();
    classes
        .into_iter()
        .map(|(kind, workloads)| {
            let (mut both, mut one, mut neither) = (0u64, 0u64, 0u64);
            for outcome in outcomes.by_ref().take(workloads.len()) {
                let stats = outcome.into_stats()?;
                for (slow, &cycles) in stats.result.phase_cycles.iter().enumerate() {
                    match slow.count_ones() {
                        0 => neither += cycles,
                        1 => one += cycles,
                        _ => both += cycles,
                    }
                }
            }
            let total = both + one + neither;
            let pct = |c: u64| 100.0 * c as f64 / total.max(1) as f64;
            Ok((
                kind,
                PhaseDistribution {
                    slow_slow: pct(both),
                    mixed: pct(one),
                    fast_fast: pct(neither),
                },
            ))
        })
        .collect()
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
        let rows = run(&Runner::new(), 15_000).expect("registry benchmarks");
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
