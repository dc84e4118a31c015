//! Section 5.2's in-text measurements: FLUSH++'s extra front-end activity
//! relative to DCRA, and DCRA's memory-parallelism (overlapping L2 miss)
//! advantage.

use crate::fault::RunError;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{sweep_lengths, sweep_policies, PolicySweep, TABLE4_THREADS};
use crate::tables::{f2, pct, TextTable};
use smt_metrics::improvement_pct;
use smt_sim::SimConfig;
use smt_workloads::WorkloadType;

/// Front-end activity and MLP comparison between FLUSH++ and DCRA.
#[derive(Debug, Clone)]
pub struct ExtraResult {
    /// FLUSH++ sweep.
    pub flushpp: PolicySweep,
    /// DCRA sweep.
    pub dcra: PolicySweep,
}

impl ExtraResult {
    /// Extra fetched-per-committed work of FLUSH++ relative to DCRA, in
    /// percent (paper: +108% at 300-cycle latency).
    pub fn extra_frontend_pct(&self) -> f64 {
        improvement_pct(
            self.flushpp.average().fetch_per_commit,
            self.dcra.average().fetch_per_commit,
        )
    }

    /// MLP increase of DCRA over FLUSH++ per workload type, in percent
    /// (paper: ILP +22%, MIX +32%, MEM +0.5%; avg +18%).
    /// A type no surviving class covers compares as 0%, never NaN.
    pub fn mlp_increase_by_type(&self) -> Vec<(WorkloadType, f64)> {
        WorkloadType::ALL
            .iter()
            .map(|&kind| {
                let mlp = |s: &PolicySweep| s.type_average(kind).mlp;
                (kind, improvement_pct(mlp(&self.dcra), mlp(&self.flushpp)))
            })
            .collect()
    }
}

/// Runs FLUSH++ and DCRA over the full workload set.
pub fn run(runner: &Runner) -> Result<ExtraResult, RunError> {
    let config = SimConfig::baseline(2);
    let [flushpp, dcra] = sweep_policies(
        runner,
        &[
            PolicyKind::FlushPlusPlus,
            PolicyKind::dcra_for_latency(config.mem.memory_latency),
        ],
        &config,
        &sweep_lengths(),
        &TABLE4_THREADS,
    )?;
    Ok(ExtraResult { flushpp, dcra })
}

/// Formats both in-text measurements.
pub fn report(result: &ExtraResult) -> TextTable {
    let mut t = TextTable::new(&["metric", "FLUSH++", "DCRA", "Δ"]);
    t.row_owned(vec![
        "fetched / committed".to_string(),
        f2(result.flushpp.average().fetch_per_commit),
        f2(result.dcra.average().fetch_per_commit),
        pct(result.extra_frontend_pct()),
    ]);
    for (kind, imp) in result.mlp_increase_by_type() {
        t.row_owned(vec![
            format!("MLP ({kind})"),
            f2(result.flushpp.type_average(kind).mlp),
            f2(result.dcra.type_average(kind).mlp),
            pct(imp),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ClassMetrics;

    fn partial(policy: &str, mlp: f64) -> PolicySweep {
        // Only the MEM classes survived: ILP and MIX have no class left.
        let m = ClassMetrics {
            throughput: 1.0,
            hmean: 0.5,
            fetch_per_commit: 1.2,
            mlp,
        };
        PolicySweep {
            policy: policy.into(),
            classes: vec![(2, WorkloadType::Mem, m), (4, WorkloadType::Mem, m)],
            failures: Vec::new(),
        }
    }

    #[test]
    fn a_type_with_no_surviving_class_is_zero_not_nan() {
        let result = ExtraResult {
            flushpp: partial("FLUSH++", 2.0),
            dcra: partial("DCRA", 3.0),
        };
        for (kind, imp) in result.mlp_increase_by_type() {
            let want = if kind == WorkloadType::Mem { 50.0 } else { 0.0 };
            assert!((imp - want).abs() < 1e-9, "{kind}: {imp}");
        }
        assert_eq!(result.dcra.type_average(WorkloadType::Ilp).mlp, 0.0);
        assert_eq!(result.dcra.type_average(WorkloadType::Mem).mlp, 3.0);
        let table = report(&result).to_string();
        assert!(!table.contains("NaN"), "{table}");
    }
}
