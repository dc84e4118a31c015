//! Paper Figure 4: throughput and Hmean improvement of DCRA over static
//! resource allocation (SRA), per workload class.

use crate::fault::RunError;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{sweep_lengths, sweep_policies, PolicySweep, TABLE4_THREADS};
use crate::tables::{pct, TextTable};
use smt_metrics::improvement_pct;
use smt_sim::SimConfig;
use smt_workloads::WorkloadType;

/// Both sweeps of the comparison.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// DCRA over all 36 workloads.
    pub dcra: PolicySweep,
    /// SRA over all 36 workloads.
    pub sra: PolicySweep,
}

impl Fig4Result {
    /// `(threads, kind, throughput improvement %, hmean improvement %)`.
    pub fn improvements(&self) -> Vec<(usize, WorkloadType, f64, f64)> {
        self.dcra
            .classes
            .iter()
            .map(|(t, k, d)| {
                let s = self.sra.class(*t, *k);
                (
                    *t,
                    *k,
                    improvement_pct(d.throughput, s.throughput),
                    improvement_pct(d.hmean, s.hmean),
                )
            })
            .collect()
    }

    /// Average `(throughput %, hmean %)` improvement (paper: ~7%, ~8%).
    /// An empty DCRA sweep averages to zeros, never to NaN.
    pub fn average_improvement(&self) -> (f64, f64) {
        let rows = self.improvements();
        if rows.is_empty() {
            return (0.0, 0.0);
        }
        let n = rows.len() as f64;
        (
            rows.iter().map(|r| r.2).sum::<f64>() / n,
            rows.iter().map(|r| r.3).sum::<f64>() / n,
        )
    }
}

/// Runs DCRA and SRA over the full Table-4 workload set.
pub fn run(runner: &Runner) -> Result<Fig4Result, RunError> {
    let config = SimConfig::baseline(2);
    let [dcra, sra] = sweep_policies(
        runner,
        &[
            PolicyKind::dcra_for_latency(config.mem.memory_latency),
            PolicyKind::Sra,
        ],
        &config,
        &sweep_lengths(),
        &TABLE4_THREADS,
    )?;
    Ok(Fig4Result { dcra, sra })
}

/// Formats the figure as a table of improvements per class.
pub fn report(result: &Fig4Result) -> TextTable {
    let mut t = TextTable::new(&["class", "DCRA tput", "SRA tput", "tput Δ", "hmean Δ"]);
    for (threads, kind, tput_imp, hmean_imp) in result.improvements() {
        let d = result.dcra.class(threads, kind);
        let s = result.sra.class(threads, kind);
        t.row_owned(vec![
            format!("{kind}{threads}"),
            format!("{:.2}", d.throughput),
            format!("{:.2}", s.throughput),
            pct(tput_imp),
            pct(hmean_imp),
        ]);
    }
    let (at, ah) = result.average_improvement();
    t.row_owned(vec![
        "avg".to_string(),
        String::new(),
        String::new(),
        pct(at),
        pct(ah),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ClassMetrics;

    fn sweep(policy: &str, classes: Vec<(usize, WorkloadType, ClassMetrics)>) -> PolicySweep {
        PolicySweep {
            policy: policy.into(),
            classes,
            failures: Vec::new(),
        }
    }

    #[test]
    fn an_empty_dcra_sweep_averages_to_zero_not_nan() {
        let m = ClassMetrics {
            throughput: 2.0,
            hmean: 0.8,
            fetch_per_commit: 1.1,
            mlp: 1.5,
        };
        let result = Fig4Result {
            dcra: sweep("DCRA", Vec::new()),
            sra: sweep("SRA", vec![(2, WorkloadType::Mem, m)]),
        };
        assert!(result.improvements().is_empty());
        assert_eq!(result.average_improvement(), (0.0, 0.0));
        let table = report(&result).to_string();
        assert!(!table.contains("NaN"), "{table}");
    }

    #[test]
    fn a_partial_dcra_sweep_averages_its_covered_classes() {
        let at = |throughput: f64, hmean: f64| ClassMetrics {
            throughput,
            hmean,
            fetch_per_commit: 1.0,
            mlp: 1.0,
        };
        let result = Fig4Result {
            dcra: sweep("DCRA", vec![(2, WorkloadType::Mem, at(1.1, 0.6))]),
            sra: sweep(
                "SRA",
                vec![
                    (2, WorkloadType::Mem, at(1.0, 0.5)),
                    (4, WorkloadType::Ilp, at(3.0, 0.9)),
                ],
            ),
        };
        let (tput, hm) = result.average_improvement();
        assert!((tput - 10.0).abs() < 1e-9, "{tput}");
        assert!((hm - 20.0).abs() < 1e-9, "{hm}");
    }
}
