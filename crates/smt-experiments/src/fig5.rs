//! Paper Figure 5: DCRA vs the fetch policies ICOUNT, DG and FLUSH++ —
//! (a) raw IPC throughput per workload class, (b) Hmean improvement of
//! DCRA over each policy.

use crate::fault::RunError;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{sweep_lengths, sweep_policies, PolicySweep, TABLE4_THREADS};
use crate::tables::{f2, pct, TextTable};
use smt_metrics::improvement_pct;
use smt_sim::SimConfig;

/// All four sweeps of the comparison.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// ICOUNT sweep.
    pub icount: PolicySweep,
    /// DG sweep.
    pub dg: PolicySweep,
    /// FLUSH++ sweep.
    pub flushpp: PolicySweep,
    /// DCRA sweep.
    pub dcra: PolicySweep,
}

impl Fig5Result {
    /// The baseline sweeps DCRA is compared against.
    pub fn baselines(&self) -> [&PolicySweep; 3] {
        [&self.icount, &self.dg, &self.flushpp]
    }

    /// Average Hmean improvement of DCRA over `baseline`
    /// (paper: ICOUNT +18%, DG +41%, FLUSH++ +4%).
    pub fn avg_hmean_improvement(&self, baseline: &PolicySweep) -> f64 {
        improvement_pct(self.dcra.average().hmean, baseline.average().hmean)
    }

    /// Average throughput improvement of DCRA over `baseline`
    /// (paper: ICOUNT +24%, DG +30%, FLUSH++ +1%).
    pub fn avg_throughput_improvement(&self, baseline: &PolicySweep) -> f64 {
        improvement_pct(
            self.dcra.average().throughput,
            baseline.average().throughput,
        )
    }
}

/// Runs the four policies over the full Table-4 workload set.
pub fn run(runner: &Runner) -> Result<Fig5Result, RunError> {
    let config = SimConfig::baseline(2);
    let [icount, dg, flushpp, dcra] = sweep_policies(
        runner,
        &[
            PolicyKind::Icount,
            PolicyKind::DataGating,
            PolicyKind::FlushPlusPlus,
            PolicyKind::dcra_for_latency(config.mem.memory_latency),
        ],
        &config,
        &sweep_lengths(),
        &TABLE4_THREADS,
    )?;
    Ok(Fig5Result {
        icount,
        dg,
        flushpp,
        dcra,
    })
}

/// Figure 5(a): IPC throughput per class and policy.
pub fn report_throughput(result: &Fig5Result) -> TextTable {
    let mut t = TextTable::new(&["class", "ICOUNT", "DG", "FLUSH++", "DCRA"]);
    for (threads, kind, d) in &result.dcra.classes {
        t.row_owned(vec![
            format!("{kind}{threads}"),
            f2(result.icount.class(*threads, *kind).throughput),
            f2(result.dg.class(*threads, *kind).throughput),
            f2(result.flushpp.class(*threads, *kind).throughput),
            f2(d.throughput),
        ]);
    }
    t
}

/// Figure 5(b): Hmean improvement of DCRA over each fetch policy per class.
pub fn report_hmean(result: &Fig5Result) -> TextTable {
    let mut t = TextTable::new(&["class", "vs ICOUNT", "vs DG", "vs FLUSH++"]);
    for (threads, kind, d) in &result.dcra.classes {
        t.row_owned(vec![
            format!("{kind}{threads}"),
            pct(improvement_pct(
                d.hmean,
                result.icount.class(*threads, *kind).hmean,
            )),
            pct(improvement_pct(
                d.hmean,
                result.dg.class(*threads, *kind).hmean,
            )),
            pct(improvement_pct(
                d.hmean,
                result.flushpp.class(*threads, *kind).hmean,
            )),
        ]);
    }
    t.row_owned(vec![
        "avg".to_string(),
        pct(result.avg_hmean_improvement(&result.icount)),
        pct(result.avg_hmean_improvement(&result.dg)),
        pct(result.avg_hmean_improvement(&result.flushpp)),
    ]);
    t
}
