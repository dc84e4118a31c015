//! Paper Table 3: per-benchmark L2 miss rates and the MEM/ILP split
//! (the calibration target of the synthetic workload substrate).

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunOutcome, RunSpec, Runner};
use crate::tables::TextTable;
use smt_workloads::spec;

/// One benchmark's calibration outcome.
#[derive(Debug, Clone)]
pub struct BenchCalibration {
    /// Benchmark name.
    pub name: String,
    /// Measured single-thread IPC.
    pub ipc: f64,
    /// Measured L1 data miss rate (fraction).
    pub l1_rate: f64,
    /// Measured L2 miss rate (fraction of L2 accesses).
    pub l2_rate: f64,
    /// The paper's Table-3 L2 miss rate (percent).
    pub paper_l2_pct: f64,
    /// MEM by the paper's criterion (paper value ≥ 1%).
    pub paper_mem: bool,
    /// MEM by our measurement (≥ 1%).
    pub measured_mem: bool,
}

/// Runs every benchmark single-threaded and measures its cache behaviour.
/// Uses longer runs than the policy experiments so the L2-resident working
/// sets reach steady state.
pub fn run(runner: &Runner) -> Result<Vec<BenchCalibration>, RunError> {
    let specs: Vec<RunSpec> = spec::names()
        .iter()
        .map(|name| {
            let mut s = RunSpec::new(&[name], PolicyKind::Icount);
            s.prewarm_insts = 600_000;
            s.warmup_cycles = 50_000;
            s.measure_cycles = 400_000;
            s
        })
        .collect();
    let outs = runner
        .run_all_with_workers(&specs, default_workers())
        .into_iter()
        .map(RunOutcome::into_stats)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(spec::names()
        .iter()
        .zip(outs)
        .map(|(name, out)| {
            let m = out.mem.first().copied().unwrap_or_default();
            let paper = spec::paper_l2_miss_pct(name).unwrap_or(0.0);
            BenchCalibration {
                name: name.to_string(),
                ipc: out.throughput(),
                l1_rate: m.l1_miss_rate(),
                l2_rate: m.l2_miss_rate(),
                paper_l2_pct: paper,
                paper_mem: paper >= 1.0,
                measured_mem: m.l2_miss_rate() * 100.0 >= 1.0,
            }
        })
        .collect())
}

/// Formats the calibration as paper-vs-measured.
pub fn report(rows: &[BenchCalibration]) -> TextTable {
    let mut t = TextTable::new(&[
        "bench",
        "type",
        "IPC",
        "L1 miss%",
        "L2 miss% (ours)",
        "L2 miss% (paper)",
        "class ok",
    ]);
    for r in rows {
        t.row_owned(vec![
            r.name.clone(),
            if r.paper_mem { "MEM" } else { "ILP" }.to_string(),
            format!("{:.2}", r.ipc),
            format!("{:.1}", r.l1_rate * 100.0),
            format!("{:.1}", r.l2_rate * 100.0),
            format!("{:.1}", r.paper_l2_pct),
            if r.paper_mem == r.measured_mem {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shortened calibration smoke test: the headline MEM benchmark and an
    /// ILP benchmark must land on the right side of the 1% line.
    #[test]
    fn mcf_is_mem_gzip_is_ilp() {
        let runner = Runner::new();
        let mut mcf = RunSpec::new(&["mcf"], PolicyKind::Icount);
        mcf.prewarm_insts = 300_000;
        mcf.warmup_cycles = 20_000;
        mcf.measure_cycles = 150_000;
        let out = runner.run(&mcf).expect("known bench");
        assert!(
            out.mem[0].l2_miss_rate() > 0.01,
            "mcf L2 miss rate {:.3} should exceed 1%",
            out.mem[0].l2_miss_rate()
        );

        let mut gz = RunSpec::new(&["gzip"], PolicyKind::Icount);
        gz.prewarm_insts = 300_000;
        gz.warmup_cycles = 20_000;
        gz.measure_cycles = 150_000;
        let out = runner.run(&gz).expect("known bench");
        assert!(
            out.mem[0].l2_miss_rate() < 0.01,
            "gzip L2 miss rate {:.3} should be below 1%",
            out.mem[0].l2_miss_rate()
        );
    }
}
