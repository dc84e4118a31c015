//! Paper Figure 6: Hmean improvement of DCRA over ICOUNT, FLUSH++, DG and
//! SRA as the physical register pool grows (320/352/384 registers,
//! 80-entry queues, 300-cycle memory).

use crate::fault::RunError;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{sensitivity_lengths, sweep_policy_threads};
use crate::tables::{pct, TextTable};
use smt_metrics::improvement_pct;
use smt_sim::SimConfig;

/// The register-pool sizes the paper sweeps.
pub const REGISTER_SIZES: [u32; 3] = [320, 352, 384];

/// Baselines compared against, in the paper's column order.
pub const BASELINES: [PolicyKind; 4] = [
    PolicyKind::Icount,
    PolicyKind::FlushPlusPlus,
    PolicyKind::DataGating,
    PolicyKind::Sra,
];

/// For each register size: the average Hmean improvement of DCRA over each
/// baseline policy (all 36 workloads).
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// `(regs, [improvement % per BASELINES entry])`.
    pub rows: Vec<(u32, [f64; 4])>,
}

/// Runs the register-size sensitivity sweep.
pub fn run(runner: &Runner) -> Result<Fig6Result, RunError> {
    let lengths = sensitivity_lengths();
    let mut rows = Vec::new();
    for regs in REGISTER_SIZES {
        let mut config = SimConfig::baseline(2);
        config.phys_regs = regs;
        let dcra = sweep_policy_threads(
            runner,
            &PolicyKind::dcra_for_latency(300),
            &config,
            &lengths,
            &[2],
        )?;
        let mut imps = [0.0f64; 4];
        for (imp, base) in imps.iter_mut().zip(&BASELINES) {
            let sweep = sweep_policy_threads(runner, base, &config, &lengths, &[2])?;
            *imp = improvement_pct(dcra.average().hmean, sweep.average().hmean);
        }
        rows.push((regs, imps));
    }
    Ok(Fig6Result { rows })
}

/// Formats the figure: one row per register size, one column per baseline.
pub fn report(result: &Fig6Result) -> TextTable {
    let mut t = TextTable::new(&["regs", "vs ICOUNT", "vs FLUSH++", "vs DG", "vs SRA"]);
    for (regs, imps) in &result.rows {
        t.row_owned(vec![
            regs.to_string(),
            pct(imps[0]),
            pct(imps[1]),
            pct(imps[2]),
            pct(imps[3]),
        ]);
    }
    t
}
