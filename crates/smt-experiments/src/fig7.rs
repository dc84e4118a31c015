//! Paper Figure 7: Hmean improvement of DCRA over ICOUNT, FLUSH++, DG and
//! SRA as the main-memory latency changes (100/300/500 cycles; L2 latency
//! 10/20/25), with DCRA's sharing factor re-tuned per latency as in
//! Section 5.3.

use crate::fault::RunError;
use crate::fig6::BASELINES;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{sensitivity_lengths, sweep_policy_threads};
use crate::tables::{pct, TextTable};
use smt_metrics::improvement_pct;
use smt_sim::SimConfig;

/// `(memory latency, L2 latency)` pairs the paper sweeps.
pub const LATENCIES: [(u32, u32); 3] = [(100, 10), (300, 20), (500, 25)];

/// For each latency: the average Hmean improvement of DCRA over each
/// baseline policy.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// `(memory latency, [improvement % per BASELINES entry])`.
    pub rows: Vec<(u32, [f64; 4])>,
}

/// Runs the latency sensitivity sweep.
pub fn run(runner: &Runner) -> Result<Fig7Result, RunError> {
    let lengths = sensitivity_lengths();
    let mut rows = Vec::new();
    for (mem_lat, l2_lat) in LATENCIES {
        let mut config = SimConfig::baseline(2);
        config.mem.memory_latency = mem_lat;
        config.mem.l2.latency = l2_lat;
        // Section 5.3: DCRA's C is re-tuned for each latency.
        let dcra_kind = PolicyKind::dcra_for_latency(mem_lat);
        let dcra = sweep_policy_threads(runner, &dcra_kind, &config, &lengths, &[2])?;
        let mut imps = [0.0f64; 4];
        for (imp, base) in imps.iter_mut().zip(&BASELINES) {
            let sweep = sweep_policy_threads(runner, base, &config, &lengths, &[2])?;
            *imp = improvement_pct(dcra.average().hmean, sweep.average().hmean);
        }
        rows.push((mem_lat, imps));
    }
    Ok(Fig7Result { rows })
}

/// Formats the figure: one row per latency, one column per baseline.
pub fn report(result: &Fig7Result) -> TextTable {
    let mut t = TextTable::new(&["latency", "vs ICOUNT", "vs FLUSH++", "vs DG", "vs SRA"]);
    for (lat, imps) in &result.rows {
        t.row_owned(vec![
            lat.to_string(),
            pct(imps[0]),
            pct(imps[1]),
            pct(imps[2]),
            pct(imps[3]),
        ]);
    }
    t
}
