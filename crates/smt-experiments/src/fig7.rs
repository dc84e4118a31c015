//! Paper Figure 7: Hmean improvement of DCRA over ICOUNT, FLUSH++, DG and
//! SRA as the main-memory latency changes (100/300/500 cycles; L2 latency
//! 10/20/25), with DCRA's sharing factor re-tuned per latency as in
//! Section 5.3.

use crate::fault::RunError;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{run_sensitivity, SensitivityResult};
use smt_sim::SimConfig;

/// `(memory latency, L2 latency)` pairs the paper sweeps.
pub const LATENCIES: [(u32, u32); 3] = [(100, 10), (300, 20), (500, 25)];

/// Runs the latency sensitivity sweep; format it with
/// [`crate::sweep::sensitivity_report`] under "latency".
pub fn run(runner: &Runner) -> Result<SensitivityResult, RunError> {
    run_sensitivity(
        runner,
        LATENCIES.map(|(mem_lat, l2_lat)| {
            let mut config = SimConfig::baseline(2);
            config.mem.memory_latency = mem_lat;
            config.mem.l2.latency = l2_lat;
            // Section 5.3: DCRA's C is re-tuned for each latency.
            (mem_lat, config, PolicyKind::dcra_for_latency(mem_lat))
        }),
    )
}
