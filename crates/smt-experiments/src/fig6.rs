//! Paper Figure 6: Hmean improvement of DCRA over ICOUNT, FLUSH++, DG and
//! SRA as the physical register pool grows (320/352/384 registers,
//! 80-entry queues, 300-cycle memory).

use crate::fault::RunError;
use crate::runner::{PolicyKind, Runner};
use crate::sweep::{run_sensitivity, SensitivityResult};
use smt_sim::SimConfig;

/// The register-pool sizes the paper sweeps.
pub const REGISTER_SIZES: [u32; 3] = [320, 352, 384];

/// Runs the register-size sensitivity sweep; format it with
/// [`crate::sweep::sensitivity_report`] under "regs".
pub fn run(runner: &Runner) -> Result<SensitivityResult, RunError> {
    run_sensitivity(
        runner,
        REGISTER_SIZES.map(|regs| {
            let mut config = SimConfig::baseline(2);
            config.phys_regs = regs;
            let dcra = PolicyKind::dcra_for_latency(config.mem.memory_latency);
            (regs, config, dcra)
        }),
    )
}
