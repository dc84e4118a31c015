//! Runs the DCRA design-choice ablations (activity-counter window, sharing
//! factor, degenerate-case detection).

use smt_experiments::sweep::{run_study, study_report, study_workloads, sweep_lengths};
use smt_experiments::{ablation, Runner};
fn main() {
    let mut lengths = sweep_lengths();
    lengths.measure_cycles = 200_000;
    let rows = run_study(
        &Runner::new(),
        &study_workloads(),
        &ablation::variants(),
        &lengths,
    )
    .unwrap_or_else(|e| {
        eprintln!("ablation sweep failed: {e}");
        std::process::exit(1);
    });
    println!("DCRA ablations — MIX2+MEM2 workloads, baseline machine\n");
    println!("{}", study_report(&rows));
}
