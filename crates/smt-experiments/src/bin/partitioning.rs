//! Partial-partitioning study: which resources should be statically split?

use smt_experiments::sweep::{run_study, study_report, study_workloads, sweep_lengths};
use smt_experiments::{partitioning, Runner};
fn main() {
    let mut lengths = sweep_lengths();
    lengths.measure_cycles = 200_000;
    let rows = run_study(
        &Runner::new(),
        &study_workloads(),
        &partitioning::variants(),
        &lengths,
    )
    .unwrap_or_else(|e| {
        eprintln!("partitioning study failed: {e}");
        std::process::exit(1);
    });
    println!("Partial partitioning vs dynamic allocation — MIX2+MEM2 workloads\n");
    println!("{}", study_report(&rows));
}
