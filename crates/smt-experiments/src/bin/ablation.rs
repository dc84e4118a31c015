//! Runs the DCRA design-choice ablations (activity-counter window, sharing
//! factor, degenerate-case detection, table-driven implementation).

use smt_experiments::{ablation, Runner};
fn main() {
    let runner = Runner::new();
    let rows = ablation::run(&runner, 200_000).unwrap_or_else(|e| {
        eprintln!("ablation sweep failed: {e}");
        std::process::exit(1);
    });
    println!("DCRA ablations — MIX2+MEM2 workloads, baseline machine\n");
    println!("{}", ablation::report(&rows));
}
