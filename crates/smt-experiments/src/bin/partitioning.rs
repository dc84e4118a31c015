//! Partial-partitioning study: which resources should be statically split?

use smt_experiments::{partitioning, Runner};
fn main() {
    let runner = Runner::new();
    let rows = partitioning::run(&runner, 200_000).unwrap_or_else(|e| {
        eprintln!("partitioning study failed: {e}");
        std::process::exit(1);
    });
    println!("Partial partitioning vs dynamic allocation — MIX2+MEM2 workloads\n");
    println!("{}", partitioning::report(&rows));
}
