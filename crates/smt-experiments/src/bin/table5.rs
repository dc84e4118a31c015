//! Regenerates paper Table 5 (phase distribution of 2-thread workloads).

use smt_experiments::sweep::sensitivity_lengths;
use smt_experiments::{table5, Runner};
fn main() {
    let runner = Runner::new();
    let cycles = sensitivity_lengths().measure_cycles;
    let rows = table5::run(&runner, cycles).unwrap_or_else(|e| {
        eprintln!("table 5 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Table 5 — % of cycles in each phase combination (2 threads)\n");
    println!("{}", table5::report(&rows));
}
