//! Regenerates paper Table 3 (per-benchmark L2 miss rates / MEM-ILP split).

use smt_experiments::{table3, Runner};
fn main() {
    let runner = Runner::new();
    let rows = table3::run(&runner).unwrap_or_else(|e| {
        eprintln!("table 3 calibration failed: {e}");
        std::process::exit(1);
    });
    println!("Table 3 — benchmark cache behaviour (single-thread)\n");
    println!("{}", table3::report(&rows));
}
