//! Regenerates paper Figure 7 (memory latency sensitivity).

use smt_experiments::sweep::sensitivity_report;
use smt_experiments::{fig7, Runner};
fn main() {
    let runner = Runner::new();
    let result = fig7::run(&runner).unwrap_or_else(|e| {
        eprintln!("figure 7 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Figure 7 — Hmean improvement of DCRA vs memory latency\n");
    println!("{}", sensitivity_report("latency", &result));
}
