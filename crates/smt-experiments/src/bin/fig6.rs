//! Regenerates paper Figure 6 (register-file size sensitivity).

use smt_experiments::sweep::sensitivity_report;
use smt_experiments::{fig6, Runner};
fn main() {
    let runner = Runner::new();
    let result = fig6::run(&runner).unwrap_or_else(|e| {
        eprintln!("figure 6 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Figure 6 — Hmean improvement of DCRA vs register pool size\n");
    println!("{}", sensitivity_report("regs", &result));
}
