//! Regenerates paper Figure 4 (DCRA vs SRA).

use smt_experiments::{fig4, Runner};
fn main() {
    let runner = Runner::new();
    let result = fig4::run(&runner).unwrap_or_else(|e| {
        eprintln!("figure 4 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Figure 4 — DCRA improvement over static resource allocation\n");
    println!("{}", fig4::report(&result));
}
