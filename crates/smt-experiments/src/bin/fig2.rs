//! Regenerates paper Figure 2 (single-thread speed vs resource share).

use smt_experiments::{fig2, Runner};
fn main() {
    let runner = Runner::new();
    let results = fig2::run(&runner, 80_000).unwrap_or_else(|e| {
        eprintln!("figure 2 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Figure 2 — fraction of full speed vs % of one resource (perfect DL1)\n");
    println!("{}", fig2::report(&results));
}
