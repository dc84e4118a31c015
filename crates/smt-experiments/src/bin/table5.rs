//! Regenerates paper Table 5 (phase distribution of 2-thread workloads).

use smt_experiments::table5;
fn main() {
    let rows = table5::run(150_000).unwrap_or_else(|e| {
        eprintln!("table 5 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Table 5 — % of cycles in each phase combination (2 threads)\n");
    println!("{}", table5::report(&rows));
}
