//! Regenerates the Section-5.2 in-text measurements (front-end activity,
//! memory parallelism).

use smt_experiments::{extra, Runner};
fn main() {
    let runner = Runner::new();
    let result = extra::run(&runner).unwrap_or_else(|e| {
        eprintln!("section 5.2 sweep failed: {e}");
        std::process::exit(1);
    });
    println!("Section 5.2 — front-end activity and memory parallelism\n");
    println!("{}", extra::report(&result));
}
