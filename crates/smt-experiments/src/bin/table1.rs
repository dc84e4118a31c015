//! Regenerates paper Table 1 (pre-computed DCRA allocations).

fn main() {
    println!("Table 1 — DCRA allocations, 32-entry resource, 4 threads (C = 1/A)\n");
    println!("{}", smt_experiments::table1::report());
}
