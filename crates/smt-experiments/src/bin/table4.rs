//! Prints paper Table 4 (the 36 multiprogrammed workloads).

use smt_workloads::table4_workloads;
fn main() {
    println!("Table 4 — workloads\n");
    for w in table4_workloads() {
        println!("{w}");
    }
}
