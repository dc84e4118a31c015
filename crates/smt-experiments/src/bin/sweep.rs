//! Runs one policy over the paper's 36 Table-4 workloads and prints the
//! per-class aggregate metrics (the raw material behind Figures 4 and 5).
//!
//! Usage: `sweep [POLICY]` where POLICY is one of RR, ICOUNT, STALL,
//! FLUSH, FLUSH++, DG, PDG, SRA, DCRA (default DCRA).

use smt_experiments::runner::{PolicyKind, Runner};
use smt_experiments::sweep::{sweep_lengths, sweep_policy};
use smt_sim::SimConfig;

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "DCRA".to_string());
    let policy = PolicyKind::from_name(&arg).unwrap_or_else(|| {
        eprintln!("unknown policy `{arg}`; expected RR, ICOUNT, STALL, FLUSH, FLUSH++, DG, PDG, SRA or DCRA");
        std::process::exit(2);
    });

    let runner = Runner::new();
    let config = SimConfig::baseline(2);
    let sweep = sweep_policy(&runner, &policy, &config, &sweep_lengths()).unwrap_or_else(|e| {
        eprintln!("policy sweep failed: {e}");
        std::process::exit(1);
    });

    println!(
        "Policy sweep — {} over the 36 Table-4 workloads\n",
        sweep.policy
    );
    println!(
        "{:<10} {:>6} {:>12} {:>8} {:>12} {:>8}",
        "class", "thrds", "throughput", "hmean", "fetch/commit", "MLP"
    );
    for (threads, kind, m) in &sweep.classes {
        println!(
            "{:<10} {:>6} {:>12.3} {:>8.3} {:>12.3} {:>8.3}",
            format!("{kind:?}"),
            threads,
            m.throughput,
            m.hmean,
            m.fetch_per_commit,
            m.mlp
        );
    }
    let avg = sweep.average();
    println!(
        "\naverage    {:>6} {:>12.3} {:>8.3} {:>12.3} {:>8.3}",
        "-", avg.throughput, avg.hmean, avg.fetch_per_commit, avg.mlp
    );
}
