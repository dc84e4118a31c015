//! Paired A/B throughput probe over the 12 four-thread Table-4 mixes.
//!
//! Measures simulated cycles per wall-clock second for a nine-policy
//! sweep over each 4-thread workload of the paper's Table 4 (ILP4, MIX4
//! and MEM4 — 12 mixes), reusing one simulator per mix across the
//! policies exactly like production sweeps do. Prints one line per mix
//! and a final `mean` line, machine-greppable:
//!
//! ```text
//! cargo run --release -p smt-experiments --bin ab_table4 -- [--cycles N]
//! ```
//!
//! Intended use is paired same-host interleaved A/B: build this bin at
//! two revisions, alternate invocations, and compare the means.

#![expect(
    clippy::disallowed_methods,
    reason = "host-time instrumentation: wall-clock readings are reported, never fed back into simulated state"
)]

use smt_experiments::PolicyKind;
use smt_sim::{SimConfig, Simulator};
use smt_workloads::{spec, workloads_of, WorkloadType};
use std::time::Instant;

fn policies() -> Vec<PolicyKind> {
    [
        "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
    ]
    .iter()
    .map(|n| PolicyKind::from_name(n).expect("canonical policy"))
    .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cycles: u64 = args
        .iter()
        .position(|a| a == "--cycles")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--cycles takes an integer"))
        .unwrap_or(30_000);

    let mixes: Vec<_> = WorkloadType::ALL
        .into_iter()
        .flat_map(|kind| workloads_of(kind, 4))
        .collect();
    let mut sum = 0.0;
    for w in &mixes {
        let benches: Vec<&str> = w.benchmarks.iter().map(String::as_str).collect();
        let profiles: Vec<_> = benches
            .iter()
            .map(|b| spec::profile(b).expect("known benchmark"))
            .collect();
        let mut sim = Simulator::new(
            SimConfig::baseline(benches.len()),
            &profiles,
            policies()[0].build(),
            42,
        );
        let mut simulated = 0u64;
        let mut elapsed = 0.0f64;
        for policy in policies() {
            sim.reset(&profiles, policy.build(), 42);
            sim.prewarm(20_000);
            sim.run_cycles(2_000); // warm the caches/predictors
            let t0 = Instant::now();
            sim.run_cycles(cycles);
            elapsed += t0.elapsed().as_secs_f64();
            simulated += cycles;
        }
        let rate = simulated as f64 / elapsed;
        println!("mix={} rate={rate:.0}", w.id());
        sum += rate;
    }
    println!("mean={:.0}", sum / mixes.len() as f64);
}
