//! Ad-hoc diagnostic runner: run one workload under one policy with full
//! per-thread statistics. Usage:
//!
//! ```text
//! cargo run --release -p smt-experiments --bin diagnose -- POLICY bench [bench ...]
//! ```
//!
//! With no arguments it runs DCRA, tuned for the baseline machine's
//! memory latency, on gzip+mcf. A policy without benchmarks is a usage
//! error (exit 2).

use smt_experiments::{PolicyKind, RunSpec, Runner};
use smt_sim::SimConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (policy, benches): (Option<PolicyKind>, Vec<&str>) = match args.as_slice() {
        [] => (None, vec!["gzip", "mcf"]),
        [_] => {
            eprintln!("usage: diagnose [POLICY bench [bench ...]]");
            std::process::exit(2);
        }
        [name, benches @ ..] => {
            let p = PolicyKind::from_name(name).unwrap_or_else(|| {
                eprintln!("unknown policy `{name}`");
                std::process::exit(2);
            });
            (Some(p), benches.iter().map(String::as_str).collect())
        }
    };

    let machine = SimConfig::baseline(benches.len());
    let policy = policy.unwrap_or_else(|| PolicyKind::dcra_for_latency(machine.mem.memory_latency));
    let runner = Runner::new();
    let spec = RunSpec::new(&benches, policy).with_config(machine);
    let out = runner.run(&spec).unwrap_or_else(|e| {
        eprintln!("diagnostic run failed: {e}");
        std::process::exit(1);
    });
    println!(
        "{} on {}: throughput {:.3} IPC over {} cycles",
        spec.policy.name(),
        benches.join("+"),
        out.throughput(),
        out.result.cycles
    );
    for (i, b) in benches.iter().enumerate() {
        let t = &out.result.threads[i];
        let m = &out.mem[i];
        println!(
            "  T{i} {b:8} ipc={:.3} fetched={} committed={} squashed={} mispred={} \
             gated={} l1d%={:.1} l2%={:.1} mlp={:.2} blk(rob/iq/reg/pol)={}/{}/{}/{}",
            t.ipc(out.result.cycles),
            t.fetched,
            t.committed,
            t.squashed,
            t.mispredicts,
            t.gated_cycles,
            m.l1_miss_rate() * 100.0,
            m.l2_miss_rate() * 100.0,
            t.mlp(),
            t.blocked_rob,
            t.blocked_iq,
            t.blocked_regs,
            t.blocked_policy,
        );
    }
}
