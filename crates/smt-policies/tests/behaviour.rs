//! Behavioural integration tests: each policy's *response action* must be
//! observable on a real simulation.

use smt_policies::{DataGating, Flush, Icount, Stall, StaticAllocation};
use smt_sim::policy::AnyPolicy;
use smt_sim::{SimConfig, SimResult, Simulator};
use smt_workloads::spec;

fn run(benches: &[&str], policy: impl Into<AnyPolicy>, cycles: u64) -> SimResult {
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("registry benchmark"))
        .collect();
    let mut sim = Simulator::new(SimConfig::baseline(benches.len()), &profiles, policy, 42);
    sim.prewarm(150_000);
    sim.run_cycles(10_000);
    sim.reset_stats();
    sim.run_cycles(cycles);
    sim.result()
}

#[test]
fn stall_gates_the_memory_thread() {
    // Under STALL, the memory-bound thread must accumulate gated cycles;
    // under ICOUNT it must not.
    let stall = run(&["art", "gzip"], Stall, 60_000);
    assert!(
        stall.threads[0].gated_cycles > 0,
        "art should be stalled on detected L2 misses"
    );
    let icount = run(&["art", "gzip"], Icount, 60_000);
    assert_eq!(icount.threads[0].gated_cycles, 0);
}

#[test]
fn flush_squashes_the_memory_thread() {
    let flush = run(&["art", "gzip"], Flush, 60_000);
    assert!(
        flush.threads[0].squashed > flush.threads[0].mispredicts,
        "FLUSH must squash beyond branch mispredictions (squashed={}, mispredicts={})",
        flush.threads[0].squashed,
        flush.threads[0].mispredicts
    );
}

#[test]
fn dg_gates_harder_than_stall() {
    // DG reacts to every L1 miss, STALL only to L2 misses, so DG must gate
    // the memory thread at least as often.
    let dg = run(&["art", "gzip"], DataGating, 60_000);
    let stall = run(&["art", "gzip"], Stall, 60_000);
    assert!(
        dg.threads[0].gated_cycles > stall.threads[0].gated_cycles,
        "DG gated {} vs STALL {}",
        dg.threads[0].gated_cycles,
        stall.threads[0].gated_cycles
    );
}

#[test]
fn sra_limits_thread_resource_usage() {
    use smt_isa::{ResourceKind, ThreadId};
    let profiles = [
        spec::profile("art").unwrap(),
        spec::profile("swim").unwrap(),
    ];
    let mut sim = Simulator::new(
        SimConfig::baseline(2),
        &profiles,
        StaticAllocation::default(),
        7,
    );
    sim.prewarm(100_000);
    for _ in 0..40_000 {
        sim.step();
        for t in 0..2 {
            let u = sim.thread_usage(ThreadId::new(t));
            // Even split of 80-entry queues at 2 threads = 40 each.
            for q in [
                ResourceKind::IntQueue,
                ResourceKind::FpQueue,
                ResourceKind::LsQueue,
            ] {
                assert!(
                    u[q] <= 40,
                    "thread {t} exceeded its static {q} partition: {}",
                    u[q]
                );
            }
        }
    }
}

#[test]
fn flush_increases_frontend_activity_on_mem_workloads() {
    let flush = run(&["swim", "art"], Flush, 60_000);
    let stall = run(&["swim", "art"], Stall, 60_000);
    let rate = |r: &SimResult| r.total_fetched() as f64 / r.total_committed().max(1) as f64;
    assert!(
        rate(&flush) > rate(&stall),
        "FLUSH {:.2} fetches/commit should exceed STALL {:.2}",
        rate(&flush),
        rate(&stall)
    );
}

#[test]
fn policies_disagree_on_fetch_distribution() {
    // Sanity: different policies must actually steer the machine
    // differently on a MIX workload.
    let a = run(&["art", "gzip"], Icount, 40_000);
    let b = run(&["art", "gzip"], DataGating, 40_000);
    assert_ne!(a.threads[0].committed, b.threads[0].committed);
}
