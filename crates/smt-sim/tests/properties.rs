//! Property-based tests of the simulator core: for arbitrary seeds,
//! benchmark pairs and run lengths, the incrementally-maintained resource
//! counters must match a from-scratch recomputation, and basic conservation
//! laws must hold. One fixed-input check of the model's behaviour closes
//! the file.

use proptest::prelude::*;
use smt_isa::{ResourceKind, ThreadId};
use smt_sim::policy::RoundRobin;
use smt_sim::{SimConfig, Simulator};
use smt_workloads::spec;

fn benches() -> impl Strategy<Value = Vec<&'static str>> {
    let names = spec::names();
    proptest::collection::vec((0..names.len()).prop_map(move |i| names[i]), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The big one: counter consistency under arbitrary workloads/seeds.
    #[test]
    fn counters_never_drift(benches in benches(), seed in 0u64..500, chunks in 1usize..6) {
        let profiles: Vec<_> = benches.iter().map(|b| spec::profile(b).unwrap()).collect();
        let mut sim = Simulator::new(
            SimConfig::baseline(benches.len()),
            &profiles,
            RoundRobin::default(),
            seed,
        );
        for _ in 0..chunks {
            sim.run_cycles(1_500);
            sim.assert_consistent();
        }
    }

    /// Conservation: fetched = committed + squashed + still-in-flight, so
    /// fetched >= committed and fetched >= squashed.
    #[test]
    fn fetch_conservation(benches in benches(), seed in 0u64..500) {
        let profiles: Vec<_> = benches.iter().map(|b| spec::profile(b).unwrap()).collect();
        let mut sim = Simulator::new(
            SimConfig::baseline(benches.len()),
            &profiles,
            RoundRobin::default(),
            seed,
        );
        sim.run_cycles(8_000);
        let r = sim.result();
        for t in &r.threads {
            prop_assert!(t.fetched >= t.committed + t.squashed,
                "fetched {} < committed {} + squashed {}", t.fetched, t.committed, t.squashed);
        }
    }

    /// IPC can never exceed the commit width.
    #[test]
    fn ipc_bounded_by_width(seed in 0u64..200) {
        let profiles = [spec::profile("gzip").unwrap(), spec::profile("eon").unwrap()];
        let mut sim = Simulator::new(
            SimConfig::baseline(2),
            &profiles,
            RoundRobin::default(),
            seed,
        );
        sim.run_cycles(5_000);
        prop_assert!(sim.result().throughput() <= 8.0);
    }
}

/// The monopolization the paper argues from (Sections 1–2): with no
/// resource control, the memory-bound thread ends up holding most of the
/// load/store queue.
#[test]
fn memory_thread_tops_lsq_occupancy() {
    let profiles = [
        spec::profile("art").unwrap(),
        spec::profile("gzip").unwrap(),
    ];
    let mut sim = Simulator::new(SimConfig::baseline(2), &profiles, RoundRobin::default(), 3);
    sim.prewarm(100_000);
    sim.run_cycles(5_000);
    let mut lsq = [0u64; 2];
    for _ in 0..20_000 {
        sim.step();
        for (t, sum) in lsq.iter_mut().enumerate() {
            *sum += u64::from(sim.thread_usage(ThreadId::new(t))[ResourceKind::LsQueue]);
        }
    }
    assert!(
        lsq[0] > lsq[1],
        "art (memory-bound) should hold the most LSQ entries: {lsq:?} entry-cycles"
    );
}
