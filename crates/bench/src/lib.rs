//! Benchmark-only crate: see the `benches/` directory. The library part
//! exposes small helpers shared by the bench targets.

/// Builds a simulator over the given benchmarks with the given policy
/// (statically dispatched unless handed a boxed one), functionally
/// prewarmed and settled, ready for timed stepping.
pub fn prepared_sim(
    benches: &[&str],
    policy: impl Into<smt_sim::policy::AnyPolicy>,
) -> smt_sim::Simulator {
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| smt_workloads::spec::profile(b).expect("known benchmark"))
        .collect();
    let mut sim = smt_sim::Simulator::new(
        smt_sim::SimConfig::baseline(benches.len()),
        &profiles,
        policy,
        42,
    );
    sim.prewarm(100_000);
    sim.run_cycles(5_000);
    sim.reset_stats();
    sim
}
