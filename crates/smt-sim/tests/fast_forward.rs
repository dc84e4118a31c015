//! Stepped-vs-fast-forward equivalence: for randomized machine
//! configurations, workload mixes and seeds, running the simulator with
//! multi-cycle fast-forward (`run_cycles`) must produce *bit-identical*
//! output to a one-cycle-at-a-time reference loop of `step` calls — for
//! every one of the nine canonical policies.
//!
//! This is the contract that makes fast-forward a pure performance
//! feature: `Policy::on_idle_cycles` replays per-cycle policy state
//! (RR rotation, DCRA activity decay, FLUSH++ pressure windows), and a
//! skipped span is closed by the same `Simulator::close_cycles` that ends
//! every stepped cycle (gated/blocked counters, MLP and phase samples,
//! the commit round-robin origin, the MSHR purge, the clock), so nothing
//! observable may drift. The per-counter tests below pin each per-cycle
//! counter on a run that skips cycles while charging it.
use proptest::prelude::*;
use smt_sim::policy::AnyPolicy;
use smt_sim::{SimConfig, SimResult, Simulator, StageProfile, ThreadStats};
use smt_workloads::spec;

/// The nine canonical policies, freshly built (policies are stateful).
fn policies() -> Vec<AnyPolicy> {
    vec![
        smt_sim::policy::RoundRobin::default().into(),
        smt_policies::Icount.into(),
        smt_policies::Stall.into(),
        smt_policies::Flush.into(),
        smt_policies::FlushPlusPlus::default().into(),
        smt_policies::DataGating.into(),
        smt_policies::PredictiveDataGating::default().into(),
        smt_policies::StaticAllocation::new().into(),
        dcra::Dcra::default().into(),
    ]
}

fn benches() -> impl Strategy<Value = Vec<&'static str>> {
    let names = spec::names();
    proptest::collection::vec((0..names.len()).prop_map(move |i| names[i]), 1..5)
}

/// Everything a run can observe: final statistics, the clock, cache and
/// predictor counters.
fn digest(sim: &Simulator) -> (SimResult, u64, String) {
    (
        sim.result(),
        sim.now(),
        format!(
            "{:?} {:?}",
            sim.memory().cache_stats(),
            sim.predictor().stats()
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The equivalence property, including a mid-run `reset_stats` (the
    /// warm-up/measure boundary every experiment uses).
    #[test]
    fn fast_forward_matches_stepped_for_all_policies(
        benches in benches(),
        cfg_seed in 0u64..1000,
        seed in 0u64..1000,
        warm in 200u64..1_200,
        measured in 1_000u64..4_000,
    ) {
        let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("known benchmark"))
        .collect();
        // Derive a config deterministically from cfg_seed via the strategy
        // space: reuse the same strategy machinery by indexing variants.
        let rob = [64u32, 128, 512][(cfg_seed % 3) as usize];
        let fq = [8u32, 16][((cfg_seed / 3) % 2) as usize];
        let iq = [24u32, 80][((cfg_seed / 6) % 2) as usize];
        let lat = [100u32, 300][((cfg_seed / 12) % 2) as usize];
        let mut cfg = SimConfig::baseline(benches.len());
        cfg.rob_entries = rob;
        cfg.fetch_queue = fq;
        cfg.iq_entries = iq;
        cfg.mem.memory_latency = lat;
        cfg.validate().expect("generated config must be valid");

        for i in 0..policies().len() {
            let (mut a, mut b) = (policies(), policies());
            let (pol_a, pol_b) = (a.swap_remove(i), b.swap_remove(i));
            let name = {
                use smt_sim::policy::Policy as _;
                pol_a.name().to_string()
            };
            let mut stepped = Simulator::new(cfg.clone(), &profiles, pol_a, seed);
            let mut fast = Simulator::new(cfg.clone(), &profiles, pol_b, seed);
            for _ in 0..warm {
                stepped.step();
            }
            fast.run_cycles(warm);
            stepped.reset_stats();
            fast.reset_stats();
            for _ in 0..measured {
                stepped.step();
            }
            fast.run_cycles(measured);
            prop_assert_eq!(
                digest(&stepped),
                digest(&fast),
                "fast-forward diverged from stepped core for {} \
                 (benches {:?}, cfg_seed {}, seed {})",
                name, benches, cfg_seed, seed
            );
        }
    }
}

/// Counters of a mcf+gzip run (seed 42, 20k-instruction prewarm, 20k
/// cycles) on the baseline machine with a 400-cycle L1 data latency. At
/// this latency a load that coalesces with an in-flight fill is due up to
/// 1121 cycles after issue, so the run needs a wheel sized from the
/// machine rather than from one L1 latency plus slack. The values were
/// recorded with a separate heap delivering every event past 1024 cycles,
/// so they check the wheel's horizon and drain order independently.
const SLOW_L1_GOLDEN: [&str; 3] = [
    "ICOUNT now=20000 committed=615/986 fetched=2175/2501 squashed=1493/1389 \
     loads=170/297 l1d=40/17 l2=9/10 gated=0/0 mlp=458425/181440:5964/720 \
     blocked=0/0:19197/19434:0/0:0/0",
    "FLUSH++ now=20000 committed=615/985 fetched=2240/2516 squashed=1509/1462 \
     loads=168/297 l1d=39/15 l2=9/8 gated=219/1 mlp=457925/181440:4500/720 \
     blocked=0/0:16306/18135:0/0:0/0",
    "DCRA now=20000 committed=597/1014 fetched=1859/2400 squashed=1183/1294 \
     loads=154/291 l1d=37/17 l2=9/10 gated=3291/1390 mlp=457920/181440:5205/720 \
     blocked=0/0:16705/18094:0/0:0/0",
];

/// One line per policy: every counter the run reports, plus the clock.
fn slow_l1_summary(policy: AnyPolicy, stepped: bool) -> String {
    let profile = |name| spec::profile(name).expect("known benchmark");
    let profiles = [profile("mcf"), profile("gzip")];
    let mut cfg = SimConfig::baseline(2);
    cfg.mem.dl1.latency = 400;
    let mut sim = Simulator::new(cfg, &profiles, policy, 42);
    sim.prewarm(20_000);
    if stepped {
        for _ in 0..20_000 {
            sim.step();
        }
    } else {
        sim.run_cycles(20_000);
    }
    let r = sim.result();
    let per = |f: fn(&smt_sim::ThreadStats) -> u64| {
        let v: Vec<_> = r.threads.iter().map(|t| f(t).to_string()).collect();
        v.join("/")
    };
    format!(
        "{} now={} committed={} fetched={} squashed={} loads={} l1d={} l2={} \
         gated={} mlp={}:{} blocked={}:{}:{}:{}",
        r.policy,
        sim.now(),
        per(|t| t.committed),
        per(|t| t.fetched),
        per(|t| t.squashed),
        per(|t| t.loads),
        per(|t| t.l1d_misses),
        per(|t| t.l2_misses),
        per(|t| t.gated_cycles),
        per(|t| t.mlp_sum),
        per(|t| t.mlp_cycles),
        per(|t| t.blocked_rob),
        per(|t| t.blocked_iq),
        per(|t| t.blocked_regs),
        per(|t| t.blocked_policy),
    )
}

/// Loads due beyond 1024 cycles, stepped and fast-forwarded, reproduce
/// the recorded counters for ICOUNT, FLUSH++ and DCRA.
#[test]
fn slow_l1_runs_match_recorded_counters() {
    let policies = || -> [AnyPolicy; 3] {
        [
            smt_policies::Icount.into(),
            smt_policies::FlushPlusPlus::default().into(),
            dcra::Dcra::default().into(),
        ]
    };
    for stepped in [true, false] {
        let got: Vec<_> = policies()
            .into_iter()
            .map(|p| slow_l1_summary(p, stepped))
            .collect();
        assert_eq!(got, SLOW_L1_GOLDEN, "stepped = {stepped}");
    }
}

/// The per-cycle counters of a run: each thread's, then the phase
/// samples. `ThreadStats` is destructured exhaustively, so a new field
/// does not compile here until it is sorted into per-cycle or not.
fn per_cycle_counters(r: &SimResult) -> Vec<(String, u64)> {
    let SimResult {
        cycles: _,
        policy: _,
        threads,
        phase_cycles,
    } = r;
    let mut out = Vec::new();
    for (tid, t) in threads.iter().enumerate() {
        let ThreadStats {
            committed: _,
            fetched: _,
            squashed: _,
            mispredicts: _,
            loads: _,
            l1d_misses: _,
            l2_misses: _,
            gated_cycles,
            mlp_sum,
            mlp_cycles,
            blocked_rob,
            blocked_iq,
            blocked_regs,
            blocked_policy,
        } = *t;
        out.extend([
            (format!("T{tid} gated_cycles"), gated_cycles),
            (format!("T{tid} mlp_sum"), mlp_sum),
            (format!("T{tid} mlp_cycles"), mlp_cycles),
            (format!("T{tid} blocked_rob"), blocked_rob),
            (format!("T{tid} blocked_iq"), blocked_iq),
            (format!("T{tid} blocked_regs"), blocked_regs),
            (format!("T{tid} blocked_policy"), blocked_policy),
        ]);
    }
    for (mask, &c) in phase_cycles.iter().enumerate() {
        out.push((format!("phase_cycles[{mask:#b}]"), c));
    }
    out
}

/// Each per-cycle counter on a mcf+gzip run (seed 42, 20k-instruction
/// prewarm, 1k warm-up cycles, 10k measured) that skips cycles while
/// charging it: the fast-forwarded run must charge the counter and match
/// the stepped run in every per-cycle counter.
#[test]
fn per_cycle_counters_survive_skips() {
    let machine = |tweak: fn(&mut SimConfig)| {
        let mut cfg = SimConfig::baseline(2);
        tweak(&mut cfg);
        cfg
    };
    let icount = || AnyPolicy::from(smt_policies::Icount);
    type Policy = fn() -> AnyPolicy;
    let cases: [(&str, SimConfig, Policy); 8] = [
        ("T0 gated_cycles", machine(|_| {}), || {
            smt_policies::DataGating.into()
        }),
        ("T0 blocked_policy", machine(|_| {}), || {
            smt_policies::StaticAllocation::new().into()
        }),
        ("T0 blocked_rob", machine(|c| c.rob_entries = 32), icount),
        ("T0 blocked_iq", machine(|c| c.iq_entries = 8), icount),
        ("T0 blocked_regs", machine(|c| c.phys_regs = 80), icount),
        ("T0 mlp_sum", machine(|_| {}), icount),
        ("T0 mlp_cycles", machine(|_| {}), icount),
        ("phase_cycles[0b1]", machine(|_| {}), icount),
    ];
    let profiles = [spec::profile("mcf"), spec::profile("gzip")].map(|p| p.expect("known"));
    for (counter, cfg, policy) in cases {
        let build = || {
            let mut sim = Simulator::new(cfg.clone(), &profiles, policy(), 42);
            sim.prewarm(20_000);
            sim
        };
        let mut stepped = build();
        for _ in 0..1_000 {
            stepped.step();
        }
        stepped.reset_stats();
        for _ in 0..10_000 {
            stepped.step();
        }
        let mut fast = build();
        let mut profile = StageProfile::default();
        fast.run_cycles_profiled(1_000, &mut profile);
        fast.reset_stats();
        fast.run_cycles_profiled(10_000, &mut profile);

        let (want, got) = (stepped.result(), fast.result());
        let case = format!("{} for {counter}", got.policy);
        assert!(profile.skipped > 0, "{case}: no cycle skipped");
        let (want, got) = (per_cycle_counters(&want), per_cycle_counters(&got));
        assert!(
            got.iter().any(|(n, c)| n == counter && *c > 0),
            "{case}: never charged"
        );
        assert_eq!(want, got, "{case}: stepped vs fast-forwarded");
    }
}
