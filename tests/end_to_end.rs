//! End-to-end integration tests across the whole workspace: build real
//! simulators from the public API, run every policy, and check the
//! paper-level invariants that must hold regardless of calibration.

use dcra_smt::dcra::{Dcra, DcraConfig};
use dcra_smt::experiments::{PolicyKind, RunSpec, Runner};
use dcra_smt::isa::{PerResource, ThreadId};
use dcra_smt::metrics::hmean;
use dcra_smt::sim::{SimConfig, Simulator};
use dcra_smt::workloads::{spec, table4_workloads};

fn short(benches: &[&str], policy: PolicyKind) -> RunSpec {
    let mut s = RunSpec::new(benches, policy);
    s.prewarm_insts = 120_000;
    s.warmup_cycles = 10_000;
    s.measure_cycles = 60_000;
    s
}

#[test]
fn every_policy_kind_builds_and_commits_in_10k_cycles() {
    // Smoke test over the *entire* PolicyKind surface — including the
    // capped-SRA and latency-tuned DCRA variants the longer tests skip:
    // each must build, survive 10k cycles on a 2-thread mix, and commit.
    let kinds = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::FlushPlusPlus,
        PolicyKind::DataGating,
        PolicyKind::PredictiveDataGating,
        PolicyKind::Sra,
        PolicyKind::SraCapped(PerResource::filled(Some(20))),
        PolicyKind::Dcra(DcraConfig::default()),
        PolicyKind::dcra_for_latency(500),
    ];
    let profiles = [
        spec::profile("gzip").unwrap(),
        spec::profile("art").unwrap(),
    ];
    for kind in kinds {
        let mut sim = Simulator::new(SimConfig::baseline(2), &profiles, kind.build(), 7);
        sim.run_cycles(10_000);
        assert!(
            sim.result().total_committed() > 0,
            "{} committed nothing in 10k cycles",
            kind.name()
        );
    }
}

#[test]
fn every_policy_runs_every_thread_count() {
    let runner = Runner::new();
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::FlushPlusPlus,
        PolicyKind::DataGating,
        PolicyKind::PredictiveDataGating,
        PolicyKind::Sra,
        PolicyKind::Dcra(DcraConfig::default()),
    ];
    let workloads = [
        vec!["gzip", "twolf"],
        vec!["gcc", "eon", "gap"],
        vec!["gzip", "twolf", "bzip2", "mcf"],
    ];
    for policy in &policies {
        for wl in &workloads {
            let benches: Vec<&str> = wl.to_vec();
            let out = runner
                .run(&short(&benches, policy.clone()))
                .expect("known bench");
            assert!(
                out.result.total_committed() > 1_000,
                "{} on {benches:?} made no progress",
                policy.name()
            );
            // No thread may commit literally nothing in a healthy run.
            for (i, t) in out.result.threads.iter().enumerate() {
                assert!(
                    t.committed > 0,
                    "{} starved thread {i} of {benches:?}",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn simulation_is_deterministic_across_policy_instances() {
    let runner = Runner::new();
    let spec = short(&["art", "gcc"], PolicyKind::Dcra(DcraConfig::default()));
    let a = runner.run(&spec).expect("known bench");
    let b = runner.run(&spec).expect("known bench");
    assert_eq!(a.result, b.result);
}

#[test]
fn seeds_change_results() {
    let runner = Runner::new();
    let mut s1 = short(&["gzip", "twolf"], PolicyKind::Icount);
    let mut s2 = s1.clone();
    s1.seed = 1;
    s2.seed = 2;
    let a = runner.run(&s1).expect("known bench");
    let b = runner.run(&s2).expect("known bench");
    assert_ne!(
        a.result.total_committed(),
        b.result.total_committed(),
        "different seeds should perturb the run"
    );
}

#[test]
fn throughput_never_exceeds_machine_width() {
    let runner = Runner::new();
    for wl in [
        vec!["gzip", "bzip2"],
        vec!["eon", "crafty", "gzip", "bzip2"],
    ] {
        let benches: Vec<&str> = wl.to_vec();
        let out = runner
            .run(&short(&benches, PolicyKind::Icount))
            .expect("known bench");
        assert!(out.throughput() <= 8.0, "IPC above commit width");
    }
}

#[test]
fn counters_remain_consistent_under_all_policies() {
    for policy in [
        PolicyKind::Icount,
        PolicyKind::Flush,
        PolicyKind::Dcra(DcraConfig::default()),
        PolicyKind::Sra,
    ] {
        let profiles = [
            spec::profile("art").unwrap(),
            spec::profile("mcf").unwrap(),
            spec::profile("gzip").unwrap(),
        ];
        let mut sim = Simulator::new(SimConfig::baseline(3), &profiles, policy.build(), 11);
        for _ in 0..60 {
            sim.run_cycles(500);
            sim.assert_consistent();
        }
    }
}

#[test]
fn flush_policies_refetch_more_than_stall_policies() {
    let runner = Runner::new();
    let wl = ["swim", "mcf"];
    let flush = runner
        .run(&short(&wl, PolicyKind::Flush))
        .expect("known bench");
    let icount = runner
        .run(&short(&wl, PolicyKind::Icount))
        .expect("known bench");
    let flush_rate =
        flush.result.total_fetched() as f64 / flush.result.total_committed().max(1) as f64;
    let icount_rate =
        icount.result.total_fetched() as f64 / icount.result.total_committed().max(1) as f64;
    assert!(
        flush_rate > icount_rate,
        "FLUSH must refetch more per committed instruction ({flush_rate:.2} vs {icount_rate:.2})"
    );
}

#[test]
fn dcra_beats_static_allocation_on_a_mem_workload() {
    // The headline claim at smoke-test scale: on a memory-heavy 2-thread
    // workload, DCRA's Hmean should be at least as good as SRA's.
    let runner = Runner::new();
    let wl = ["art", "vpr"];
    let lengths = short(&wl, PolicyKind::Icount);
    let singles: Vec<f64> = wl
        .iter()
        .map(|b| {
            runner
                .single_ipc(b, &lengths.config, &lengths)
                .expect("known bench")
        })
        .collect();
    let dcra = runner
        .run(&short(&wl, PolicyKind::dcra_for_latency(300)))
        .expect("known bench");
    let sra = runner
        .run(&short(&wl, PolicyKind::Sra))
        .expect("known bench");
    let h_dcra = hmean(&dcra.ipcs(), &singles);
    let h_sra = hmean(&sra.ipcs(), &singles);
    assert!(
        h_dcra > h_sra * 0.97,
        "DCRA hmean {h_dcra:.3} should not trail SRA {h_sra:.3}"
    );
}

#[test]
fn slow_thread_classification_reaches_the_policy() {
    // A pointer-chasing thread must show pending L1 misses (the DCRA slow
    // signal) a substantial fraction of the time.
    let profiles = [
        spec::profile("mcf").unwrap(),
        spec::profile("gzip").unwrap(),
    ];
    let mut sim = Simulator::new(SimConfig::baseline(2), &profiles, Dcra::default(), 3);
    sim.prewarm(120_000);
    sim.run_cycles(10_000);
    let mut slow_cycles = 0;
    let total = 20_000;
    for _ in 0..total {
        sim.step();
        if sim.thread_l1d_pending(ThreadId::new(0)) > 0 {
            slow_cycles += 1;
        }
    }
    assert!(
        slow_cycles > total / 10,
        "mcf slow only {slow_cycles}/{total} cycles"
    );
}

#[test]
fn all_table4_workloads_are_runnable() {
    // Structure check at tiny scale: every workload builds and progresses.
    let runner = Runner::new();
    for w in table4_workloads().iter().step_by(5) {
        let mut s = RunSpec::for_workload(w, PolicyKind::Icount);
        s.prewarm_insts = 20_000;
        s.warmup_cycles = 1_000;
        s.measure_cycles = 10_000;
        let out = runner.run(&s).expect("known bench");
        assert!(out.result.total_committed() > 0, "{w} did not progress");
    }
}
