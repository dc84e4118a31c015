//! Integration tests of DCRA driving a real simulation.

use dcra::{Dcra, DcraConfig, SharingConfig, SharingFactor};
use smt_isa::{ResourceKind, ThreadId};
use smt_sim::{SimConfig, Simulator};
use smt_workloads::spec;

fn sim_with(benches: &[&str], config: DcraConfig, seed: u64) -> Simulator {
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("registry benchmark"))
        .collect();
    let mut sim = Simulator::new(
        SimConfig::baseline(benches.len()),
        &profiles,
        Dcra::new(config),
        seed,
    );
    sim.prewarm(150_000);
    sim.run_cycles(10_000);
    sim.reset_stats();
    sim
}

#[test]
fn dcra_gates_slow_threads_on_real_runs() {
    let mut sim = sim_with(&["art", "gzip"], DcraConfig::default(), 42);
    sim.run_cycles(80_000);
    let r = sim.result();
    assert!(
        r.threads[0].gated_cycles > 0,
        "the memory-bound thread must hit its allocation at least sometimes"
    );
    assert!(
        r.threads[0].gated_cycles > r.threads[1].gated_cycles,
        "art (slow) should be gated more than gzip (fast): {} vs {}",
        r.threads[0].gated_cycles,
        r.threads[1].gated_cycles
    );
}

#[test]
fn zero_sharing_keeps_average_usage_near_even_split() {
    // DCRA only restricts threads *while they are slow* (the paper's
    // enforcement, Section 3.4), so instantaneous usage can overshoot
    // during fast windows. With C = 0 the long-run average occupancy of a
    // memory-bound thread must nevertheless sit near (or below) the even
    // split, and the gate must engage and release rather than latch.
    let cfg = DcraConfig {
        sharing: SharingConfig {
            queue_factor: SharingFactor::Zero,
            reg_factor: SharingFactor::Zero,
        },
        ..DcraConfig::default()
    };
    let mut sim = sim_with(&["art", "swim"], cfg, 3);
    let cycles = 40_000u64;
    let mut lsq_sum = [0u64; 2];
    for _ in 0..cycles {
        sim.step();
        for (t, sum) in lsq_sum.iter_mut().enumerate() {
            *sum += u64::from(sim.thread_usage(ThreadId::new(t))[ResourceKind::LsQueue]);
        }
    }
    let r = sim.result();
    for (t, sum) in lsq_sum.iter().enumerate() {
        let avg = *sum as f64 / cycles as f64;
        assert!(
            avg <= 44.0,
            "thread {t} average LSQ occupancy {avg:.1} far above the even split (40)"
        );
        assert!(r.threads[t].gated_cycles > 0, "gate never engaged for {t}");
        assert!(
            r.threads[t].committed > 1_000,
            "gate must release: thread {t} committed only {}",
            r.threads[t].committed
        );
    }
}

#[test]
fn dcra_preserves_throughput_on_pure_ilp() {
    // With no slow threads there is nothing to gate: DCRA must match
    // an ungated baseline closely.
    let mut dcra_sim = sim_with(&["gzip", "bzip2"], DcraConfig::default(), 9);
    dcra_sim.run_cycles(60_000);
    let dcra = dcra_sim.result().throughput();

    let profiles = [
        spec::profile("gzip").unwrap(),
        spec::profile("bzip2").unwrap(),
    ];
    let mut base = Simulator::new(SimConfig::baseline(2), &profiles, smt_policies::Icount, 9);
    base.prewarm(150_000);
    base.run_cycles(10_000);
    base.reset_stats();
    base.run_cycles(60_000);
    let icount = base.result().throughput();

    assert!(
        (dcra - icount).abs() / icount < 0.05,
        "DCRA {dcra:.2} should track ICOUNT {icount:.2} on pure ILP"
    );
}

#[test]
fn activity_donation_helps_fp_slow_threads() {
    // An FP memory-bound thread paired with an integer thread: the integer
    // thread is inactive for FP resources, so the FP thread's entitlement
    // for the FP queue must reach the full queue.
    let profiles = [
        spec::profile("swim").unwrap(),
        spec::profile("gzip").unwrap(),
    ];
    let mut policy = Dcra::default();
    let mut sim = Simulator::new(SimConfig::baseline(2), &profiles, policy.clone(), 5);
    sim.prewarm(100_000);
    sim.run_cycles(40_000);
    // Reconstruct the classification offline: gzip emits no FP work, so
    // after 256 cycles it must be inactive for FP resources.
    let view = smt_sim::policy::CycleView::new(
        0,
        smt_isa::PerResource::filled(80),
        &[
            smt_sim::policy::ThreadView {
                l1d_pending: 1, // swim slow
                ..Default::default()
            },
            smt_sim::policy::ThreadView::default(), // gzip fast
        ],
    );
    use smt_sim::policy::Policy as _;
    for _ in 0..300 {
        policy.begin_cycle(&view);
        // Only swim allocates FP resources.
        policy.on_dispatch(
            ThreadId::new(0),
            smt_isa::QueueKind::Fp,
            Some(smt_isa::RegClass::Fp),
        );
    }
    assert_eq!(
        policy.current_limits()[ResourceKind::FpQueue],
        Some(80),
        "sole FP-active slow thread should be entitled to the whole FP queue"
    );
}

#[test]
fn degenerate_detection_reclaims_resources_from_mcf() {
    // DCRA-DC (the paper's future work): when mcf is detected as
    // degenerate, the co-running fast thread should do at least as well as
    // under plain DCRA.
    let profiles = [
        spec::profile("mcf").unwrap(),
        spec::profile("gzip").unwrap(),
    ];
    let run = |policy: Dcra| {
        let mut sim = Simulator::new(SimConfig::baseline(2), &profiles, policy, 11);
        sim.prewarm(200_000);
        sim.run_cycles(20_000);
        sim.reset_stats();
        sim.run_cycles(120_000);
        sim.result()
    };
    let plain = run(Dcra::default());
    let dc = run(Dcra::with_degenerate_detection());
    let gzip_plain = plain.threads[1].ipc(plain.cycles);
    let gzip_dc = dc.threads[1].ipc(dc.cycles);
    assert!(
        gzip_dc >= gzip_plain * 0.95,
        "degenerate detection must not hurt the fast thread: {gzip_dc:.2} vs {gzip_plain:.2}"
    );
}
