//! Regression tests for specific defects found during bring-up. Each test
//! pins the behaviour that fixed a real failure mode, so refactors cannot
//! silently reintroduce it.

use dcra_smt::experiments::PolicyKind;
use dcra_smt::isa::ThreadId;
use dcra_smt::sim::{SimConfig, Simulator};
use dcra_smt::workloads::{spec, TraceGenerator};

fn sim(benches: &[&str], policy: &str, seed: u64) -> Simulator {
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("registry benchmark"))
        .collect();
    Simulator::new(
        SimConfig::baseline(benches.len()),
        &profiles,
        PolicyKind::from_name(policy)
            .expect("known policy name")
            .build(),
        seed,
    )
}

/// Regression: with three or more threads, identical per-thread base
/// addresses used to map every thread's first fetch block to the same
/// I-cache set, and a 2-way IL1 livelocked (zero instructions fetched,
/// forever). The per-thread address stagger fixed it.
#[test]
fn three_plus_threads_fetch_from_cycle_zero() {
    for n in [3usize, 4] {
        let benches: Vec<&str> = ["gzip", "twolf", "bzip2", "mcf"][..n].to_vec();
        let mut s = sim(&benches, "RR", 42);
        s.run_cycles(30_000);
        let r = s.result();
        for (i, t) in r.threads.iter().enumerate() {
            assert!(
                t.fetched > 100,
                "{n}-thread run: thread {i} fetched only {} instructions \
                 (I-cache set-conflict livelock?)",
                t.fetched
            );
        }
    }
}

/// Regression: the functional warm-up used to clone the *same* generator,
/// pre-installing the exact cold lines of the measured run and erasing
/// its compulsory L2 misses. Warm-up must use a decorrelated twin.
#[test]
fn prewarm_does_not_erase_cold_misses() {
    let mut s = sim(&["mcf"], "ICOUNT", 42);
    s.prewarm(300_000);
    s.run_cycles(20_000);
    s.reset_stats();
    s.run_cycles(120_000);
    let m = s.memory().thread_stats(ThreadId::new(0));
    assert!(
        m.l2_miss_rate() > 0.05,
        "mcf measured L2 miss rate {:.3} — prewarm leaked future cold lines?",
        m.l2_miss_rate()
    );
}

/// Regression: the decorrelated twin itself — same regions, different
/// stream — must not replay the original's cold-region path (the streaming
/// cursor used to start at 0 for both).
#[test]
fn decorrelated_twin_walks_a_different_cold_path() {
    let p = spec::profile("swim").unwrap();
    let a = TraceGenerator::new(p, 9, 0);
    let mut twin = a.decorrelated(1);
    let mut orig = a.clone();
    let cold_addrs = |g: &mut TraceGenerator| -> Vec<u64> {
        let mut v = Vec::new();
        while v.len() < 50 {
            if let Some(m) = g.next_inst().mem {
                // Cold region lives above the +0x4000_0000 offset.
                if m.addr & 0xF_FFFF_FFFF >= 0x5000_0000 {
                    v.push(m.addr);
                }
            }
        }
        v
    };
    let a_cold = cold_addrs(&mut orig);
    let t_cold = cold_addrs(&mut twin);
    let overlap = a_cold.iter().filter(|x| t_cold.contains(x)).count();
    assert!(
        overlap < 10,
        "cold paths overlap in {overlap}/50 addresses — warm-up would erase misses"
    );
}

/// Regression: a thread blocked by STALL whose pending load has already
/// committed must resume fetching (the stall must never latch).
#[test]
fn stall_gate_releases() {
    let mut s = sim(&["art", "gzip"], "STALL", 7);
    s.prewarm(150_000);
    s.run_cycles(10_000);
    s.reset_stats();
    s.run_cycles(100_000);
    let r = s.result();
    assert!(
        r.threads[0].committed > 2_000,
        "art committed only {} under STALL — stall latch regression",
        r.threads[0].committed
    );
}

/// Regression: FLUSH++ used to underflow its per-window load counters when
/// the simulator's statistics were reset between windows.
#[test]
fn flushpp_survives_stat_reset() {
    let mut s = sim(&["swim", "mcf"], "FLUSH++", 11);
    s.run_cycles(6_000); // past the first 4096-cycle window
    s.reset_stats(); // rewinds the absolute counters
    s.run_cycles(12_000); // would underflow without saturating arithmetic
    assert!(s.result().total_committed() > 0);
}

/// Regression: mispredicted branches must not permanently block fetch —
/// the machine follows the predicted path and squashes at resolve, so
/// fetched ≥ committed + squashed always holds and progress continues.
#[test]
fn mispredicted_branches_do_not_block_fetch() {
    let mut s = sim(&["mcf"], "ICOUNT", 5);
    s.prewarm(150_000);
    s.run_cycles(60_000);
    let r = s.result();
    assert!(
        r.threads[0].mispredicts > 10,
        "mcf must mispredict sometimes"
    );
    assert!(
        r.threads[0].squashed > 0,
        "squash-at-resolve must discard the continued-fetch stream"
    );
    assert!(r.threads[0].fetched >= r.threads[0].committed + r.threads[0].squashed);
}

/// Regression: `TraceGenerator::decorrelated` must actually change the
/// instruction stream for any non-zero salt — an early version reseeded
/// with the same state and returned a bit-identical clone, which silently
/// defeated the warm-up decorrelation above.
#[test]
fn decorrelated_stream_diverges_from_parent() {
    for bench in ["gzip", "mcf", "swim"] {
        let p = spec::profile(bench).unwrap();
        let parent = TraceGenerator::new(p, 42, 0);
        for salt in [1u64, 2, 77] {
            let mut twin = parent.decorrelated(salt);
            let mut orig = parent.clone();
            let diverged = (0..512).any(|_| orig.next_inst() != twin.next_inst());
            assert!(
                diverged,
                "{bench}: salt {salt} left the stream identical to its parent"
            );
        }
    }
}

/// Regression: `BenchmarkProfile::validate` used to only check the mix
/// *total*, so a negative weight balanced by a larger positive one (or a
/// NaN, which poisons the sampling CDF) slipped through to the generator.
#[test]
fn profile_validation_rejects_out_of_range_mix_weights() {
    let base = spec::profile("gzip").unwrap();
    let mut negative = base.clone();
    negative.mix.load = -0.2;
    negative.mix.int_alu += 0.2; // total still positive
    assert!(
        negative.validate().is_err(),
        "negative load weight must be rejected even when the total is positive"
    );
    let mut nan = base.clone();
    nan.mix.fp_alu = f64::NAN;
    assert!(nan.validate().is_err(), "NaN weight must be rejected");
    let mut inf = base.clone();
    inf.mix.branch = f64::INFINITY;
    assert!(inf.validate().is_err(), "infinite weight must be rejected");
    assert!(base.validate().is_ok(), "baseline stays valid");
}
