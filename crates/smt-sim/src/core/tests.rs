use super::*;
use crate::policy::RoundRobin;
use smt_workloads::spec;

fn sim(benches: &[&str], policy: impl Into<AnyPolicy>) -> Simulator {
    let cfg = SimConfig::baseline(benches.len());
    let profiles: Vec<_> = benches.iter().map(|b| spec::profile(b).unwrap()).collect();
    Simulator::new(cfg, &profiles, policy, 7)
}

#[test]
fn single_thread_makes_progress() {
    let mut s = sim(&["gzip"], RoundRobin::default());
    s.run_cycles(200_000);
    s.reset_stats();
    s.run_cycles(50_000);
    let r = s.result();
    // gzip reaches ~2.3 IPC in full steady state (after the warm
    // working set's first sweep); this shorter run must at least show
    // healthy sustained progress.
    assert!(
        r.total_committed() > 30_000,
        "IPC too low: {}",
        r.throughput()
    );
    assert!(r.throughput() <= 8.0, "cannot exceed machine width");
}

#[test]
fn high_ilp_thread_beats_memory_bound_thread() {
    let mut fast = sim(&["gzip"], RoundRobin::default());
    fast.run_cycles(150_000);
    let mut slow = sim(&["mcf"], RoundRobin::default());
    slow.run_cycles(150_000);
    let (f, s) = (fast.result().throughput(), slow.result().throughput());
    assert!(f > 1.5 * s, "gzip ({f:.2}) should far outrun mcf ({s:.2})");
}

#[test]
fn counters_stay_consistent() {
    let mut s = sim(&["mcf", "gzip"], RoundRobin::default());
    for _ in 0..200 {
        s.run_cycles(50);
        s.assert_consistent();
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut s = sim(&["twolf", "gcc"], RoundRobin::default());
        s.run_cycles(15_000);
        let r = s.result();
        (r.total_committed(), r.total_fetched())
    };
    assert_eq!(run(), run());
}

#[test]
fn reset_stats_starts_a_fresh_measurement() {
    let mut s = sim(&["gzip"], RoundRobin::default());
    s.run_cycles(5_000);
    s.reset_stats();
    assert_eq!(s.result().total_committed(), 0);
    s.run_cycles(5_000);
    let r = s.result();
    assert_eq!(r.cycles, 5_000);
    assert!(r.total_committed() > 0);
}

#[test]
fn memory_bound_thread_records_misses_and_mlp() {
    let mut s = sim(&["art"], RoundRobin::default());
    s.run_cycles(60_000);
    let r = s.result();
    assert!(r.threads[0].l2_misses > 50, "art should miss in L2");
    assert!(r.threads[0].mlp() >= 1.0);
}

#[test]
fn mispredictions_block_fetch_but_do_not_refetch() {
    // Wrong-path instructions are not fetched (the thread stalls until
    // the branch resolves), so mispredictions alone do not inflate the
    // fetch count; policy flushes do (tested in smt-policies).
    let mut s = sim(&["mcf"], RoundRobin::default());
    s.run_cycles(30_000);
    let r = s.result();
    assert!(r.threads[0].mispredicts > 0);
    assert!(r.threads[0].fetched >= r.threads[0].committed);
}

#[test]
fn profiled_run_is_bit_identical_to_run_cycles() {
    // Two consecutive calls on a MEM mix: the profile accumulates across
    // calls, and the fast-forward spans it times must not drift the run.
    let mut plain = sim(&["mcf", "art"], RoundRobin::default());
    let mut profiled = sim(&["mcf", "art"], RoundRobin::default());
    let mut prof = StageProfile::default();
    for _ in 0..2 {
        plain.run_cycles(20_000);
        profiled.run_cycles_profiled(20_000, &mut prof);
    }
    assert_eq!(plain.result(), profiled.result());
    assert_eq!(prof.cycles, 40_000);
    assert!(prof.skipped > 0, "a MEM mix must fast-forward some cycles");
    assert!(prof.total().as_nanos() > 0);
    let share_sum: f64 = prof.shares().iter().map(|(_, s)| s).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
}

#[test]
#[should_panic(expected = "invalid simulator configuration")]
fn oversized_thread_count_is_rejected_at_construction() {
    // A config mutated (or deserialized) past MAX_THREADS must be refused
    // by the hard `SimConfig::validate` call in `Simulator::new` — in
    // release builds too — before the `seq << 3 | tid` ready-key packing
    // could silently corrupt issue ordering.
    let mut cfg = SimConfig::baseline(4);
    cfg.threads = smt_isa::ThreadId::MAX_THREADS + 1;
    cfg.phys_regs = u32::MAX; // keep the register check out of the way
    let profiles: Vec<_> = [
        "gzip", "mcf", "art", "gcc", "twolf", "swim", "eon", "gap", "vpr",
    ]
    .iter()
    .filter_map(|b| spec::profile(b))
    .take(cfg.threads)
    .collect();
    let _ = Simulator::new(cfg, &profiles, RoundRobin::default(), 1);
}

/// Fills `tid`'s fetch queue to its configured capacity with real trace
/// instructions (mirroring what the fetch stage would do), so the
/// full-queue fetch path can be exercised directly.
fn fill_fetch_queue(s: &mut Simulator, tid: usize) {
    let cap = s.config.fetch_queue as usize;
    while s.threads[tid].fetch_queue_len() < cap {
        let th = &mut s.threads[tid];
        let seq = th.next_fetch;
        let packed = th.packed_at(seq);
        let deps = crate::inst::resolve_deps(&packed, seq);
        s.uid_counter += 1;
        let inst = crate::inst::DynInst::fetched(s.uid_counter, &packed, s.now, 0);
        let th = &mut s.threads[tid];
        th.push_fetched(inst, deps);
        th.pre_issue += 1;
    }
}

#[test]
fn full_fetch_queue_consumes_no_budget_and_no_icache_access() {
    // The early return in the fetch stage must fire *before* the I-cache:
    // a full-queue thread is skipped silently — no budget spent, no stall
    // charged — and the whole fetch width stays available to the next
    // thread in the order.
    let mut s = sim(&["gzip", "gcc"], RoundRobin::default());
    s.prewarm(50_000); // warm the I-cache so thread 1 hits
    fill_fetch_queue(&mut s, 0);
    let il1_before = s.mem.cache_stats().0.accesses;
    let view = {
        let mut v = crate::policy::CycleView::default();
        s.fill_view(&mut v);
        v
    };
    let order = [smt_isa::ThreadId::new(0), smt_isa::ThreadId::new(1)];
    s.fetch(&order, &view);
    assert_eq!(s.stats[0].fetched, 0, "full-queue thread must not fetch");
    assert_eq!(
        s.threads[0].icache_stall_until, 0,
        "full-queue thread must not be charged an I-cache stall"
    );
    // Thread 1 got the whole width: one full block or until its fetch
    // block ended, but definitely more than zero.
    assert!(
        s.stats[1].fetched > 0,
        "thread 1 should use the freed budget"
    );
    let il1_after = s.mem.cache_stats().0.accesses;
    assert_eq!(
        il1_after - il1_before,
        1,
        "exactly one I-cache access (thread 1's block); none for thread 0"
    );
}

#[test]
fn icache_miss_consumes_exactly_one_fetch_slot() {
    // Cold I-cache: the first access of a width-1 front end misses and
    // must spend the single budget slot (`budget.saturating_sub(1)` is
    // exact here, not an off-by-one), so the second thread is not even
    // attempted. With width 2, the second thread gets the remaining slot
    // and touches the I-cache.
    let mut cfg = SimConfig::baseline(2);
    cfg.fetch_width = 1;
    let profiles = [
        spec::profile("gzip").unwrap(),
        spec::profile("gcc").unwrap(),
    ];
    let mut s = Simulator::new(cfg.clone(), &profiles, RoundRobin::default(), 3);
    let mut view = crate::policy::CycleView::default();
    s.fill_view(&mut view);
    let order = [smt_isa::ThreadId::new(0), smt_isa::ThreadId::new(1)];
    s.fetch(&order, &view);
    let (il1, _, _) = s.mem.cache_stats();
    assert_eq!(
        il1.accesses, 1,
        "width-1 miss leaves no budget for thread 1"
    );
    assert!(s.threads[0].icache_stall_until > s.now, "thread 0 stalled");
    assert_eq!(
        s.threads[1].icache_stall_until, 0,
        "thread 1 never attempted"
    );

    cfg.fetch_width = 2;
    let mut s = Simulator::new(cfg, &profiles, RoundRobin::default(), 3);
    let mut view = crate::policy::CycleView::default();
    s.fill_view(&mut view);
    s.fetch(&order, &view);
    let (il1, _, _) = s.mem.cache_stats();
    assert_eq!(
        il1.accesses, 2,
        "width-2: the miss consumed one slot, thread 1 used the other"
    );
}

#[test]
fn fast_forward_skips_cycles_on_stalled_workloads() {
    // A memory-bound mix under a stalling policy spends most cycles with
    // every thread blocked; the fast-forward path must cover a large
    // share of them (observable through the profiled runner's `skipped`
    // counter) while producing the bit-identical result the equivalence
    // tests pin.
    let profiles = [spec::profile("mcf").unwrap(), spec::profile("art").unwrap()];
    let mut s = Simulator::new(
        SimConfig::baseline(2),
        &profiles,
        crate::policy::AnyPolicy::from(smt_policies::Stall),
        11,
    );
    let mut prof = StageProfile::default();
    s.run_cycles_profiled(60_000, &mut prof);
    assert_eq!(
        prof.cycles, 60_000,
        "profiled cycles count stepped + skipped"
    );
    assert!(
        prof.skipped > 10_000,
        "expected a large skipped share on a MEM mix, got {}",
        prof.skipped
    );
    assert_eq!(s.now(), 60_000);
}

#[test]
fn fast_forward_respects_run_boundaries() {
    // Jumps are capped at the requested run end: chunked runs land on
    // exactly the same cycles as one long run.
    let profiles = [spec::profile("mcf").unwrap()];
    let build = || {
        Simulator::new(
            SimConfig::baseline(1),
            &profiles,
            crate::policy::AnyPolicy::from(smt_policies::Stall),
            5,
        )
    };
    let mut chunked = build();
    for _ in 0..100 {
        chunked.run_cycles(97); // awkward chunk size on purpose
    }
    let mut whole = build();
    whole.run_cycles(9_700);
    assert_eq!(chunked.now(), whole.now());
    assert_eq!(chunked.result(), whole.result());
}

#[test]
fn reset_reproduces_a_fresh_simulator_bit_for_bit() {
    let digest = |s: &Simulator| {
        let r = s.result();
        (
            r.cycles,
            r.threads.clone(),
            s.memory().cache_stats(),
            s.predictor().stats(),
        )
    };
    // Run a first (different) workload to dirty every structure, then
    // reset onto the reference workload and compare against a fresh
    // simulator: identical statistics, cycle for cycle.
    let mut reused = sim(&["mcf", "art"], RoundRobin::default());
    reused.run_cycles(20_000);
    let profiles = [
        spec::profile("twolf").unwrap(),
        spec::profile("gcc").unwrap(),
    ];
    reused.reset(&profiles, RoundRobin::default(), 99);
    reused.run_cycles(20_000);
    reused.assert_consistent();

    let mut fresh = Simulator::new(SimConfig::baseline(2), &profiles, RoundRobin::default(), 99);
    fresh.run_cycles(20_000);
    assert_eq!(digest(&reused), digest(&fresh));
}

#[test]
fn prewarm_fills_drain_within_one_memory_latency() {
    // Prewarm makes every access at cycle 0, so its data misses leave
    // memory-level fills in the MSHRs when timed simulation starts. Each
    // is due exactly `dl1 + l2 + memory` latency later (cycle 321 on the
    // baseline), so a timed warm-up of at least 322 cycles outlives them
    // all. L2-level fills are due at `dl1 + l2`, earlier still.
    // The same holds for a simulator that restored the prewarm's
    // captured state instead of running it.
    for benches in [
        &["mcf"][..],
        &["mcf", "twolf", "vpr", "parser"],
        &["gzip", "art"],
    ] {
        let mut s = sim(benches, RoundRobin::default());
        s.prewarm(400_000);
        let mut restored = sim(benches, RoundRobin::default());
        restored.restore_warm(&s.warm_state());
        let m = &s.config.mem;
        let horizon =
            u64::from(m.dl1.latency) + u64::from(m.l2.latency) + u64::from(m.memory_latency);
        assert_eq!(horizon, 321, "baseline Table 2 latencies");
        let at = |mem: &mut MemoryHierarchy, now| {
            let mut out = vec![0; benches.len()];
            mem.outstanding_l2_misses_into(now, &mut out);
            out.iter().sum::<u32>()
        };
        for source in [&s, &restored] {
            let mut mem = source.memory().clone();
            let fills = at(&mut mem, 0);
            assert!(fills > 0, "{benches:?}: prewarm left no fill in flight");
            assert_eq!(
                at(&mut mem, horizon - 1),
                fills,
                "{benches:?}: none due early"
            );
            assert_eq!(mem.next_fill_ready_at(), Some(horizon));
            assert_eq!(
                at(&mut mem, horizon),
                0,
                "{benches:?}: all due by cycle {horizon}"
            );
            assert_eq!(mem.next_fill_ready_at(), None);
        }
    }
}

#[test]
fn reset_then_restore_matches_a_fresh_prewarm() {
    // `reset` must leave the hierarchy cold, so that restoring a
    // captured prewarm onto a dirty, reset simulator is exactly a fresh
    // simulator's prewarm: same statistics, cycle for cycle.
    let profiles = [spec::profile("mcf").unwrap(), spec::profile("art").unwrap()];
    let run = |s: &mut Simulator| {
        s.run_cycles(5_000);
        s.reset_stats();
        s.run_cycles(20_000);
        (s.result(), s.memory().cache_stats())
    };
    let mut fresh = Simulator::new(SimConfig::baseline(2), &profiles, RoundRobin::default(), 11);
    fresh.prewarm(50_000);
    let warm = fresh.warm_state();

    let mut reused = sim(&["gzip", "twolf"], RoundRobin::default());
    reused.prewarm(10_000);
    reused.run_cycles(20_000);
    reused.reset(&profiles, RoundRobin::default(), 11);
    reused.restore_warm(&warm);
    assert_eq!(reused.warm_state(), warm);
    assert_eq!(run(&mut reused), run(&mut fresh));
}

#[test]
fn phase_cycles_match_a_stepped_read_of_the_slow_signal() {
    // The reference steps one cycle at a time and reads each thread's
    // pending L1 data misses after the cycle, as a hand-rolled sampling
    // loop would. The counter must agree entry for entry, both when
    // stepped and when `run_cycles` fast-forwards the idle spans.
    let build = || {
        let mut s = sim(&["mcf", "art"], RoundRobin::default());
        s.prewarm(50_000);
        s.run_cycles(5_000);
        s.reset_stats();
        s
    };
    let mut stepped = build();
    let mut expected = vec![0u64; 4];
    for _ in 0..20_000 {
        stepped.step();
        let slow = stepped
            .threads
            .iter()
            .enumerate()
            .fold(0, |m, (t, th)| m | usize::from(th.l1d_pending > 0) << t);
        expected[slow] += 1;
    }
    let r = stepped.result();
    assert_eq!(r.phase_cycles, expected);
    assert_eq!(r.phase_cycles.iter().sum::<u64>(), r.cycles);
    assert!(
        expected.iter().all(|&c| c > 0),
        "a MEM pair visits every phase combination: {expected:?}"
    );
    let mut forwarded = build();
    forwarded.run_cycles(20_000);
    assert_eq!(forwarded.result().phase_cycles, expected);

    forwarded.reset_stats();
    assert_eq!(forwarded.result().phase_cycles, vec![0; 4]);
    forwarded.run_cycles(1_000);
    let profiles = [spec::profile("mcf").unwrap(), spec::profile("art").unwrap()];
    forwarded.reset(&profiles, RoundRobin::default(), 7);
    assert_eq!(forwarded.result().phase_cycles, vec![0; 4]);
}
