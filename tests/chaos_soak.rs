//! Chaos soak: push hundreds of mixed good/faulty runs through the
//! fault-isolated engine at several worker counts and assert the full
//! containment contract — the process never aborts, every injected fault
//! surfaces as its typed [`RunError`], and every non-faulted run stays
//! bit-identical to a fault-free sweep of the same specs.

use dcra_smt::experiments::chaos::{silence_chaos_panics, FaultKind, FaultPlan, CHAOS_MARKER};
use dcra_smt::experiments::{PolicyKind, RunError, RunOutcome, RunSpec, Runner};
use std::sync::Mutex;

const SOAK_SEED: u64 = 0xC4A0_57AC;
const FAULT_SHARE: f64 = 0.35;

/// ≥200 small runs cycling over workload mixes and every canonical policy.
fn soak_specs() -> Vec<RunSpec> {
    let mixes: [&[&str]; 6] = [
        &["gzip", "mcf"],
        &["art", "gcc"],
        &["swim", "twolf"],
        &["mcf", "art", "gzip"],
        &["gcc", "eon"],
        &["bzip2", "vpr"],
    ];
    let policies = [
        PolicyKind::Icount,
        PolicyKind::Flush,
        PolicyKind::FlushPlusPlus,
        PolicyKind::Sra,
        PolicyKind::dcra_for_latency(300),
    ];
    (0..210)
        .map(|i| {
            let mut s = RunSpec::new(mixes[i % mixes.len()], policies[i % policies.len()].clone());
            s.seed = 42 + i as u64;
            s.prewarm_insts = 2_000;
            s.warmup_cycles = 300;
            s.measure_cycles = 1_500;
            s
        })
        .collect()
}

#[test]
fn chaos_soak_contains_every_fault_and_preserves_good_runs() {
    silence_chaos_panics();

    let clean = soak_specs();
    let plan = FaultPlan::seeded(SOAK_SEED, clean.len(), FAULT_SHARE);
    assert!(
        plan.fault_count() * 4 >= clean.len(),
        "plan must sabotage at least 25% of runs (got {}/{})",
        plan.fault_count(),
        clean.len()
    );
    let faulty = plan.instrument(&clean);

    // Fault-free reference sweep: the bit-identity baseline.
    let runner = Runner::new();
    let baseline: Vec<_> = runner
        .run_all_with_workers(&clean, 2)
        .into_iter()
        .map(|o| o.into_stats().expect("clean specs run clean"))
        .collect();

    for workers in [1usize, 4, 8] {
        let outcomes: Mutex<Vec<Option<RunOutcome>>> =
            Mutex::new(clean.iter().map(|_| None).collect());
        let report = runner.run_isolated(&faulty, workers, |i, outcome| {
            // Record first so the assertion below still sees the outcome,
            // then detonate for the indices the plan poisons: the engine
            // must catch the unwind and keep the sink mutex usable.
            outcomes.lock().unwrap()[i] = Some(outcome);
            if plan.poisons_sink(i) {
                panic!("{CHAOS_MARKER}: sink detonated for run {i}");
            }
        });

        let outcomes = outcomes.into_inner().unwrap();
        let mut expected_completed = 0;
        let mut expected_failed = 0;
        let mut expected_sink_panics = Vec::new();
        for (i, slot) in outcomes.iter().enumerate() {
            let outcome = slot.as_ref().expect("sink covered every spec");
            match plan.fault_at(i) {
                None => {
                    expected_completed += 1;
                    let stats = outcome.stats().unwrap_or_else(|| {
                        panic!("run {i} ({workers} workers) failed without a fault")
                    });
                    assert_eq!(
                        stats, &baseline[i],
                        "run {i} ({workers} workers) drifted from the fault-free sweep"
                    );
                }
                Some(FaultKind::PoisonedSink) => {
                    // The run itself is healthy — only its delivery blows up.
                    expected_completed += 1;
                    expected_sink_panics.push(i);
                    assert_eq!(
                        outcome.stats().expect("poisoned-sink run completes"),
                        &baseline[i],
                        "run {i}: sink poisoning must not perturb the simulation"
                    );
                }
                Some(FaultKind::Panic) => {
                    expected_failed += 1;
                    match outcome.error() {
                        Some(RunError::Panicked { message }) => assert!(
                            message.contains(CHAOS_MARKER),
                            "run {i}: unexpected panic message {message:?}"
                        ),
                        other => panic!("run {i}: expected Panicked, got {other:?}"),
                    }
                }
                Some(FaultKind::InvalidConfig) => {
                    expected_failed += 1;
                    assert!(
                        matches!(outcome.error(), Some(RunError::InvalidSpec { .. })),
                        "run {i}: expected InvalidSpec, got {:?}",
                        outcome.error()
                    );
                }
                Some(FaultKind::UnknownBenchmark) => {
                    expected_failed += 1;
                    match outcome.error() {
                        Some(RunError::UnknownBenchmark { bench }) => {
                            assert_eq!(bench, "__chaos_unknown__")
                        }
                        other => panic!("run {i}: expected UnknownBenchmark, got {other:?}"),
                    }
                }
            }
        }
        assert_eq!(
            report.completed, expected_completed,
            "{workers} workers: completed count"
        );
        assert_eq!(
            report.failed, expected_failed,
            "{workers} workers: failed count"
        );
        assert_eq!(
            report.sink_panics, expected_sink_panics,
            "{workers} workers: every poisoned delivery must be reported"
        );
    }

    // One runner served every sweep, so only the clean sweep prewarmed
    // (its seeds are all distinct); every later run that got as far as its
    // prewarm was restored from the memo — and the bit-identity checks
    // above cover every restored run that completed.
    let per_sweep: u64 = (0..clean.len())
        .map(|i| match plan.fault_at(i) {
            None | Some(FaultKind::PoisonedSink) | Some(FaultKind::Panic) => 1,
            Some(FaultKind::InvalidConfig) | Some(FaultKind::UnknownBenchmark) => 0,
        })
        .sum();
    let (hits, misses, _) = runner.prewarm_memo_stats();
    assert_eq!(misses, clean.len() as u64, "one prewarm per clean run");
    assert_eq!(
        hits,
        3 * per_sweep,
        "memo hits over the three faulty sweeps"
    );
}
