//! Chaos soak: push hundreds of mixed good/faulty runs through the
//! fault-isolated engine at several worker counts and assert the full
//! containment contract — the process never aborts, every injected fault
//! surfaces as its typed [`RunError`], and every non-faulted run stays
//! bit-identical to a fault-free sweep of the same specs.

use dcra_smt::experiments::chaos::{silence_chaos_panics, FaultKind, FaultPlan, CHAOS_MARKER};
use dcra_smt::experiments::{
    EngineOptions, PolicyKind, RetryPolicy, RunError, RunOutcome, RunSpec, Runner,
};
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

    let opts = EngineOptions {
        retry: RetryPolicy::immediate(2),
        ..EngineOptions::default()
    };
    for workers in [1usize, 4, 8] {
        let outcomes: Mutex<Vec<Option<RunOutcome>>> =
            Mutex::new(clean.iter().map(|_| None).collect());
        let report = runner.run_isolated(&faulty, workers, &opts, |i, outcome| {
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
                    assert_eq!(outcome.attempts(), 1, "clean run {i} must not retry");
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
                Some(FaultKind::TransientPanic) => {
                    expected_completed += 1;
                    match outcome {
                        RunOutcome::Completed { stats, attempts } => {
                            assert_eq!(*attempts, 2, "run {i} must succeed on the retry");
                            assert_eq!(
                                stats, &baseline[i],
                                "run {i}: retried run drifted from the fault-free sweep"
                            );
                        }
                        RunOutcome::Failed { error, .. } => {
                            panic!("run {i}: transient fault did not recover: {error}")
                        }
                    }
                }
                Some(FaultKind::Panic) => {
                    expected_failed += 1;
                    match outcome.error() {
                        Some(RunError::Panicked { message }) => {
                            assert!(
                                message.contains(CHAOS_MARKER),
                                "run {i}: unexpected panic message {message:?}"
                            );
                            assert_eq!(
                                outcome.attempts(),
                                2,
                                "run {i}: persistent panic must exhaust both attempts"
                            );
                        }
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
                Some(FaultKind::Livelock) => {
                    expected_failed += 1;
                    assert!(
                        matches!(outcome.error(), Some(RunError::Livelock { window: 1, .. })),
                        "run {i}: expected Livelock, got {:?}",
                        outcome.error()
                    );
                }
                Some(FaultKind::CycleCap) => {
                    expected_failed += 1;
                    assert!(
                        matches!(
                            outcome.error(),
                            Some(RunError::CycleBudget { limit: 50, .. })
                        ),
                        "run {i}: expected CycleBudget, got {:?}",
                        outcome.error()
                    );
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
            report.rejected, 0,
            "{workers} workers: nothing was rejected"
        );
        assert_eq!(
            report.sink_panics, expected_sink_panics,
            "{workers} workers: every poisoned delivery must be reported"
        );
    }

    // One runner served every sweep, so only the clean sweep prewarmed
    // (its seeds are all distinct); every later attempt that got as far
    // as its prewarm, retries included, was restored from the memo — and
    // the bit-identity checks above cover every restored run.
    let per_sweep: u64 = (0..clean.len())
        .map(|i| match plan.fault_at(i) {
            None
            | Some(FaultKind::PoisonedSink)
            | Some(FaultKind::Livelock)
            | Some(FaultKind::CycleCap) => 1,
            Some(FaultKind::Panic) | Some(FaultKind::TransientPanic) => 2,
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

/// Admission control under chaos: capping the queue rejects the tail as
/// typed [`RunError::QueueFull`] failures while the admitted prefix still
/// honours the full containment contract.
#[test]
fn chaos_soak_respects_admission_control() {
    silence_chaos_panics();

    let clean = soak_specs();
    let plan = FaultPlan::seeded(SOAK_SEED, clean.len(), FAULT_SHARE);
    let faulty = plan.instrument(&clean);
    let capacity = 40usize;

    let runner = Runner::new();
    let opts = EngineOptions {
        retry: RetryPolicy::immediate(2),
        queue_capacity: Some(capacity),
        ..EngineOptions::default()
    };
    let outcomes: Mutex<Vec<Option<RunOutcome>>> = Mutex::new(clean.iter().map(|_| None).collect());
    let report = runner.run_isolated(&faulty, 4, &opts, |i, outcome| {
        outcomes.lock().unwrap()[i] = Some(outcome);
        if plan.poisons_sink(i) {
            panic!("{CHAOS_MARKER}: sink detonated for run {i}");
        }
    });

    let outcomes = outcomes.into_inner().unwrap();
    for (i, slot) in outcomes.iter().enumerate() {
        let outcome = slot.as_ref().expect("sink covered every spec");
        if i >= capacity {
            match outcome.error() {
                Some(RunError::QueueFull {
                    capacity: cap,
                    depth,
                }) => {
                    assert_eq!((*cap, *depth), (capacity, faulty.len()));
                }
                other => panic!("run {i}: expected QueueFull, got {other:?}"),
            }
        } else if plan.fault_at(i).is_none() {
            assert!(
                outcome.is_completed(),
                "admitted clean run {i} must complete"
            );
        }
    }
    assert_eq!(
        report.completed + report.failed - report.rejected,
        capacity,
        "exactly the admitted prefix was executed"
    );
    assert_eq!(report.rejected, faulty.len() - capacity);
}
