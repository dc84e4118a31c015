//! Chaos soak: push hundreds of mixed good/faulty runs through the
//! fault-isolated engine at several worker counts and assert the full
//! containment contract — the process never aborts, every injected fault
//! surfaces as its typed [`RunError`], and every non-faulted run stays
//! bit-identical to a fault-free sweep of the same specs.

use dcra_smt::experiments::fault::{silence_chaos_panics, CHAOS_MARKER};
use dcra_smt::experiments::{PolicyKind, RunError, RunSpec, Runner};

/// The sabotage a run of the soak carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The run panics at cycle 64 → [`RunError::Panicked`].
    Panic,
    /// A zero-sized fetch queue → [`RunError::InvalidSpec`].
    InvalidConfig,
    /// The first benchmark is outside the registry →
    /// [`RunError::UnknownBenchmark`].
    UnknownBenchmark,
}

/// The fixed index rule: three of every eight runs carry a fault.
fn fault_at(i: usize) -> Option<Fault> {
    match i % 8 {
        1 => Some(Fault::Panic),
        4 => Some(Fault::InvalidConfig),
        6 => Some(Fault::UnknownBenchmark),
        _ => None,
    }
}

/// `clean` with each run's [`fault_at`] baked into its spec.
fn instrument(clean: &[RunSpec]) -> Vec<RunSpec> {
    clean
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut s = spec.clone();
            match fault_at(i) {
                None => {}
                Some(Fault::Panic) => s.panic_at_cycle = Some(64),
                Some(Fault::InvalidConfig) => s.config.fetch_queue = 0,
                Some(Fault::UnknownBenchmark) => s.benches[0] = "__chaos_unknown__".to_string(),
            }
            s
        })
        .collect()
}

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
    let fault_count = (0..clean.len()).filter(|&i| fault_at(i).is_some()).count();
    assert!(
        fault_count * 4 >= clean.len(),
        "the rule must sabotage at least 25% of runs (got {fault_count}/{})",
        clean.len()
    );
    let faulty = instrument(&clean);

    // Fault-free reference sweep: the bit-identity baseline.
    let runner = Runner::new();
    let baseline: Vec<_> = runner
        .run_all_with_workers(&clean, 2)
        .into_iter()
        .map(|o| o.into_stats().expect("clean specs run clean"))
        .collect();

    for workers in [1usize, 4, 8] {
        let outcomes = runner.run_all_with_workers(&faulty, workers);
        assert_eq!(outcomes.len(), clean.len(), "one outcome per spec");
        let mut expected_completed = 0;
        let mut expected_failed = 0;
        for (i, outcome) in outcomes.iter().enumerate() {
            match fault_at(i) {
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
                Some(Fault::Panic) => {
                    expected_failed += 1;
                    match outcome.error() {
                        Some(RunError::Panicked { message }) => assert!(
                            message.contains(CHAOS_MARKER),
                            "run {i}: unexpected panic message {message:?}"
                        ),
                        other => panic!("run {i}: expected Panicked, got {other:?}"),
                    }
                }
                Some(Fault::InvalidConfig) => {
                    expected_failed += 1;
                    assert!(
                        matches!(outcome.error(), Some(RunError::InvalidSpec { .. })),
                        "run {i}: expected InvalidSpec, got {:?}",
                        outcome.error()
                    );
                }
                Some(Fault::UnknownBenchmark) => {
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
        let completed = outcomes.iter().filter(|o| o.is_completed()).count();
        assert_eq!(
            completed, expected_completed,
            "{workers} workers: completed count"
        );
        assert_eq!(
            outcomes.len() - completed,
            expected_failed,
            "{workers} workers: failed count"
        );
    }

    // One runner served every sweep, so only the clean sweep prewarmed
    // (its seeds are all distinct); every later run that got as far as its
    // prewarm was restored from the memo — and the bit-identity checks
    // above cover every restored run that completed.
    let per_sweep: u64 = (0..clean.len())
        .map(|i| match fault_at(i) {
            None | Some(Fault::Panic) => 1,
            Some(Fault::InvalidConfig) | Some(Fault::UnknownBenchmark) => 0,
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
