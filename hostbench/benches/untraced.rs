//! The measured runs: whole-workload repetitions, timed from outside the
//! program, with tracing off. These give the end-to-end metrics.

use crate::calib::{Calibration, REFERENCE_S};
use crate::host;
use crate::plan::{Plan, Run, Workload};
use crate::report::{fold, median, metric, run_digest, Digest, Outcome};
use smt_experiments::sweep::{sweep_policy, PolicySweep};
use smt_experiments::{RunError, RunSpec, RunStats, Runner, SimSession};
use smt_sim::Simulator;
use smt_workloads::{spec, BenchmarkProfile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up samples taken before each repetition. Spreading them over the
/// whole run keeps a short burst of host noise from covering them all;
/// `setup_s` is the median of every sample.
const SETUP_SAMPLES_PER_REP: usize = 8;
/// Repetitions measured even when `--seconds` runs out first.
const MIN_REPS: usize = 3;

/// What the program returned from one repetition.
pub enum Output {
    /// `fig5-sweep`: the four `PolicySweep`s, and the runner that holds
    /// the cached single-thread baselines.
    Sweeps(Runner, Vec<Result<PolicySweep, RunError>>),
    /// Kernels: each run's statistics, in `Plan::runs` order.
    Runs(Vec<Result<RunStats, RunError>>),
}

/// One timed repetition of the whole workload.
pub struct Rep {
    /// Wall and CPU time summed over the repetition's segments.
    pub wall: Duration,
    pub cpu: Duration,
    pub output: Output,
}

/// Times the segments of a repetition, leaving out what runs between.
#[derive(Default)]
struct Segments {
    wall: Duration,
    cpu: Duration,
}

impl Segments {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let c0 = host::cpu_time();
        let out = f();
        self.wall += t0.elapsed();
        self.cpu += host::cpu_time() - c0;
        out
    }
}

/// Runs the workload once, as the program runs it, in segments: each
/// `sweep_policy` call of `fig5-sweep`, each run of a kernel. After
/// every segment, outside the timed spans, it calls `between`.
pub fn rep(plan: &Plan, between: &mut dyn FnMut()) -> Rep {
    let mut seg = Segments::default();
    let output = match plan.workload {
        Workload::Fig5Sweep => {
            let runner = Runner::new();
            let mut sweeps = Vec::with_capacity(plan.policies.len());
            for p in &plan.policies {
                sweeps.push(seg.time(|| sweep_policy(&runner, p, &plan.config, &plan.lengths)));
                between();
            }
            Output::Sweeps(runner, sweeps)
        }
        Workload::KernelIlp4 | Workload::KernelMem4 => {
            let runs = plan.runs();
            let mut out = Vec::with_capacity(runs.len());
            for session in runs.chunk_by(|a, b| a.session == b.session) {
                let mut s = seg.time(SimSession::new);
                for r in session {
                    out.push(seg.time(|| s.run(&r.spec)));
                    between();
                }
            }
            Output::Runs(out)
        }
    };
    Rep {
        wall: seg.wall,
        cpu: seg.cpu,
        output,
    }
}

/// Time from workload start to the first simulated cycle, spent only in
/// the program's calls: fetching the mixes, building the specs the
/// program builds before it simulates (`fig5-sweep`: the first
/// `sweep_policy` call's 36; a kernel: its whole list), then for the
/// first simulation (`fig5-sweep`: the first single-thread baseline) the
/// validation, registry lookups and `Simulator::new`.
pub fn setup_once(plan: &Plan) -> Duration {
    let t0 = Instant::now();
    let mixes = plan.workload.mixes();
    let (specs, first) = match plan.workload {
        Workload::Fig5Sweep => {
            let specs: Vec<RunSpec> = mixes
                .iter()
                .map(|w| plan.fig5_spec(&plan.policies[0], w))
                .collect();
            let first = plan.baseline_spec(&mixes[0].benchmarks[0]);
            (specs, first)
        }
        Workload::KernelIlp4 | Workload::KernelMem4 => {
            let specs = plan.kernel_specs(&mixes);
            let first = specs[0].clone();
            (specs, first)
        }
    };
    first.config.validate().expect("valid configuration");
    let profiles: Vec<&BenchmarkProfile> = first
        .benches
        .iter()
        .map(|b| spec::profile(b).expect("registry benchmark"))
        .collect();
    let sim = Simulator::new(
        first.config.clone(),
        &profiles,
        first.policy.build(),
        first.seed,
    );
    let elapsed = t0.elapsed();
    black_box((sim, specs));
    elapsed
}

/// Checks of one repetition's output: runs attempted and failed, the
/// digest, and the simulated work done.
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    /// Fig5: one digest over the sweeps. Kernels: one per run.
    pub digests: Vec<u64>,
    /// Committed instructions in the measured windows.
    pub committed: u64,
    pub problems: Vec<String>,
}

/// Single-thread baseline IPCs of each kernel mix, for the Hmean check
/// (`Runner::single_ipcs`, as the figures compute them).
pub fn kernel_singles(plan: &Plan) -> Result<BTreeMap<String, f64>, RunError> {
    let runner = Runner::new();
    let mut singles = BTreeMap::new();
    for w in &plan.mixes {
        let ipcs = runner.single_ipcs(w, &plan.config, &plan.lengths)?;
        singles.extend(w.benchmarks.iter().cloned().zip(ipcs));
    }
    Ok(singles)
}

pub fn check(
    plan: &Plan,
    runs: &[Run],
    output: &Output,
    singles: &BTreeMap<String, f64>,
) -> Checked {
    let mut c = Checked {
        attempted: runs.len() as u64,
        failed: 0,
        digests: Vec::new(),
        committed: 0,
        problems: Vec::new(),
    };
    let measure = plan.lengths.measure_cycles as f64;
    match output {
        Output::Sweeps(runner, sweeps) => {
            let mut d = Digest::default();
            let per_sweep = plan.mixes.len() as u64;
            let mut ipc_sum = 0.0;
            for sweep in sweeps {
                match sweep {
                    Err(e) => {
                        c.failed += per_sweep;
                        c.problems.push(format!("sweep failed: {e}"));
                    }
                    Ok(s) => {
                        c.failed += s.failures.len() as u64;
                        for (i, e) in &s.failures {
                            c.problems.push(format!("{} spec {i}: {e}", s.policy));
                        }
                        d.bytes(s.policy.as_bytes());
                        for (threads, kind, m) in &s.classes {
                            let finite = [m.throughput, m.hmean, m.fetch_per_commit, m.mlp]
                                .iter()
                                .all(|v| v.is_finite());
                            let members = plan
                                .mixes
                                .iter()
                                .filter(|w| w.threads() == *threads && w.kind == *kind)
                                .count();
                            if !finite || m.throughput <= 0.0 || m.hmean <= 0.0 {
                                c.failed += members as u64;
                                c.problems
                                    .push(format!("{} {kind}{threads}: {m:?}", s.policy));
                            }
                            for v in [m.throughput, m.hmean, m.fetch_per_commit, m.mlp] {
                                d.f64(v);
                            }
                            ipc_sum += m.throughput * members as f64;
                        }
                    }
                }
            }
            // The baselines were cached by the sweeps; these are lookups.
            for r in runs.iter().filter(|r| r.baseline) {
                match runner.single_ipc(&r.spec.benches[0], &plan.config, &plan.lengths) {
                    Ok(ipc) => ipc_sum += ipc,
                    Err(e) => c
                        .problems
                        .push(format!("baseline {:?}: {e}", r.spec.benches)),
                }
            }
            c.committed = (ipc_sum * measure).round() as u64;
            c.digests.push(d.finish());
        }
        Output::Runs(outcomes) => {
            for (i, (outcome, run)) in outcomes.iter().zip(runs).enumerate() {
                match outcome {
                    Err(e) => {
                        c.failed += 1;
                        c.digests.push(0);
                        c.problems.push(format!("run {i}: {e}"));
                    }
                    Ok(stats) => {
                        let tput = stats.throughput();
                        let single: Option<Vec<f64>> = run
                            .spec
                            .benches
                            .iter()
                            .map(|b| singles.get(b).copied())
                            .collect();
                        let hm = single.map_or(f64::NAN, |s| smt_metrics::hmean(&stats.ipcs(), &s));
                        if !(tput.is_finite() && tput > 0.0 && hm.is_finite() && hm > 0.0) {
                            c.failed += 1;
                            c.problems
                                .push(format!("run {i}: throughput {tput}, hmean {hm}"));
                        }
                        c.committed += stats.result.total_committed();
                        c.digests.push(run_digest(stats));
                    }
                }
            }
        }
    }
    c
}

/// Counts runs whose digest differs from the reference repetition's.
pub fn mismatches(plan: &Plan, reference: &[u64], digests: &[u64]) -> u64 {
    match plan.workload {
        // One digest covers the whole sweep: a mismatch fails every run.
        Workload::Fig5Sweep if reference != digests => plan.runs().len() as u64,
        Workload::Fig5Sweep => 0,
        _ => reference
            .iter()
            .zip(digests)
            .filter(|(a, b)| a != b)
            .count() as u64,
    }
}

/// Simulated cycles (warmup + measure) of one repetition.
pub fn sim_cycles(runs: &[Run]) -> u64 {
    runs.iter()
        .map(|r| r.spec.warmup_cycles + r.spec.measure_cycles)
        .sum()
}

/// The end-to-end measurement: whole-workload repetitions for `seconds`
/// (at least [`MIN_REPS`]), each preceded by set-up samples and checked
/// against the first repetition. A host calibration runs before each
/// repetition and after each of its segments; every timing of a
/// repetition is normalised to the reference host by the mean of those
/// calibrations (see `calib`). Every metric is a median over the
/// repetitions (over the samples, for `setup_s`). The raw times go into
/// the provenance line.
pub fn measure(plan: &Plan, seconds: f64, singles: &BTreeMap<String, f64>) -> (Outcome, String) {
    let runs = plan.runs();
    let cycles = sim_cycles(&runs) as f64;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut calibration = Calibration::new();
    let (mut raw_walls, mut speeds) = (Vec::new(), Vec::new());
    let (mut walls, mut cpus, mut setup, mut cycle_rates, mut inst_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let setup_raw: Vec<f64> = (0..SETUP_SAMPLES_PER_REP)
            .map(|_| setup_once(plan).as_secs_f64())
            .collect();
        // fig5-sweep has four segments a repetition, a kernel 144: give
        // each repetition a similar calibration time.
        let passes = match plan.workload {
            Workload::Fig5Sweep => 8,
            Workload::KernelIlp4 | Workload::KernelMem4 => 1,
        };
        let mut cals = Vec::new();
        let mut calibrate = || cals.extend((0..passes).map(|_| calibration.run()));
        calibrate();
        let rep = rep(plan, &mut calibrate);
        let cal = cals.iter().sum::<Duration>().as_secs_f64() / cals.len() as f64;
        let scale = REFERENCE_S / cal;

        let c = check(plan, &runs, &rep.output, singles);
        let reference = reference.get_or_insert_with(|| c.digests.clone());
        let mismatched = mismatches(plan, reference, &c.digests);
        if mismatched > 0 {
            out.problems.push(format!(
                "repetition {}: {mismatched} runs' digests moved",
                walls.len()
            ));
        }
        out.attempted += c.attempted;
        out.failed += c.failed.max(mismatched).min(c.attempted);
        out.problems.extend(c.problems);

        let raw = rep.wall.as_secs_f64();
        let wall = raw * scale;
        raw_walls.push(raw);
        speeds.push(scale);
        walls.push(wall);
        cpus.push(rep.cpu.as_secs_f64() * scale);
        setup.extend(setup_raw.iter().map(|t| t * scale));
        cycle_rates.push(cycles / wall);
        inst_rates.push(c.committed as f64 / wall);
    }
    out.correct = out.failed == 0;
    out.metrics = vec![
        metric("wall_s", median(&walls), "s"),
        metric("cpu_s", median(&cpus), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("sim_cycles_per_s", median(&cycle_rates), "1/s"),
        metric("sim_insts_per_s", median(&inst_rates), "1/s"),
        metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ];
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let samples = format!(
        "{{\"repetitions\": {}, \"raw_wall_s\": [{}], \"host_speed\": [{}], \
         \"setup_samples\": {}, \"digest\": \"{:016x}\"}}",
        walls.len(),
        list(&raw_walls),
        list(&speeds),
        setup.len(),
        fold(reference.unwrap_or_default())
    );
    (out, samples)
}
