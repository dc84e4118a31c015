//! The traced run: the workload's spec list replayed sequentially
//! through the public `Simulator` calls `SimSession` makes, with a span
//! around every phase, checked run by run against the untraced program.
//! It gives the per-layer metrics.

use crate::plan::{Plan, Run, Workload};
use crate::report::{fold, metric, quantile, ratio, run_digest, Metric, Outcome};
use crate::{probes, untraced};
use smt_experiments::{RunError, RunStats, Runner};
use smt_isa::ThreadId;
use smt_metrics::{hmean, improvement_pct};
use smt_sim::{Simulator, StageProfile};
use smt_workloads::{spec, BenchmarkProfile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Time spent in each phase of one run.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    /// Validation, registry lookups, policy build, `new` or `reset`.
    setup: Duration,
    prewarm: Duration,
    warmup: Duration,
    measure: Duration,
}

impl Spans {
    fn total(&self) -> Duration {
        self.setup + self.prewarm + self.warmup + self.measure
    }
}

struct Traced {
    spans: Spans,
    stats: RunStats,
    /// Stage attribution of the measured window (profiled replay only).
    profile: StageProfile,
}

struct Replay {
    runs: Vec<Traced>,
    wall: Duration,
    news: u64,
    resets: u64,
    /// Thread traces bound: one per thread of every run.
    bindings: u64,
    /// Bindings that `ThreadTrace::rebind` serves from retained blocks:
    /// a reset to the same (benchmark, seed) on the same thread slot.
    rebind_hits: u64,
}

/// Replays `runs` in order on one thread, one simulator per session.
/// With `profiled`, the measured window runs under `run_cycles_profiled`.
fn replay(runs: &[Run], profiled: bool) -> Result<Replay, RunError> {
    let start = Instant::now();
    let mut out = Replay {
        runs: Vec::with_capacity(runs.len()),
        wall: Duration::ZERO,
        news: 0,
        resets: 0,
        bindings: 0,
        rebind_hits: 0,
    };
    let mut sim: Option<Simulator> = None;
    let mut session = None;
    let mut bound: Option<(Vec<String>, u64)> = None;
    for run in runs {
        let spec = &run.spec;
        if session != Some(run.session) {
            session = Some(run.session);
            sim = None;
        }
        let t0 = Instant::now();
        spec.config
            .validate()
            .map_err(|message| RunError::InvalidSpec { message })?;
        let profiles: Vec<&BenchmarkProfile> = spec
            .benches
            .iter()
            .map(|b| {
                spec::profile(b).ok_or_else(|| RunError::UnknownBenchmark { bench: b.clone() })
            })
            .collect::<Result<_, _>>()?;
        let policy = spec.policy.build();
        let sim = match &mut sim {
            Some(s) if s.config() == &spec.config => {
                if let Some((benches, seed)) = &bound {
                    if *seed == spec.seed {
                        out.rebind_hits += benches
                            .iter()
                            .zip(&spec.benches)
                            .filter(|(a, b)| a == b)
                            .count() as u64;
                    }
                }
                s.reset(&profiles, policy, spec.seed);
                out.resets += 1;
                s
            }
            slot => {
                out.news += 1;
                slot.insert(Simulator::new(
                    spec.config.clone(),
                    &profiles,
                    policy,
                    spec.seed,
                ))
            }
        };
        out.bindings += spec.benches.len() as u64;
        bound = Some((spec.benches.clone(), spec.seed));
        let t1 = Instant::now();
        sim.prewarm(spec.prewarm_insts);
        let t2 = Instant::now();
        sim.run_cycles(spec.warmup_cycles);
        sim.reset_stats();
        let t3 = Instant::now();
        let mut profile = StageProfile::default();
        if profiled {
            sim.run_cycles_profiled(spec.measure_cycles, &mut profile);
        } else {
            sim.run_cycles(spec.measure_cycles);
        }
        let stats = RunStats {
            result: sim.result(),
            mem: (0..spec.benches.len())
                .map(|i| sim.memory().thread_stats(ThreadId::new(i)))
                .collect(),
        };
        let t4 = Instant::now();
        out.runs.push(Traced {
            spans: Spans {
                setup: t1 - t0,
                prewarm: t2 - t1,
                warmup: t3 - t2,
                measure: t4 - t3,
            },
            stats,
            profile,
        });
    }
    out.wall = start.elapsed();
    Ok(out)
}

/// The single-thread baseline IPC of each thread of `run`.
fn singles_of(run: &Run, singles: &BTreeMap<String, f64>) -> Option<Vec<f64>> {
    run.spec
        .benches
        .iter()
        .map(|b| singles.get(b).copied())
        .collect()
}

/// Average throughput and Hmean of one policy's workload runs.
struct PolicyAverage {
    policy: String,
    throughput: f64,
    hmean: f64,
}

/// The model's outputs, per policy. `fig5-sweep` takes them from the
/// program's own `PolicySweep`s. No program function aggregates the
/// kernels' runs, so there each policy's traced runs are averaged; they
/// form one Table-4 class, so this is what `PolicySweep::average` gives.
fn policy_averages(
    plan: &Plan,
    runs: &[Run],
    traced: &[Traced],
    singles: &BTreeMap<String, f64>,
    output: &untraced::Output,
) -> Vec<PolicyAverage> {
    if let untraced::Output::Sweeps(_, sweeps) = output {
        return sweeps
            .iter()
            .flatten()
            .map(|s| PolicyAverage {
                policy: s.policy.clone(),
                throughput: s.average().throughput,
                hmean: s.average().hmean,
            })
            .collect();
    }
    plan.policies
        .iter()
        .map(|policy| {
            let (n, tput, hm) = runs
                .iter()
                .zip(traced)
                .filter(|(r, _)| r.spec.policy == *policy)
                .fold((0.0, 0.0, 0.0), |(n, tput, hm), (r, t)| {
                    let single = singles_of(r, singles)
                        .map_or(f64::NAN, |s| hmean(&t.stats.result.ipcs(), &s));
                    (n + 1.0, tput + t.stats.throughput(), hm + single)
                });
            PolicyAverage {
                policy: policy.name().to_string(),
                throughput: tput / n,
                hmean: hm / n,
            }
        })
        .collect()
}

/// What the untraced program produced for one run.
enum Reference {
    Stats(RunStats),
    /// A cached single-thread baseline IPC (`Runner::single_ipc`).
    Ipc(f64),
    Failed(String),
}

/// The untraced outcome of every run in `runs`. Kernels take it from the
/// repetition itself; `fig5-sweep`, whose sweeps return only class
/// averages, reruns the workload specs on the program's engine
/// (`Runner::run_all_with_workers`) and looks the baselines up in the
/// sweep's runner cache.
fn references(plan: &Plan, runs: &[Run], output: &untraced::Output) -> Vec<Reference> {
    let failed = |e: &RunError| Reference::Failed(e.to_string());
    match output {
        untraced::Output::Runs(outcomes) => outcomes
            .iter()
            .map(|o| {
                o.as_ref()
                    .map_or_else(failed, |s| Reference::Stats(s.clone()))
            })
            .collect(),
        untraced::Output::Sweeps(runner, _) => {
            let specs: Vec<_> = runs
                .iter()
                .filter(|r| !r.baseline)
                .map(|r| r.spec.clone())
                .collect();
            let mut engine = Runner::new()
                .run_all_with_workers(&specs, plan.workers)
                .into_iter();
            runs.iter()
                .map(|r| {
                    if r.baseline {
                        runner
                            .single_ipc(&r.spec.benches[0], &plan.config, &plan.lengths)
                            .map_or_else(|e| failed(&e), Reference::Ipc)
                    } else {
                        match engine.next().map(|o| o.into_stats()) {
                            Some(Ok(stats)) => Reference::Stats(stats),
                            Some(Err(e)) => failed(&e),
                            None => Reference::Failed("engine returned too few outcomes".into()),
                        }
                    }
                })
                .collect()
        }
    }
}

/// The paper's average DCRA improvements (Fig. 5), printed beside ours
/// for comparison only: `(baseline, Hmean %, throughput %)`.
pub const PAPER_FIG5: [(&str, f64, f64); 3] = [
    ("ICOUNT", 18.0, 24.0),
    ("DG", 41.0, 30.0),
    ("FLUSH++", 4.0, 1.0),
];

fn metric_name(policy: &str) -> String {
    policy.to_ascii_lowercase().replace('+', "p")
}

/// The traced invocation: one untraced repetition, the traced and the
/// profiled replays, the cross-checks, and the component probes.
pub fn measure(plan: &Plan, kernel_singles: &BTreeMap<String, f64>) -> Outcome {
    let runs = plan.runs();
    let rep = untraced::rep(plan, &mut || {});
    let checked = untraced::check(plan, &runs, &rep.output, kernel_singles);
    let mut out = Outcome {
        attempted: runs.len() as u64,
        problems: checked.problems,
        ..Outcome::default()
    };
    let references = references(plan, &runs, &rep.output);
    let (traced, profiled) = match (replay(&runs, false), replay(&runs, true)) {
        (Ok(t), Ok(p)) => (t, p),
        (Err(e), _) | (_, Err(e)) => {
            out.failed = out.attempted;
            out.problems.push(format!("traced replay failed: {e}"));
            return out;
        }
    };

    let mut failed = vec![false; runs.len()];
    for (i, ((t, p), reference)) in traced
        .runs
        .iter()
        .zip(&profiled.runs)
        .zip(&references)
        .enumerate()
    {
        let matches = match reference {
            Reference::Stats(s) => *s == t.stats,
            Reference::Ipc(ipc) => ipc.to_bits() == t.stats.throughput().to_bits(),
            Reference::Failed(e) => {
                out.problems.push(format!("run {i} failed untraced: {e}"));
                false
            }
        };
        if !matches || p.stats != t.stats {
            failed[i] = true;
            out.problems.push(format!(
                "run {i} {:?}: traced stats differ from the program's",
                runs[i].spec.benches
            ));
        }
    }

    let singles: BTreeMap<String, f64> = match plan.workload {
        Workload::Fig5Sweep => runs
            .iter()
            .zip(&traced.runs)
            .filter(|(r, _)| r.baseline)
            .map(|(r, t)| (r.spec.benches[0].clone(), t.stats.throughput()))
            .collect(),
        _ => kernel_singles.clone(),
    };
    for (i, (r, t)) in runs.iter().zip(&traced.runs).enumerate() {
        let hm = singles_of(r, &singles).map_or(f64::NAN, |s| hmean(&t.stats.result.ipcs(), &s));
        let tput = t.stats.throughput();
        if !(tput.is_finite() && tput > 0.0 && hm.is_finite() && hm > 0.0) {
            failed[i] = true;
            out.problems
                .push(format!("run {i}: throughput {tput}, hmean {hm}"));
        }
    }
    out.failed = failed.iter().filter(|&&f| f).count() as u64;
    out.failed = out.failed.max(checked.failed).min(out.attempted);

    let probe_profile = spec::profile(&runs[0].spec.benches[0]).expect("registry benchmark");
    let probes = match probes::run(probe_profile, plan.seed) {
        Ok(p) => p,
        Err(e) => {
            out.problems.push(e);
            out.failed = out.attempted;
            return out;
        }
    };
    out.correct = out.failed == 0;
    let averages = policy_averages(plan, &runs, &traced.runs, &singles, &rep.output);
    out.metrics = metrics(
        plan, &runs, &traced, &profiled, &averages, &rep, probes, &out,
    );
    out
}

/// One per-thread counter of `ThreadStats`.
type StatField = fn(&smt_sim::ThreadStats) -> u64;

#[allow(clippy::too_many_arguments)]
fn metrics(
    plan: &Plan,
    runs: &[Run],
    traced: &Replay,
    profiled: &Replay,
    averages: &[PolicyAverage],
    rep: &untraced::Rep,
    probes: probes::Probes,
    out: &Outcome,
) -> Vec<Metric> {
    let s = |d: Duration| d.as_secs_f64();
    let ns = |d: Duration| d.as_nanos() as f64;
    let pairs = || runs.iter().zip(&traced.runs);
    let workload_runs = || pairs().filter(|(r, _)| !r.baseline);
    let sum = |f: &dyn Fn(&Spans) -> Duration| {
        workload_runs().map(|(_, t)| f(&t.spans)).sum::<Duration>()
    };

    // Sweep layer: where the workload's time goes, phase by phase.
    let baselines = pairs()
        .filter(|(r, _)| r.baseline)
        .map(|(_, t)| t.spans.total())
        .sum::<Duration>();
    let phases = [
        ("baselines", baselines),
        ("setup", sum(&|p| p.setup)),
        ("prewarm", sum(&|p| p.prewarm)),
        ("warmup", sum(&|p| p.warmup)),
        ("measure", sum(&|p| p.measure)),
    ];
    let phase_total: Duration = phases.iter().map(|(_, d)| *d).sum();
    let mut m: Vec<Metric> = Vec::new();
    for (name, d) in phases {
        m.push(metric(format!("sweep.{name}_s"), s(d), "s"));
    }
    for (name, d) in phases {
        m.push(metric(
            format!("sweep.{name}_pct"),
            100.0 * ratio(s(d), s(phase_total)),
            "%",
        ));
    }
    let run_ms: Vec<f64> = workload_runs()
        .map(|(_, t)| 1e3 * s(t.spans.total()))
        .collect();
    m.push(metric("sweep.run_ms_p50", quantile(&run_ms, 0.5), "ms"));
    m.push(metric("sweep.run_ms_p90", quantile(&run_ms, 0.9), "ms"));

    // Runner layer.
    let traced_busy: Duration = traced.runs.iter().map(|t| t.spans.total()).sum();
    m.push(metric(
        "runner.parallel_efficiency",
        ratio(s(traced_busy), s(rep.wall) * plan.workers as f64),
        "ratio",
    ));
    m.push(metric(
        "runner.sim_reuse_ratio",
        ratio(traced.resets as f64, (traced.resets + traced.news) as f64),
        "ratio",
    ));
    m.push(metric(
        "failed_run_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    ));
    m.push(metric(
        "trace.overhead_pct",
        100.0 * (ratio(s(traced.wall), s(rep.cpu)) - 1.0),
        "%",
    ));

    // Simulator layer: the measured windows of every run.
    let all = || traced.runs.iter();
    let measure_ns = ns(all().map(|t| t.spans.measure).sum());
    let measure_cycles: u64 = runs.iter().map(|r| r.spec.measure_cycles).sum();
    let threads = || all().flat_map(|t| t.stats.result.threads.iter());
    let total = |f: StatField| threads().map(f).sum::<u64>();
    let committed = total(|t| t.committed);
    let fetched = total(|t| t.fetched);
    m.push(metric(
        "sim.ns_per_cycle",
        ratio(measure_ns, measure_cycles as f64),
        "ns",
    ));
    m.push(metric(
        "sim.ns_per_inst",
        ratio(measure_ns, committed as f64),
        "ns",
    ));
    let mut stages = StageProfile::default();
    for p in profiled.runs.iter().map(|t| &t.profile) {
        stages.cycles += p.cycles;
        stages.skipped += p.skipped;
        stages.policy += p.policy;
        stages.events += p.events;
        stages.commit += p.commit;
        stages.issue += p.issue;
        stages.dispatch += p.dispatch;
        stages.fetch += p.fetch;
        stages.forward += p.forward;
        stages.other += p.other;
    }
    for (name, share) in stages.shares() {
        m.push(metric(format!("sim.stage.{name}_pct"), 100.0 * share, "%"));
    }
    let profiled_ns = ns(profiled.runs.iter().map(|t| t.spans.measure).sum());
    m.push(metric(
        "sim.profile_overhead_pct",
        100.0 * (ratio(profiled_ns, measure_ns) - 1.0),
        "%",
    ));
    m.push(metric(
        "sim.skipped_cycles_pct",
        100.0 * ratio(stages.skipped as f64, stages.cycles as f64),
        "%",
    ));
    m.push(metric(
        "sim.stepped_cycles",
        (stages.cycles - stages.skipped) as f64,
        "count",
    ));
    m.push(metric(
        "sim.useful_fetch_ratio",
        ratio(committed as f64, fetched as f64),
        "ratio",
    ));
    let counts: [(&str, StatField); 9] = [
        ("fetched", |t| t.fetched),
        ("committed", |t| t.committed),
        ("squashed", |t| t.squashed),
        ("mispredicts", |t| t.mispredicts),
        ("gated_cycles", |t| t.gated_cycles),
        ("blocked_rob", |t| t.blocked_rob),
        ("blocked_iq", |t| t.blocked_iq),
        ("blocked_regs", |t| t.blocked_regs),
        ("blocked_policy", |t| t.blocked_policy),
    ];
    for (name, f) in counts {
        m.push(metric(format!("sim.{name}"), total(f) as f64, "count"));
    }

    // Policy layer: measured-window cost per policy (0 where the workload
    // runs no such policy; fig5-sweep runs four of the nine).
    for name in crate::plan::NINE {
        let (d, cycles) = workload_runs()
            .filter(|(r, _)| r.spec.policy.name() == name)
            .fold((Duration::ZERO, 0u64), |(d, c), (r, t)| {
                (d + t.spans.measure, c + r.spec.measure_cycles)
            });
        m.push(metric(
            format!("policy.{}.ns_per_cycle", metric_name(name)),
            ratio(ns(d), cycles as f64),
            "ns",
        ));
    }

    // Memory layer.
    let prewarm_insts: u64 = runs
        .iter()
        .map(|r| r.spec.prewarm_insts * r.spec.benches.len() as u64)
        .sum();
    let prewarm_ns = ns(all().map(|t| t.spans.prewarm).sum());
    let mem = || all().flat_map(|t| t.stats.mem.iter());
    let mem_total = |f: fn(&smt_mem::ThreadMemStats) -> u64| mem().map(f).sum::<u64>() as f64;
    m.push(metric(
        "mem.prewarm_ns_per_inst",
        ratio(prewarm_ns, prewarm_insts as f64),
        "ns",
    ));
    m.push(metric("mem.access_data_ns", probes.access_data_ns, "ns"));
    m.push(metric(
        "mem.l1d_miss_rate",
        ratio(mem_total(|t| t.l1_misses), mem_total(|t| t.accesses)),
        "ratio",
    ));
    m.push(metric(
        "mem.l2_miss_rate",
        ratio(mem_total(|t| t.l2_misses), mem_total(|t| t.l2_accesses)),
        "ratio",
    ));
    m.push(metric(
        "mem.mlp",
        ratio(total(|t| t.mlp_sum) as f64, total(|t| t.mlp_cycles) as f64),
        "ratio",
    ));

    // Trace-store layer.
    m.push(metric(
        "workloads.gen_ns_per_inst",
        probes.gen_ns_per_inst,
        "ns",
    ));
    m.push(metric(
        "workloads.replay_ns_per_inst",
        probes.replay_ns_per_inst,
        "ns",
    ));
    m.push(metric("workloads.next_inst_ns", probes.next_inst_ns, "ns"));
    m.push(metric(
        "workloads.rebind_hit_ratio",
        ratio(traced.rebind_hits as f64, traced.bindings as f64),
        "ratio",
    ));

    // Simulated outputs: reported, never gated. Reduced-length runs of an
    // unvalidated model; the paper is the only reference.
    let n = averages.len() as f64;
    m.push(metric(
        "model.throughput_ipc",
        averages.iter().map(|a| a.throughput).sum::<f64>() / n,
        "ipc",
    ));
    m.push(metric(
        "model.hmean",
        averages.iter().map(|a| a.hmean).sum::<f64>() / n,
        "ratio",
    ));
    let avg = |name: &str| averages.iter().find(|a| a.policy == name);
    for (base, _, _) in PAPER_FIG5 {
        let key = format!("model.dcra_vs_{}", metric_name(base));
        let (hm, tput) = match (avg("DCRA"), avg(base)) {
            (Some(d), Some(b)) => (
                improvement_pct(d.hmean, b.hmean),
                improvement_pct(d.throughput, b.throughput),
            ),
            _ => (0.0, 0.0),
        };
        m.push(metric(format!("{key}_hmean_pct"), hm, "%"));
        m.push(metric(format!("{key}_tput_pct"), tput, "%"));
    }
    let digest = fold(traced.runs.iter().map(|t| run_digest(&t.stats)));
    m.push(metric("model.digest", (digest >> 16) as f64, "hash"));
    m
}
