//! Shared machinery for the policy-comparison figures: run a policy over
//! the paper's 36 workloads and aggregate by workload class (the 9
//! ILP/MIX/MEM × 2/3/4 classes of Section 4). Also the single-table
//! studies ([`crate::ablation`], [`crate::partitioning`]): a list of
//! labelled policies, each averaged over [`study_workloads`].

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunOutcome, RunSpec, Runner};
use crate::tables::{f3, TextTable};
use smt_metrics::hmean;
use smt_sim::SimConfig;
use smt_workloads::{table4_workloads, workloads_of, Workload, WorkloadType};
use std::cmp::Reverse;

/// Aggregated metrics of one policy on one workload class.
///
/// The all-zero `Default` doubles as the guarded "no data" value: empty
/// classes and empty sweeps aggregate to zeros, never to NaN.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassMetrics {
    /// Mean IPC throughput over the class's four groups.
    pub throughput: f64,
    /// Mean Hmean over the four groups.
    pub hmean: f64,
    /// Mean fetched-per-committed ratio (front-end activity).
    pub fetch_per_commit: f64,
    /// Mean workload MLP (average overlapping L2 misses).
    pub mlp: f64,
}

/// Results of a policy over all 9 classes, in `(threads, type)` order.
#[derive(Debug, Clone)]
pub struct PolicySweep {
    /// Policy name.
    pub policy: String,
    /// `(threads, type, metrics)` rows for the 9 classes.
    pub classes: Vec<(usize, WorkloadType, ClassMetrics)>,
    /// Workloads whose run failed, as `(spec_index, error)` pairs in spec
    /// order. Failed runs are *excluded* from the class averages above —
    /// a partial result is explicitly partial, never silently averaged in
    /// as zeros.
    pub failures: Vec<(usize, RunError)>,
}

impl PolicySweep {
    /// Metrics of one class, if the sweep covered it. Partial sweeps
    /// (restricted thread counts, filtered workloads, failed runs) simply
    /// lack some classes.
    pub fn try_class(&self, threads: usize, kind: WorkloadType) -> Option<ClassMetrics> {
        self.classes
            .iter()
            .find(|(t, k, _)| *t == threads && *k == kind)
            .map(|(_, _, m)| *m)
    }

    /// Metrics of one class. A class the sweep did not cover yields the
    /// all-zero [`ClassMetrics`] instead of panicking, so figure binaries
    /// render empty bins rather than dying on partial sweeps; use
    /// [`PolicySweep::try_class`] to distinguish "absent" from "zero".
    pub fn class(&self, threads: usize, kind: WorkloadType) -> ClassMetrics {
        self.try_class(threads, kind).unwrap_or_default()
    }

    /// Unweighted average over the covered classes. An empty sweep
    /// averages to the all-zero metrics, never to NaN.
    pub fn average(&self) -> ClassMetrics {
        if self.classes.is_empty() {
            return ClassMetrics::default();
        }
        let n = self.classes.len() as f64;
        ClassMetrics {
            throughput: self
                .classes
                .iter()
                .map(|(_, _, m)| m.throughput)
                .sum::<f64>()
                / n,
            hmean: self.classes.iter().map(|(_, _, m)| m.hmean).sum::<f64>() / n,
            fetch_per_commit: self
                .classes
                .iter()
                .map(|(_, _, m)| m.fetch_per_commit)
                .sum::<f64>()
                / n,
            mlp: self.classes.iter().map(|(_, _, m)| m.mlp).sum::<f64>() / n,
        }
    }
}

/// Runs `policy` over every Table-4 workload on `config` and aggregates per
/// class. `lengths` provides the prewarm/warmup/measure cycle counts.
///
/// Individual workload failures land in [`PolicySweep::failures`] and are
/// skipped by the class averages; the call itself only fails when the
/// single-thread baselines cannot be measured (the registry benchmarks are
/// trusted, so in practice only a broken `config` does that).
pub fn sweep_policy(
    runner: &Runner,
    policy: &PolicyKind,
    config: &SimConfig,
    lengths: &RunSpec,
) -> Result<PolicySweep, RunError> {
    sweep_policy_threads(runner, policy, config, lengths, &[2, 3, 4])
}

/// Like [`sweep_policy`], restricted to the given thread counts. The
/// sensitivity figures (6 and 7) use the 2-thread subset so the full
/// register/latency sweeps stay tractable on one core; the class structure
/// is unchanged.
pub fn sweep_policy_threads(
    runner: &Runner,
    policy: &PolicyKind,
    config: &SimConfig,
    lengths: &RunSpec,
    thread_counts: &[usize],
) -> Result<PolicySweep, RunError> {
    let workloads: Vec<Workload> = table4_workloads()
        .into_iter()
        .filter(|w| thread_counts.contains(&w.threads()))
        .collect();
    // The streaming sink below needs each workload's baselines for its
    // Hmean, so they are measured first: one pooled batch of every
    // uncached one, cached in the runner for later sweeps.
    let singles = runner.baselines(&workloads, config, lengths)?;

    // Dispatch longest-first: more threads means a longer run, and a pool
    // that takes the 4-thread mixes last (Table-4 order) ends every call
    // with one long run and idle workers. `order[j]` is the Table-4 index
    // of the `j`-th spec dispatched; outcomes land there, so the schedule
    // changes no result.
    let mut dispatch: Vec<(usize, RunSpec)> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut s = RunSpec::for_workload(w, policy.clone()).with_config(config.clone());
            s.prewarm_insts = lengths.prewarm_insts;
            s.warmup_cycles = lengths.warmup_cycles;
            s.measure_cycles = lengths.measure_cycles;
            (i, s)
        })
        .collect();
    dispatch.sort_by_key(|(_, s)| Reverse(s.benches.len()));
    let (order, specs): (Vec<usize>, Vec<RunSpec>) = dispatch.into_iter().unzip();

    // Stream outcomes into per-spec scalar metrics: the heavy 36-run
    // result vector is never materialised and metric extraction overlaps
    // the remaining simulations, but the class reduction below still sums
    // in fixed Table-4 order — f64 addition is not associative, and a
    // completion-order sum would make identical sweeps differ in the last
    // ulp across runs.
    #[derive(Clone, Copy)]
    struct SpecMetrics {
        tput: f64,
        hm: f64,
        fpc: f64,
        mlp: f64,
    }
    let mut per_spec: Vec<Option<SpecMetrics>> = vec![None; specs.len()];
    let mut failures: Vec<(usize, RunError)> = Vec::new();
    #[expect(
        clippy::indexing_slicing,
        reason = "order is a permutation of 0..workloads.len(), and per_spec and singles are built from the same workload list; the pool's spec index j ranges over the same length"
    )]
    runner.run_isolated(&specs, default_workers(), |j, outcome| {
        let i = order[j];
        match outcome.into_stats() {
            Ok(out) => {
                per_spec[i] = Some(SpecMetrics {
                    tput: out.throughput(),
                    hm: hmean(&out.ipcs(), &singles[i]),
                    fpc: out.result.total_fetched() as f64
                        / out.result.total_committed().max(1) as f64,
                    mlp: smt_metrics::workload_mlp(&out.result),
                });
            }
            Err(error) => failures.push((i, error)),
        }
    });
    failures.sort_by_key(|(i, _)| *i);

    let classes = thread_counts
        .iter()
        .flat_map(|&t| WorkloadType::ALL.iter().map(move |&k| (t, k)))
        .filter_map(|(threads, kind)| {
            let group: Vec<&SpecMetrics> = workloads
                .iter()
                .zip(&per_spec)
                .filter(|(w, _)| w.threads() == threads && w.kind == kind)
                .filter_map(|(_, m)| m.as_ref())
                .collect();
            // A class with no surviving workloads — partial sweeps, or
            // every member failed — is omitted entirely: no 0/0 = NaN
            // row, and no all-zero placeholder silently dragging
            // `average()` down. `try_class` reports the absence,
            // `class()` renders it as an empty (zero) bin.
            if group.is_empty() {
                return None;
            }
            let n = group.len() as f64;
            Some((
                threads,
                kind,
                ClassMetrics {
                    throughput: group.iter().map(|m| m.tput).sum::<f64>() / n,
                    hmean: group.iter().map(|m| m.hm).sum::<f64>() / n,
                    fetch_per_commit: group.iter().map(|m| m.fpc).sum::<f64>() / n,
                    mlp: group.iter().map(|m| m.mlp).sum::<f64>() / n,
                },
            ))
        })
        .collect();
    Ok(PolicySweep {
        policy: policy.name().to_string(),
        classes,
        failures,
    })
}

/// Hardware contexts of every [`study_workloads`] mix.
pub const STUDY_THREADS: usize = 2;

/// The studies' workloads: Table 4's 2-thread MIX and MEM groups, where a
/// policy's sharing choices matter most (a mixture of fast and slow
/// threads).
pub fn study_workloads() -> Vec<Workload> {
    let mut w = workloads_of(WorkloadType::Mix, STUDY_THREADS);
    w.extend(workloads_of(WorkloadType::Mem, STUDY_THREADS));
    w
}

/// One labelled policy's mean metrics over a study's workloads.
#[derive(Debug, Clone)]
pub struct StudyRow {
    /// Variant label.
    pub label: String,
    /// Mean IPC throughput.
    pub throughput: f64,
    /// Mean Hmean.
    pub hmean: f64,
}

/// Runs every labelled policy over `workloads` on the baseline machine at
/// `lengths`' prewarm, warm-up and measure lengths, and averages each
/// variant's throughput and Hmean. The baselines are one pooled batch and
/// the runs one pooled spec list; each row sums in workload order, so the
/// rows do not depend on the worker count. The first failed run, in spec
/// order, fails the study.
pub fn run_study(
    runner: &Runner,
    workloads: &[Workload],
    variants: &[(String, PolicyKind)],
    lengths: &RunSpec,
) -> Result<Vec<StudyRow>, RunError> {
    // Baselines run on a one-thread copy of the machine.
    let singles = runner.baselines(workloads, &SimConfig::baseline(1), lengths)?;
    // Workload-major, so a worker's consecutive runs mostly replay one
    // workload's traces.
    let specs: Vec<RunSpec> = workloads
        .iter()
        .flat_map(|w| {
            variants.iter().map(|(_, policy)| {
                let mut s = RunSpec::for_workload(w, policy.clone());
                s.prewarm_insts = lengths.prewarm_insts;
                s.warmup_cycles = lengths.warmup_cycles;
                s.measure_cycles = lengths.measure_cycles;
                s
            })
        })
        .collect();
    let runs = runner
        .run_all_with_workers(&specs, default_workers())
        .into_iter()
        .map(RunOutcome::into_stats)
        .collect::<Result<Vec<_>, _>>()?;
    let n = workloads.len() as f64;
    Ok(variants
        .iter()
        .enumerate()
        .map(|(v, (label, _))| {
            let (mut tput, mut hm) = (0.0, 0.0);
            for (out, singles) in runs.iter().skip(v).step_by(variants.len()).zip(&singles) {
                tput += out.throughput();
                hm += hmean(&out.ipcs(), singles);
            }
            StudyRow {
                label: label.clone(),
                throughput: tput / n,
                hmean: hm / n,
            }
        })
        .collect())
}

/// Formats a study's rows.
pub fn study_report(rows: &[StudyRow]) -> TextTable {
    let mut t = TextTable::new(&["variant", "throughput", "hmean"]);
    for r in rows {
        t.row_owned(vec![r.label.clone(), f3(r.throughput), f3(r.hmean)]);
    }
    t
}

/// Standard lengths for the figure sweeps (shorter than Table-3
/// calibration; 36 workloads × several policies must finish in minutes).
pub fn sweep_lengths() -> RunSpec {
    let mut s = RunSpec::new(&["gzip"], PolicyKind::Icount);
    s.prewarm_insts = 400_000;
    s.warmup_cycles = 30_000;
    s.measure_cycles = 250_000;
    s
}

/// Reduced lengths for the multi-point sensitivity sweeps (Figures 6/7
/// run 15 policy sweeps each).
pub fn sensitivity_lengths() -> RunSpec {
    let mut s = sweep_lengths();
    s.prewarm_insts = 300_000;
    s.warmup_cycles = 20_000;
    s.measure_cycles = 150_000;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sweep_averages_to_zero_not_nan() {
        let sweep = PolicySweep {
            policy: "EMPTY".into(),
            classes: Vec::new(),
            failures: Vec::new(),
        };
        let avg = sweep.average();
        assert_eq!(avg.throughput, 0.0);
        assert_eq!(avg.hmean, 0.0);
        assert_eq!(avg.fetch_per_commit, 0.0);
        assert_eq!(avg.mlp, 0.0);
        assert!(avg.throughput.is_finite(), "no NaN rows from empty sweeps");
    }

    #[test]
    fn missing_class_yields_guarded_zero_metrics() {
        // A partial sweep (2-thread only) queried for a 4-thread bin must
        // not panic; it renders as an all-zero bin.
        let sweep = PolicySweep {
            policy: "PARTIAL".into(),
            classes: vec![(
                2,
                WorkloadType::Mem,
                ClassMetrics {
                    throughput: 1.5,
                    hmean: 0.4,
                    fetch_per_commit: 1.2,
                    mlp: 2.0,
                },
            )],
            failures: Vec::new(),
        };
        assert!(sweep.try_class(4, WorkloadType::Ilp).is_none());
        let absent = sweep.class(4, WorkloadType::Ilp);
        assert_eq!(absent.throughput, 0.0);
        assert!(absent.hmean.is_finite());
        let present = sweep.class(2, WorkloadType::Mem);
        assert_eq!(present.throughput, 1.5);
        let avg = sweep.average();
        assert!((avg.throughput - 1.5).abs() < 1e-12);
    }

    #[test]
    fn partial_thread_sweep_has_finite_rows() {
        // Restricting thread counts produces classes with no workloads in
        // some bins of custom filters; every row must stay finite.
        let runner = Runner::new();
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 2_000;
        lengths.warmup_cycles = 200;
        lengths.measure_cycles = 1_000;
        let sweep = sweep_policy_threads(
            &runner,
            &PolicyKind::Icount,
            &SimConfig::baseline(2),
            &lengths,
            &[2],
        )
        .expect("baselines must measure");
        assert_eq!(sweep.classes.len(), 3, "three classes for one thread count");
        assert!(sweep.failures.is_empty());
        for (_, _, m) in &sweep.classes {
            assert!(m.throughput.is_finite());
            assert!(m.hmean.is_finite());
            assert!(m.fetch_per_commit.is_finite());
            assert!(m.mlp.is_finite());
        }
        assert!(sweep.average().throughput.is_finite());
    }

    #[test]
    fn pooled_sweep_matches_a_serial_reference_bit_for_bit() {
        // The sweep measures its baselines as one pooled batch and
        // dispatches 4-thread mixes first; neither may change a bit of the
        // result. The reference runs each baseline with `single_ipc` and
        // each spec with `Runner::run`, one after another in Table-4
        // order, and reduces in that order.
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 2_000;
        lengths.warmup_cycles = 200;
        lengths.measure_cycles = 1_000;
        let config = SimConfig::baseline(2);
        let policy = PolicyKind::from_name("DCRA").expect("canonical policy");
        let sweep = sweep_policy(&Runner::new(), &policy, &config, &lengths)
            .expect("baselines must measure");
        assert!(sweep.failures.is_empty());

        let serial = Runner::new();
        let workloads = table4_workloads();
        let mut expected = Vec::new();
        for threads in [2, 3, 4] {
            for kind in WorkloadType::ALL {
                let group: Vec<[f64; 4]> = workloads
                    .iter()
                    .filter(|w| w.threads() == threads && w.kind == kind)
                    .map(|w| {
                        let mut spec =
                            RunSpec::for_workload(w, policy.clone()).with_config(config.clone());
                        spec.prewarm_insts = lengths.prewarm_insts;
                        spec.warmup_cycles = lengths.warmup_cycles;
                        spec.measure_cycles = lengths.measure_cycles;
                        let out = serial.run(&spec).expect("registry benchmarks");
                        let singles = serial
                            .single_ipcs(w, &config, &lengths)
                            .expect("registry benchmarks");
                        [
                            out.throughput(),
                            hmean(&out.ipcs(), &singles),
                            out.result.total_fetched() as f64
                                / out.result.total_committed().max(1) as f64,
                            smt_metrics::workload_mlp(&out.result),
                        ]
                    })
                    .collect();
                let n = group.len() as f64;
                let mean = |f: usize| group.iter().map(|m| m[f]).sum::<f64>() / n;
                expected.push((threads, kind, [mean(0), mean(1), mean(2), mean(3)]));
            }
        }
        let got: Vec<_> = sweep
            .classes
            .iter()
            .map(|&(t, k, m)| (t, k, [m.throughput, m.hmean, m.fetch_per_commit, m.mlp]))
            .collect();
        let bits = |v: &[(usize, WorkloadType, [f64; 4])]| -> Vec<_> {
            v.iter()
                .map(|(t, k, m)| (*t, *k, m.map(f64::to_bits)))
                .collect()
        };
        assert_eq!(bits(&got), bits(&expected));
    }

    #[test]
    fn pooled_study_matches_a_serial_reference_bit_for_bit() {
        // The reference builds a fresh simulator per run and runs them one
        // after another in variant-major order, with each workload's
        // baselines from `single_ipcs`.
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 2_000;
        lengths.warmup_cycles = 200;
        lengths.measure_cycles = 1_000;
        let all = study_workloads();
        let workloads = [all[0].clone(), all[all.len() - 1].clone()];
        let zero = dcra::SharingConfig {
            queue_factor: dcra::SharingFactor::Zero,
            reg_factor: dcra::SharingFactor::Zero,
        };
        let variants = [
            (
                "C = 0".to_string(),
                PolicyKind::Dcra(dcra::DcraConfig {
                    sharing: zero,
                    ..dcra::DcraConfig::default()
                }),
            ),
            ("DCRA-DC".to_string(), PolicyKind::DcraDc),
        ];
        let rows = run_study(&Runner::new(), &workloads, &variants, &lengths)
            .expect("registry benchmarks");

        let serial = Runner::new();
        for ((label, policy), row) in variants.iter().zip(&rows) {
            let (mut tput, mut hm) = (0.0, 0.0);
            for w in &workloads {
                let profiles: Vec<_> = w
                    .benchmarks
                    .iter()
                    .map(|b| smt_workloads::spec::profile(b).expect("registry benchmark"))
                    .collect();
                let mut sim = smt_sim::Simulator::new(
                    SimConfig::baseline(w.threads()),
                    &profiles,
                    policy.build(),
                    42,
                );
                sim.prewarm(lengths.prewarm_insts);
                sim.run_cycles(lengths.warmup_cycles);
                sim.reset_stats();
                sim.run_cycles(lengths.measure_cycles);
                let r = sim.result();
                let singles = serial
                    .single_ipcs(w, sim.config(), &lengths)
                    .expect("registry benchmarks");
                tput += r.throughput();
                hm += hmean(&r.ipcs(), &singles);
            }
            let n = workloads.len() as f64;
            assert_eq!(&row.label, label);
            assert_eq!(row.throughput.to_bits(), (tput / n).to_bits(), "{label}");
            assert_eq!(row.hmean.to_bits(), (hm / n).to_bits(), "{label}");
        }
        assert_eq!(rows.len(), variants.len());
    }

    #[test]
    fn sweep_aggregates_nine_classes() {
        // Tiny lengths: structure test, not a measurement.
        let runner = Runner::new();
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 5_000;
        lengths.warmup_cycles = 500;
        lengths.measure_cycles = 2_000;
        let sweep = sweep_policy(
            &runner,
            &PolicyKind::Icount,
            &SimConfig::baseline(2),
            &lengths,
        )
        .expect("baselines must measure");
        assert_eq!(sweep.classes.len(), 9);
        assert!(sweep.failures.is_empty());
        let avg = sweep.average();
        assert!(avg.throughput > 0.0);
        let m = sweep.class(2, WorkloadType::Mem);
        assert!(m.throughput > 0.0);
    }
}
