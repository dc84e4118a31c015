//! Shared machinery for the policy comparisons. Each one is a policy
//! grid: every policy run on every workload, the baselines measured once
//! and every run submitted to one engine call
//! ([`Runner::run_all_with_workers`]), then a reduction of the returned
//! outcomes in workload order. The figures reduce per workload class (the
//! 9 ILP/MIX/MEM × 2/3/4 classes of Section 4) through
//! [`sweep_policies`]; the sensitivity figures (6 and 7) are one grid per
//! machine point, reduced to DCRA's Hmean gain; the single-table studies
//! ([`crate::ablation`], [`crate::partitioning`]) average each labelled
//! policy over [`study_workloads`] through [`run_study`].

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunSpec, Runner};
use crate::tables::{f3, pct, TextTable};
use smt_metrics::{hmean, improvement_pct};
use smt_sim::SimConfig;
use smt_workloads::{table4_workloads, workloads_of, Workload, WorkloadType};
use std::array::from_ref;
use std::cmp::Reverse;

/// Metrics of one policy on one workload, or their mean over a workload
/// class.
///
/// The all-zero `Default` doubles as the guarded "no data" value: empty
/// classes and empty sweeps aggregate to zeros, never to NaN.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassMetrics {
    /// IPC throughput (a class: the mean over its four groups).
    pub throughput: f64,
    /// Hmean of the per-thread speedups.
    pub hmean: f64,
    /// Fetched-per-committed ratio (front-end activity).
    pub fetch_per_commit: f64,
    /// Workload MLP (average overlapping L2 misses).
    pub mlp: f64,
}

/// Results of a policy over all 9 classes, in `(threads, type)` order.
#[derive(Debug, Clone)]
pub struct PolicySweep {
    /// Policy name.
    pub policy: String,
    /// `(threads, type, metrics)` rows for the 9 classes.
    pub classes: Vec<(usize, WorkloadType, ClassMetrics)>,
    /// Workloads whose run failed, as `(workload_index, error)` pairs in
    /// workload order; the index counts the swept Table-4 workloads, so
    /// for a full sweep it is the Table-4 index. Failed runs are
    /// *excluded* from the class averages above — a partial result is
    /// explicitly partial, never silently averaged in as zeros.
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
        mean(self.classes.iter().map(|(_, _, m)| m)).unwrap_or_default()
    }

    /// Unweighted average over the covered classes of one workload type
    /// (across thread counts); all zeros, never NaN, when none is covered.
    pub fn type_average(&self, kind: WorkloadType) -> ClassMetrics {
        mean(
            self.classes
                .iter()
                .filter(|(_, k, _)| *k == kind)
                .map(|(_, _, m)| m),
        )
        .unwrap_or_default()
    }
}

/// Thread counts of Table 4's workloads: a full sweep covers all three.
pub(crate) const TABLE4_THREADS: [usize; 3] = [2, 3, 4];

/// Runs `policy` over every Table-4 workload on `config` and aggregates per
/// class. `lengths` provides the seed and the prewarm/warmup/measure
/// lengths of every run and baseline.
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
    sweep_policies(runner, from_ref(policy), config, lengths, &TABLE4_THREADS).map(|[s]| s)
}

/// [`sweep_policy`] for several policies as one policy grid, over the
/// Table-4 workloads with the given thread counts. The sweeps come back in
/// `policies` order, each exactly as a separate [`sweep_policy`] call
/// would give it.
pub fn sweep_policies<const N: usize>(
    runner: &Runner,
    policies: &[PolicyKind; N],
    config: &SimConfig,
    lengths: &RunSpec,
    thread_counts: &[usize],
) -> Result<[PolicySweep; N], RunError> {
    let workloads: Vec<Workload> = table4_workloads()
        .into_iter()
        .filter(|w| thread_counts.contains(&w.threads()))
        .collect();
    let cells = run_grid(runner, policies, &workloads, config, lengths)?;
    let mut sweeps = policies.each_ref().map(|policy| PolicySweep {
        policy: policy.name().to_string(),
        classes: Vec::new(),
        failures: Vec::new(),
    });
    for (p, sweep) in sweeps.iter_mut().enumerate() {
        let column: Vec<&Result<ClassMetrics, RunError>> =
            cells.iter().skip(p).step_by(N).collect();
        sweep.failures = column
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| cell.as_ref().err().map(|e| (i, e.clone())))
            .collect();
        sweep.classes = thread_counts
            .iter()
            .flat_map(|&t| WorkloadType::ALL.iter().map(move |&k| (t, k)))
            .filter_map(|(threads, kind)| {
                let group = workloads
                    .iter()
                    .zip(&column)
                    .filter(|(w, _)| w.threads() == threads && w.kind == kind)
                    .filter_map(|(_, cell)| cell.as_ref().ok());
                // A class with no surviving workloads — partial sweeps, or
                // every member failed — is omitted entirely: no all-zero
                // placeholder silently dragging `average()` down.
                // `try_class` reports the absence, `class()` renders it as
                // an empty (zero) bin.
                mean(group).map(|m| (threads, kind, m))
            })
            .collect();
    }
    Ok(sweeps)
}

/// Every policy of a comparison on every workload, on `config` at
/// `lengths`' seed and lengths: each cell's metrics, or the error its run
/// failed with. Cells are workload-major: cell `w * policies.len() + p` is
/// `policies[p]` on `workloads[w]`. The call itself fails only when the
/// single-thread baselines cannot be measured.
#[expect(
    clippy::indexing_slicing,
    reason = "singles holds one entry per workload, and a cell index divided by the policy count is a workload index"
)]
fn run_grid(
    runner: &Runner,
    policies: &[PolicyKind],
    workloads: &[Workload],
    config: &SimConfig,
    lengths: &RunSpec,
) -> Result<Vec<Result<ClassMetrics, RunError>>, RunError> {
    // Each cell's Hmean needs its workload's baselines: one pooled batch
    // of every uncached one, cached in the runner for later calls.
    let singles = runner.baselines(workloads, config, lengths)?;
    let mut dispatch: Vec<(usize, RunSpec)> = workloads
        .iter()
        .flat_map(|w| {
            policies.iter().map(|policy| {
                RunSpec::for_workload(w, policy.clone())
                    .with_config(config.clone())
                    .with_lengths(lengths)
            })
        })
        .enumerate()
        .collect();
    // Dispatch longest-first, so the pool does not end on a few 4-thread
    // runs. The sort is stable: within a thread count a workload's
    // policies stay adjacent, so a worker's next run mostly restores the
    // prewarm state just memoised. `order[j]` is the cell of the `j`-th
    // spec dispatched; its outcome lands there, so the order changes no
    // result.
    dispatch.sort_by_key(|(_, s)| Reverse(s.benches.len()));
    let (order, specs): (Vec<usize>, Vec<RunSpec>) = dispatch.into_iter().unzip();

    // Reduce each outcome to its cell's scalars, then put the cells back
    // in workload order, the order the reductions sum them in: f64
    // addition is not associative.
    let outcomes = runner.run_all_with_workers(&specs, default_workers());
    let mut cells: Vec<(usize, Result<ClassMetrics, RunError>)> = order
        .into_iter()
        .zip(outcomes)
        .map(|(cell, outcome)| {
            let singles = &singles[cell / policies.len()];
            let metrics = outcome.into_stats().map(|out| ClassMetrics {
                throughput: out.throughput(),
                hmean: hmean(&out.ipcs(), singles),
                fetch_per_commit: out.result.total_fetched() as f64
                    / out.result.total_committed().max(1) as f64,
                mlp: smt_metrics::workload_mlp(&out.result),
            });
            (cell, metrics)
        })
        .collect();
    cells.sort_unstable_by_key(|(cell, _)| *cell);
    Ok(cells.into_iter().map(|(_, metrics)| metrics).collect())
}

/// Field-wise mean of `metrics`, summed in iteration order; `None` when
/// there are none (so no 0/0 = NaN).
fn mean<'a>(metrics: impl IntoIterator<Item = &'a ClassMetrics>) -> Option<ClassMetrics> {
    let (mut sum, mut n) = (ClassMetrics::default(), 0.0);
    for m in metrics {
        sum.throughput += m.throughput;
        sum.hmean += m.hmean;
        sum.fetch_per_commit += m.fetch_per_commit;
        sum.mlp += m.mlp;
        n += 1.0;
    }
    (n > 0.0).then(|| ClassMetrics {
        throughput: sum.throughput / n,
        hmean: sum.hmean / n,
        fetch_per_commit: sum.fetch_per_commit / n,
        mlp: sum.mlp / n,
    })
}

/// A sensitivity figure (6 or 7): for each machine point, the average
/// Hmean improvement of DCRA over ICOUNT, FLUSH++, DG and SRA (the
/// paper's column order) on the 2-thread workloads.
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    /// `(machine point, [improvement % over each baseline])`.
    pub rows: Vec<(u32, [f64; 4])>,
}

/// Runs a sensitivity figure at [`sensitivity_lengths`]: one policy grid
/// per `(point, config, dcra)` machine point, DCRA first and then the
/// four baselines, over the 2-thread Table-4 workloads.
pub(crate) fn run_sensitivity(
    runner: &Runner,
    points: impl IntoIterator<Item = (u32, SimConfig, PolicyKind)>,
) -> Result<SensitivityResult, RunError> {
    let lengths = sensitivity_lengths();
    let rows = points
        .into_iter()
        .map(|(point, config, dcra)| {
            use PolicyKind::{DataGating, FlushPlusPlus, Icount, Sra};
            let policies = [dcra, Icount, FlushPlusPlus, DataGating, Sra];
            let [dcra, baselines @ ..] =
                sweep_policies(runner, &policies, &config, &lengths, &[2])?;
            let hmean = dcra.average().hmean;
            Ok((
                point,
                baselines.map(|b| improvement_pct(hmean, b.average().hmean)),
            ))
        })
        .collect::<Result<_, RunError>>()?;
    Ok(SensitivityResult { rows })
}

/// Formats a sensitivity figure: one row per machine point, under
/// `header`, and one column per baseline.
pub fn sensitivity_report(header: &str, result: &SensitivityResult) -> TextTable {
    let mut t = TextTable::new(&[header, "vs ICOUNT", "vs FLUSH++", "vs DG", "vs SRA"]);
    for (point, imps) in &result.rows {
        let mut row = vec![point.to_string()];
        row.extend(imps.iter().map(|&imp| pct(imp)));
        t.row_owned(row);
    }
    t
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
/// `lengths`' seed and lengths, and averages each variant's throughput and
/// Hmean: one policy grid, each row summed in workload order, so the rows
/// do not depend on the worker count. The first failed run, in (workload,
/// variant) order, fails the study.
pub fn run_study(
    runner: &Runner,
    workloads: &[Workload],
    variants: &[(String, PolicyKind)],
    lengths: &RunSpec,
) -> Result<Vec<StudyRow>, RunError> {
    let policies: Vec<PolicyKind> = variants.iter().map(|(_, p)| p.clone()).collect();
    let config = SimConfig::baseline(STUDY_THREADS);
    let cells = run_grid(runner, &policies, workloads, &config, lengths)?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(variants
        .iter()
        .enumerate()
        .map(|(v, (label, _))| {
            let m = mean(cells.iter().skip(v).step_by(variants.len())).unwrap_or_default();
            StudyRow {
                label: label.clone(),
                throughput: m.throughput,
                hmean: m.hmean,
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

/// Standard lengths for the figure sweeps, and their seed:
/// [`RunSpec::new`]'s (shorter than Table-3 calibration; 36 workloads ×
/// several policies must finish in minutes). Every run and baseline
/// derived from a lengths spec takes its seed too
/// ([`RunSpec::with_lengths`]).
pub fn sweep_lengths() -> RunSpec {
    RunSpec::new(&["gzip"], PolicyKind::Icount)
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
        let lengths = tiny_lengths(42);
        let [sweep] = sweep_policies(
            &runner,
            &[PolicyKind::Icount],
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
        // order, and reduces in that order. The seed is an input: each
        // seed's sweep matches its own reference, and the two differ.
        let rows = [42, 7].map(|seed| sweep_matches_serial_reference(&tiny_lengths(seed)));
        assert_ne!(rows[0], rows[1], "seed 7 must not repeat seed 42's sweep");
    }

    /// Sweep lengths for structure tests, not measurements.
    fn tiny_lengths(seed: u64) -> RunSpec {
        RunSpec {
            seed,
            prewarm_insts: 2_000,
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ..sweep_lengths()
        }
    }

    /// Checks the DCRA sweep at `lengths` against its serial reference,
    /// bit for bit, and returns the sweep's rows as bits.
    fn sweep_matches_serial_reference(lengths: &RunSpec) -> Vec<(usize, WorkloadType, [u64; 4])> {
        let config = SimConfig::baseline(2);
        let policy = PolicyKind::from_name("DCRA").expect("canonical policy");
        let sweep = sweep_policy(&Runner::new(), &policy, &config, lengths)
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
                        spec.seed = lengths.seed;
                        spec.prewarm_insts = lengths.prewarm_insts;
                        spec.warmup_cycles = lengths.warmup_cycles;
                        spec.measure_cycles = lengths.measure_cycles;
                        let out = serial.run(&spec).expect("registry benchmarks");
                        let singles = serial
                            .single_ipcs(w, &config, lengths)
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
        assert_eq!(bits(&got), bits(&expected), "seed {}", lengths.seed);
        bits(&got)
    }

    #[test]
    fn pooled_study_matches_a_serial_reference_bit_for_bit() {
        // The reference builds a fresh simulator per run and runs them one
        // after another in variant-major order, with each workload's
        // baselines from `single_ipcs`. The seed is an input: each seed's
        // study matches its own reference, and the two differ.
        let rows = [42, 7].map(|seed| study_matches_serial_reference(&tiny_lengths(seed)));
        assert_ne!(rows[0], rows[1], "seed 7 must not repeat seed 42's study");
    }

    /// Checks a two-variant study at `lengths` against its serial
    /// reference, bit for bit, and returns each row's throughput and Hmean
    /// as bits.
    fn study_matches_serial_reference(lengths: &RunSpec) -> Vec<[u64; 2]> {
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
        let rows =
            run_study(&Runner::new(), &workloads, &variants, lengths).expect("registry benchmarks");

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
                    lengths.seed,
                );
                sim.prewarm(lengths.prewarm_insts);
                sim.run_cycles(lengths.warmup_cycles);
                sim.reset_stats();
                sim.run_cycles(lengths.measure_cycles);
                let r = sim.result();
                let singles = serial
                    .single_ipcs(w, sim.config(), lengths)
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
        rows.iter()
            .map(|r| [r.throughput.to_bits(), r.hmean.to_bits()])
            .collect()
    }

    #[test]
    fn one_grid_matches_separate_sweeps_bit_for_bit() {
        // One grid runs the three policies workload-major through one
        // engine call; each sweep must equal a separate `sweep_policy`
        // call on its own fresh runner, bit for bit, failures included.
        // Seed 7: the Fig. 5 grid test in `tests/determinism.rs` pins the
        // same at seed 42.
        let lengths = tiny_lengths(7);
        let config = SimConfig::baseline(2);
        let policies = [
            PolicyKind::Icount,
            PolicyKind::from_name("DCRA").expect("canonical policy"),
            PolicyKind::Flush,
        ];
        let grid = sweep_policies(
            &Runner::new(),
            &policies,
            &config,
            &lengths,
            &TABLE4_THREADS,
        )
        .expect("baselines must measure");
        let bits = |s: &PolicySweep| -> Vec<_> {
            s.classes
                .iter()
                .map(|(t, k, m)| {
                    let m = [m.throughput, m.hmean, m.fetch_per_commit, m.mlp];
                    (*t, *k, m.map(f64::to_bits))
                })
                .collect()
        };
        for (policy, got) in policies.iter().zip(&grid) {
            let alone = sweep_policy(&Runner::new(), policy, &config, &lengths)
                .expect("baselines must measure");
            assert_eq!(got.policy, alone.policy);
            assert_eq!(got.classes.len(), 9, "{}", got.policy);
            assert_eq!(bits(got), bits(&alone), "{}", got.policy);
            assert_eq!(got.failures, alone.failures, "{}", got.policy);
        }
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
