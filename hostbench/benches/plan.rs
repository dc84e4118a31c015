//! The benchmark's workloads: which specs each one runs, at which
//! lengths, and in which order the program issues them.

use smt_experiments::sweep::sweep_lengths;
use smt_experiments::{PolicyKind, RunSpec};
use smt_sim::SimConfig;
use smt_workloads::{table4_workloads, workloads_of, Workload as Mix, WorkloadType};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 5 artefact at reduced length: `sweep_policy` for four
    /// policies over the 36 Table-4 workloads on one shared `Runner`.
    Fig5Sweep,
    /// Nine policies over the four ILP 4-thread mixes, one thread.
    KernelIlp4,
    /// Nine policies over the four MEM 4-thread mixes, one thread.
    KernelMem4,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::Fig5Sweep,
    Workload::KernelIlp4,
    Workload::KernelMem4,
];

/// `sweep_lengths()` divided by this: the Fig. 5 sweep at a twentieth of
/// its length, prewarm:warmup:measure proportions kept. Short
/// repetitions give the median many samples within one run.
const FIG5_SCALE: u64 = 20;

/// Run seeds per kernel mix, `seed × KERNEL_SEEDS + j`. The seed picks
/// the thread traces, and one seed's traces can cost the host 10-20% more
/// or less than another's; averaging several per mix keeps a change of
/// `--seed` from moving the timings as much.
const KERNEL_SEEDS: u64 = 4;

/// The nine policies, by the names `PolicyKind::from_name` accepts.
pub const NINE: [&str; 9] = [
    "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Sweep => "fig5-sweep",
            Workload::KernelIlp4 => "kernel-ilp4",
            Workload::KernelMem4 => "kernel-mem4",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The mixes the workload runs, fetched as the program fetches them.
    pub fn mixes(self) -> Vec<Mix> {
        match self {
            Workload::Fig5Sweep => table4_workloads(),
            Workload::KernelIlp4 => workloads_of(WorkloadType::Ilp, 4),
            Workload::KernelMem4 => workloads_of(WorkloadType::Mem, 4),
        }
    }
}

/// One simulation, in the order the program issues it.
#[derive(Debug, Clone)]
pub struct Run {
    pub spec: RunSpec,
    /// A single-thread Hmean baseline rather than a workload run.
    pub baseline: bool,
    /// The `SimSession` the program runs this spec on. Runs of one
    /// session share a simulator (`reset` while the configuration
    /// matches); a new session starts with `Simulator::new`.
    pub session: usize,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Prewarm/warmup/measure lengths of every run.
    pub lengths: RunSpec,
    pub policies: Vec<PolicyKind>,
    pub mixes: Vec<Mix>,
    /// The machine the runs use; each spec sets its own thread count.
    pub config: SimConfig,
    /// Worker threads the program runs the workload on.
    pub workers: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::Fig5Sweep => {
                let full = sweep_lengths();
                let mut lengths = full.clone();
                lengths.prewarm_insts = full.prewarm_insts / FIG5_SCALE;
                lengths.warmup_cycles = full.warmup_cycles / FIG5_SCALE;
                lengths.measure_cycles = full.measure_cycles / FIG5_SCALE;
                Plan {
                    workload,
                    seed,
                    lengths,
                    // The four sweeps of `fig5::run`, in its order.
                    policies: vec![
                        PolicyKind::Icount,
                        PolicyKind::DataGating,
                        PolicyKind::FlushPlusPlus,
                        PolicyKind::dcra_for_latency(300),
                    ],
                    mixes: workload.mixes(),
                    config: SimConfig::baseline(2),
                    // `sweep_policy` streams through `Runner::run_streaming`,
                    // which uses one worker per available core.
                    workers: crate::host::nproc(),
                }
            }
            Workload::KernelIlp4 | Workload::KernelMem4 => {
                let mut lengths = sweep_lengths();
                lengths.prewarm_insts = 1_000;
                lengths.warmup_cycles = 4_000;
                lengths.measure_cycles = 18_000;
                Plan {
                    workload,
                    seed,
                    lengths,
                    policies: NINE
                        .iter()
                        .map(|n| PolicyKind::from_name(n).expect("canonical policy name"))
                        .collect(),
                    mixes: workload.mixes(),
                    config: SimConfig::baseline(4),
                    workers: 1,
                }
            }
        }
    }

    fn with_lengths(&self, mut spec: RunSpec) -> RunSpec {
        spec.prewarm_insts = self.lengths.prewarm_insts;
        spec.warmup_cycles = self.lengths.warmup_cycles;
        spec.measure_cycles = self.lengths.measure_cycles;
        spec
    }

    /// The spec of `policy` on `mix`, built as `sweep_policy` builds it
    /// (seed 42, as the artefact runs).
    pub fn fig5_spec(&self, policy: &PolicyKind, mix: &Mix) -> RunSpec {
        self.with_lengths(
            RunSpec::for_workload(mix, policy.clone()).with_config(self.config.clone()),
        )
    }

    /// A kernel's specs in program order: for each of `mixes` and each
    /// of its [`KERNEL_SEEDS`] run seeds, the nine policies.
    pub fn kernel_specs(&self, mixes: &[Mix]) -> Vec<RunSpec> {
        let base = self.seed.wrapping_mul(KERNEL_SEEDS);
        let mut specs = Vec::new();
        for w in mixes {
            for seed in (0..KERNEL_SEEDS).map(|j| base.wrapping_add(j)) {
                for policy in &self.policies {
                    let mut spec = self.with_lengths(RunSpec::for_workload(w, policy.clone()));
                    spec.seed = seed;
                    specs.push(spec);
                }
            }
        }
        specs
    }

    /// Every simulation of the workload, in program order.
    ///
    /// `fig5-sweep` follows `fig5::run`: four `sweep_policy` calls in
    /// turn. The first measures the single-thread baselines
    /// (`Runner::single_ipc`, each in a fresh session; the runner caches
    /// them for the other three), then streams the 36 workload specs,
    /// built as `sweep_policy` builds them (seed 42, as the artefact
    /// runs). Each call starts new worker sessions; the list shows one
    /// worker's view, so the program's runs are the same specs, split
    /// over `workers` sessions.
    ///
    /// The kernels run the nine policies of each (mix, run seed) pair on
    /// one session.
    pub fn runs(&self) -> Vec<Run> {
        let mut runs = Vec::new();
        let mut session = 0;
        match self.workload {
            Workload::Fig5Sweep => {
                let mut measured = BTreeSet::new();
                for (i, policy) in self.policies.iter().enumerate() {
                    if i == 0 {
                        for w in &self.mixes {
                            for bench in &w.benchmarks {
                                if measured.insert(bench.clone()) {
                                    runs.push(Run {
                                        spec: self.baseline_spec(bench),
                                        baseline: true,
                                        session,
                                    });
                                    session += 1;
                                }
                            }
                        }
                    }
                    for w in &self.mixes {
                        runs.push(Run {
                            spec: self.fig5_spec(policy, w),
                            baseline: false,
                            session,
                        });
                    }
                    session += 1;
                }
            }
            Workload::KernelIlp4 | Workload::KernelMem4 => {
                let specs = self.kernel_specs(&self.mixes);
                runs.extend(specs.into_iter().enumerate().map(|(i, spec)| Run {
                    spec,
                    baseline: false,
                    session: i / self.policies.len(),
                }));
            }
        }
        runs
    }

    /// The spec `Runner::single_ipc` runs for `bench` on this plan.
    pub fn baseline_spec(&self, bench: &str) -> RunSpec {
        let mut spec = RunSpec::new(&[bench], PolicyKind::Icount);
        spec.config = self.config.clone();
        spec.config.threads = 1;
        self.with_lengths(spec)
    }

    /// FNV digest of every distinct machine configuration the plan runs.
    pub fn config_fingerprint(&self) -> u64 {
        let configs: BTreeSet<String> = self
            .runs()
            .iter()
            .map(|r| format!("{:?}", r.spec.config))
            .collect();
        let mut d = crate::report::Digest::default();
        for c in &configs {
            d.bytes(c.as_bytes());
        }
        d.finish()
    }
}
