//! Simulation runner: builds simulators from declarative specs, runs them
//! (in parallel across OS threads, each worker owning one reusable
//! [`SimSession`]) and returns their outcomes in spec order, caches
//! single-thread baselines for the Hmean metric and memoises the
//! post-prewarm memory state of every workload it runs. The one engine
//! entry point is [`Runner::run_all_with_workers`].
//!
//! Every run executes once inside its own **fault domain**: panics are
//! caught per run ([`std::panic::catch_unwind`]), and every failure mode
//! surfaces as a typed [`RunError`] inside [`RunOutcome::Failed`] rather
//! than tearing the sweep down. See
//! `ARCHITECTURE.md`, "Fault domains & error taxonomy".

use crate::fault::{RunError, CHAOS_MARKER};
use dcra::{Dcra, DcraConfig, SharingConfig};
use smt_isa::{PerResource, ThreadId};
use smt_mem::{MemoryConfig, WarmState};
use smt_policies as pol;
use smt_sim::policy::{AnyPolicy, Policy as _};
use smt_sim::{SimConfig, SimResult, Simulator};
use smt_workloads::{spec, BenchmarkProfile, Workload};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Which policy to run. A declarative, `Clone`able stand-in for a built
/// policy so run specs can be sent across threads.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// ROUND-ROBIN fetch.
    RoundRobin,
    /// ICOUNT fetch (Tullsen et al.).
    Icount,
    /// STALL (ICOUNT + stall on detected L2 miss).
    Stall,
    /// FLUSH (ICOUNT + flush on detected L2 miss).
    Flush,
    /// FLUSH++ (adaptive STALL/FLUSH).
    FlushPlusPlus,
    /// Data Gating (stall on pending L1 data miss).
    DataGating,
    /// Predictive Data Gating.
    PredictiveDataGating,
    /// Static even partitioning of all controlled resources.
    Sra,
    /// Static partitioning with explicit per-resource caps (Figure 2).
    SraCapped(PerResource<Option<u32>>),
    /// The paper's proposal, with its sharing-factor configuration.
    Dcra(DcraConfig),
    /// DCRA with degenerate-case detection (the paper's future work), at
    /// its default configuration.
    DcraDc,
}

impl PolicyKind {
    /// The paper's name for this policy: the built policy's own
    /// [`Policy::name`](smt_sim::policy::Policy::name).
    pub fn name(&self) -> &'static str {
        self.build().name()
    }

    /// The inverse of [`PolicyKind::name`] for the nine canonical
    /// policies (case-insensitive). `DCRA` maps to the default
    /// configuration; the capped-SRA and tuned-DCRA variants have no
    /// name of their own. Shell-friendly spellings of `FLUSH++`
    /// (`FLUSHPP`, `FLUSH_PP`) are accepted too.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_uppercase().as_str() {
            "RR" => PolicyKind::RoundRobin,
            "ICOUNT" => PolicyKind::Icount,
            "STALL" => PolicyKind::Stall,
            "FLUSH" => PolicyKind::Flush,
            "FLUSH++" | "FLUSHPP" | "FLUSH_PP" => PolicyKind::FlushPlusPlus,
            "DG" => PolicyKind::DataGating,
            "PDG" => PolicyKind::PredictiveDataGating,
            "SRA" => PolicyKind::Sra,
            "DCRA" => PolicyKind::Dcra(DcraConfig::default()),
            _ => return None,
        })
    }

    /// DCRA with the sharing factors tuned for `latency` (Section 5.3).
    pub fn dcra_for_latency(latency: u32) -> Self {
        PolicyKind::Dcra(DcraConfig {
            sharing: SharingConfig::for_memory_latency(latency),
            ..DcraConfig::default()
        })
    }

    /// Instantiates the policy as a statically-dispatched [`AnyPolicy`]
    /// variant.
    pub fn build(&self) -> AnyPolicy {
        match self {
            PolicyKind::RoundRobin => smt_sim::policy::RoundRobin::default().into(),
            PolicyKind::Icount => pol::Icount.into(),
            PolicyKind::Stall => pol::Stall.into(),
            PolicyKind::Flush => pol::Flush.into(),
            PolicyKind::FlushPlusPlus => pol::FlushPlusPlus::default().into(),
            PolicyKind::DataGating => pol::DataGating.into(),
            PolicyKind::PredictiveDataGating => pol::PredictiveDataGating::default().into(),
            PolicyKind::Sra => pol::StaticAllocation::new().into(),
            PolicyKind::SraCapped(caps) => pol::StaticAllocation::with_caps(*caps).into(),
            PolicyKind::Dcra(cfg) => Dcra::new(*cfg).into(),
            PolicyKind::DcraDc => Dcra::with_degenerate_detection().into(),
        }
    }
}

/// One simulation to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark names, one per hardware thread.
    pub benches: Vec<String>,
    /// Policy to arbitrate them.
    pub policy: PolicyKind,
    /// Machine configuration (threads must equal `benches.len()`).
    pub config: SimConfig,
    /// Random seed for the trace generators. A lengths spec carries it
    /// with the three lengths, and [`RunSpec::with_lengths`] copies it
    /// into every run derived from that spec.
    pub seed: u64,
    /// Functional cache warm-up (instructions per thread).
    pub prewarm_insts: u64,
    /// Timed warm-up cycles (discarded).
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Fault injection for tests; `None` everywhere else. The run panics
    /// when its clock reaches this cycle, after the prewarm and before
    /// any pipeline stage of that cycle, and fails
    /// [`RunError::Panicked`]. A cycle at or past the end of the
    /// measurement never fires.
    pub panic_at_cycle: Option<u64>,
}

impl RunSpec {
    /// Standard measurement lengths and seed: 400k-instruction functional
    /// warm-up, 30k-cycle timed warm-up, 250k measured cycles, seed 42.
    pub fn new(benches: &[&str], policy: PolicyKind) -> Self {
        RunSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            policy,
            config: SimConfig::baseline(benches.len()),
            seed: 42,
            prewarm_insts: 400_000,
            warmup_cycles: 30_000,
            measure_cycles: 250_000,
            panic_at_cycle: None,
        }
    }

    /// Builds a spec for the benchmarks of a Table-4 workload.
    pub fn for_workload(workload: &Workload, policy: PolicyKind) -> Self {
        let names: Vec<&str> = workload.benchmarks.iter().map(|s| s.as_str()).collect();
        RunSpec::new(&names, policy)
    }

    /// Replaces the machine configuration (keeps `threads` consistent).
    pub fn with_config(mut self, mut config: SimConfig) -> Self {
        config.threads = self.benches.len();
        self.config = config;
        self
    }

    /// Takes the seed, prewarm, warm-up and measure lengths of `lengths`,
    /// the spec a sweep, study or baseline is asked to run at. The
    /// benchmarks, policy, machine and fault injection stay this spec's.
    pub fn with_lengths(mut self, lengths: &RunSpec) -> Self {
        self.seed = lengths.seed;
        self.prewarm_insts = lengths.prewarm_insts;
        self.warmup_cycles = lengths.warmup_cycles;
        self.measure_cycles = lengths.measure_cycles;
        self
    }

    fn profiles(&self) -> Result<Vec<&BenchmarkProfile>, RunError> {
        self.benches
            .iter()
            .map(|b| {
                spec::profile(b).ok_or_else(|| RunError::UnknownBenchmark { bench: b.clone() })
            })
            .collect()
    }
}

/// Statistics of one completed run: the pipeline-side result plus the
/// memory snapshot the experiments need.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Pipeline-side result (IPCs, fetch counts, MLP, ...).
    pub result: SimResult,
    /// Per-thread memory statistics (L1/L2 miss rates).
    pub mem: Vec<smt_mem::ThreadMemStats>,
}

impl RunStats {
    /// Convenience: per-thread IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.result.ipcs()
    }

    /// Convenience: IPC throughput.
    pub fn throughput(&self) -> f64 {
        self.result.throughput()
    }
}

/// What became of one run inside the fault-isolated engine: either the
/// statistics of a completed run or the typed error it failed with.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run completed and produced statistics.
    Completed(RunStats),
    /// The run failed.
    Failed(RunError),
}

impl RunOutcome {
    /// The statistics, if the run completed.
    pub fn stats(&self) -> Option<&RunStats> {
        match self {
            RunOutcome::Completed(stats) => Some(stats),
            RunOutcome::Failed(_) => None,
        }
    }

    /// The error, if the run failed.
    pub fn error(&self) -> Option<&RunError> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Failed(error) => Some(error),
        }
    }

    /// `true` if the run completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }

    /// Unwraps into `Result`.
    pub fn into_stats(self) -> Result<RunStats, RunError> {
        match self {
            RunOutcome::Completed(stats) => Ok(stats),
            RunOutcome::Failed(error) => Err(error),
        }
    }
}

/// A reusable simulation session: owns one [`Simulator`] and replays run
/// specs through it.
///
/// A sweep issues hundreds of short runs; building a fresh simulator for
/// each one reallocates the instruction windows, cache tag arrays, event
/// wheel and predictor tables every time. A session instead calls
/// [`Simulator::reset`] whenever the next spec shares the previous spec's
/// machine configuration — trace generators and policy are re-seeded in
/// place, every allocation is retained, and the run is bit-identical to a
/// fresh simulator (guaranteed by the `reset` contract and pinned by the
/// session-equality test in `tests/determinism.rs`).
///
/// # Examples
///
/// ```
/// use smt_experiments::{PolicyKind, RunSpec, SimSession};
///
/// let mut session = SimSession::new();
/// let mut spec = RunSpec::new(&["gzip"], PolicyKind::Icount);
/// spec.prewarm_insts = 10_000;
/// spec.warmup_cycles = 1_000;
/// spec.measure_cycles = 5_000;
/// let first = session.run(&spec).expect("valid spec");   // builds the simulator
/// let second = session.run(&spec).expect("valid spec");  // reuses it in place
/// assert_eq!(first.result, second.result);
/// ```
#[derive(Debug, Default)]
pub struct SimSession {
    sim: Option<Simulator>,
}

impl SimSession {
    /// Creates an empty session; the first run builds its simulator.
    pub fn new() -> Self {
        SimSession::default()
    }

    /// Runs one spec to completion, reusing the owned simulator when the
    /// machine configuration matches.
    ///
    /// Unknown benchmarks, invalid machine configurations
    /// ([`SimConfig::validate`] — a hard check that holds in release
    /// builds, so e.g. a >8-thread config fails loudly here instead of
    /// corrupting issue ordering downstream),
    /// and a thread count that differs from the number of benchmarks come
    /// back as typed [`RunError`]s. Panics from
    /// policy or simulator code propagate — one-shot callers that need
    /// containment go through the [`Runner`] engine instead, which wraps
    /// each run in [`std::panic::catch_unwind`].
    ///
    /// The simulator's trace stores retain what the run generates, so a
    /// later run of the same workload on this session replays it instead
    /// of regenerating.
    pub fn run(&mut self, spec: &RunSpec) -> Result<RunStats, RunError> {
        self.run_with(spec, None, true)
    }

    /// [`SimSession::run`], with the prewarm going through `memo` when
    /// there is one, and the traces streamed
    /// ([`Simulator::stream_traces`]) unless `retain`.
    fn run_with(
        &mut self,
        spec: &RunSpec,
        memo: Option<&PrewarmMemo>,
        retain: bool,
    ) -> Result<RunStats, RunError> {
        spec.config
            .validate()
            .map_err(|e| RunError::InvalidSpec { message: e })?;
        let (threads, benches) = (spec.config.threads, spec.benches.len());
        if threads != benches {
            let message = format!("{threads} threads for {benches} benchmarks");
            return Err(RunError::InvalidSpec { message });
        }
        let profiles = spec.profiles()?;
        let policy = spec.policy.build();
        let sim = match &mut self.sim {
            Some(sim) if sim.config() == &spec.config => {
                sim.reset(&profiles, policy, spec.seed);
                sim
            }
            slot => slot.insert(Simulator::new(
                spec.config.clone(),
                &profiles,
                policy,
                spec.seed,
            )),
        };
        if !retain {
            sim.stream_traces();
        }
        match memo {
            Some(memo) => memo.prewarm(sim, spec),
            None => sim.prewarm(spec.prewarm_insts),
        }
        if let Some(at_cycle) = spec.panic_at_cycle {
            if at_cycle < spec.warmup_cycles.saturating_add(spec.measure_cycles) {
                // The loop's end clamps fast-forward, so the clock stops
                // at exactly `at_cycle`, between two cycles.
                sim.run_cycles(at_cycle);
                detonate(spec.policy.name(), sim.now());
            }
        }
        sim.run_cycles(spec.warmup_cycles);
        sim.reset_stats();
        sim.run_cycles(spec.measure_cycles);
        let mem = (0..spec.benches.len())
            .map(|i| sim.memory().thread_stats(ThreadId::new(i)))
            .collect();
        Ok(RunStats {
            result: sim.result(),
            mem,
        })
    }
}

/// Raises the panic of [`RunSpec::panic_at_cycle`], naming the thread it
/// runs on.
#[expect(
    clippy::panic,
    reason = "deliberate fault injection: the panic is the injected fault, contained by the runner's catch_unwind fault domain"
)]
fn detonate(policy: &str, now: u64) -> ! {
    let thread = std::thread::current().id();
    panic!("{CHAOS_MARKER}: policy {policy} detonated at cycle {now} on {thread:?}")
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Everything [`Simulator::prewarm`] reads: each thread's benchmark
/// (which names one registry profile), the run seed, the memory
/// configuration and the prewarm length. The policy and the core's sizes
/// are not part of it: a policy sweep, or a register sweep over one
/// workload, shares one entry.
#[derive(Debug)]
struct PrewarmKey {
    seed: u64,
    insts: u64,
    mem: MemoryConfig,
    benches: Vec<String>,
}

impl PrewarmKey {
    fn matches(&self, spec: &RunSpec) -> bool {
        self.seed == spec.seed
            && self.insts == spec.prewarm_insts
            && self.mem == spec.config.mem
            && self.benches == spec.benches
    }
}

/// One memo entry: the key's [`WarmState`] once its first prewarm has
/// captured it. Published empty on the first miss, so a run that misses
/// the same key meanwhile waits for that prewarm instead of repeating it.
type WarmCell = Arc<OnceLock<WarmState>>;

/// The runner's memo of post-prewarm memory states, one compact
/// [`WarmState`] per distinct [`PrewarmKey`]. Exact: a restored run is
/// bit-identical to one that prewarmed (see
/// [`MemoryHierarchy::restore_warm`](smt_mem::MemoryHierarchy::restore_warm)).
/// It grows by one entry per key and is never evicted.
#[derive(Debug, Default)]
struct PrewarmMemo {
    entries: Mutex<Vec<(PrewarmKey, WarmCell)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PrewarmMemo {
    /// Leaves `sim`, just built or reset onto `spec`, as
    /// `sim.prewarm(spec.prewarm_insts)` would: restored from the memo on
    /// a hit, prewarmed and captured on a miss. Single-flight: a run that
    /// finds its key's prewarm in flight on another worker waits for it
    /// and restores, a hit. If that prewarm panics, its cell stays empty
    /// and one waiter prewarms in its place.
    fn prewarm(&self, sim: &mut Simulator, spec: &RunSpec) {
        let cell = self.entry(spec);
        let mut missed = false;
        let warm = cell.get_or_init(|| {
            missed = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            sim.prewarm(spec.prewarm_insts);
            sim.warm_state()
        });
        if !missed {
            self.hits.fetch_add(1, Ordering::Relaxed);
            sim.restore_warm(warm);
        }
    }

    /// `spec`'s entry, published empty if it has none yet.
    fn entry(&self, spec: &RunSpec) -> WarmCell {
        let mut entries = self.lock();
        if let Some((_, cell)) = entries.iter().find(|(k, _)| k.matches(spec)) {
            return Arc::clone(cell);
        }
        let key = PrewarmKey {
            seed: spec.seed,
            insts: spec.prewarm_insts,
            mem: spec.config.mem.clone(),
            benches: spec.benches.clone(),
        };
        let cell = WarmCell::default();
        entries.push((key, Arc::clone(&cell)));
        cell
    }

    /// Every update is one `push` of a complete entry, so a poisoned lock
    /// still guards a valid list.
    fn lock(&self) -> MutexGuard<'_, Vec<(PrewarmKey, WarmCell)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs `spec` once on `session` under the engine's fault domain: the run
/// is wrapped in `catch_unwind`, and a caught panic discards the (possibly
/// corrupt) simulator. The prewarm goes through `memo`; the traces are
/// retained only if `retain`.
fn execute(
    session: &mut SimSession,
    spec: &RunSpec,
    memo: &PrewarmMemo,
    retain: bool,
) -> RunOutcome {
    match catch_unwind(AssertUnwindSafe(|| {
        session.run_with(spec, Some(memo), retain)
    })) {
        Ok(Ok(stats)) => RunOutcome::Completed(stats),
        Ok(Err(error)) => RunOutcome::Failed(error),
        Err(payload) => {
            // The unwound simulator may hold arbitrary state; discard it
            // so the next run on this worker starts clean.
            *session = SimSession::new();
            RunOutcome::Failed(RunError::Panicked {
                message: panic_message(payload),
            })
        }
    }
}

/// The drivers' worker count: the host's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Executes run specs and caches single-thread baseline IPCs.
///
/// # Examples
///
/// ```
/// use smt_experiments::{PolicyKind, Runner, RunSpec};
///
/// let runner = Runner::new();
/// let mut spec = RunSpec::new(&["gzip"], PolicyKind::Icount);
/// spec.prewarm_insts = 10_000; // tiny run for the example
/// spec.warmup_cycles = 1_000;
/// spec.measure_cycles = 5_000;
/// let out = runner.run(&spec).expect("valid spec");
/// assert!(out.throughput() > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct Runner {
    /// Single-thread baseline IPCs, each with the run that measured it
    /// ([`baseline_spec`]), looked up by `==` on that whole run: a linear
    /// scan, as the prewarm memo's, over at most a few dozen entries. Two
    /// callers that miss one run at once both push it, with the same
    /// value; a lookup takes the first.
    baselines: Mutex<Vec<(RunSpec, f64)>>,
    prewarm_memo: PrewarmMemo,
}

impl Runner {
    /// Creates a runner with an empty baseline cache and prewarm memo.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Runs one spec to completion in a one-shot session, which nothing
    /// replays, so its traces stream. Spec-level failures come back as
    /// [`RunError`]; panics propagate (use
    /// [`Runner::run_all_with_workers`] for panic containment).
    pub fn run(&self, spec: &RunSpec) -> Result<RunStats, RunError> {
        SimSession::new().run_with(spec, None, false)
    }

    /// The engine: runs each of `specs` once on `workers` threads fed from
    /// a shared work queue and returns every outcome, completed or failed,
    /// in spec order. The calling thread is one of the workers: the engine
    /// spawns `workers - 1` threads, so with `workers == 1` every run
    /// happens on the caller.
    ///
    /// Every worker owns one [`SimSession`], so consecutive specs with the
    /// same machine configuration reuse a simulator instead of building
    /// one per run — the dominant setup cost of the paper-scale sweeps.
    /// Every run's prewarm goes through the runner's prewarm memo, so a
    /// workload is prewarmed once per runner, whichever policy, worker or
    /// call runs it (see [`Runner::prewarm_memo_stats`]). A run's trace
    /// stores retain what it generates only if a later spec of `specs`
    /// has the same benchmarks, seed and machine configuration, the key
    /// a worker's next run replays retained blocks on; every other run
    /// streams its traces through the stores' lookback rings
    /// ([`Simulator::stream_traces`]).
    /// The outcomes are identical to sequential fresh-simulator runs for
    /// every `workers >= 1`.
    ///
    /// A panicking run (policy bug, corrupt spec, injected fault) is
    /// caught on its worker: the worker's simulator is discarded, the
    /// queue keeps draining, and the panic comes back as
    /// [`RunError::Panicked`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (with specs pending).
    pub fn run_all_with_workers(&self, specs: &[RunSpec], workers: usize) -> Vec<RunOutcome> {
        self.run_pool(specs, workers).0
    }

    /// [`Runner::run_all_with_workers`], also returning the trace blocks
    /// each worker session retains at the end of the call
    /// ([`Simulator::retained_trace_blocks`]).
    fn run_pool(&self, specs: &[RunSpec], workers: usize) -> (Vec<RunOutcome>, Vec<usize>) {
        if specs.is_empty() {
            return (Vec::new(), Vec::new());
        }
        assert!(workers > 0, "need at least one worker");
        // Keep a run's traces only for a later run that can replay them.
        let retain: Vec<bool> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                specs
                    .iter()
                    .skip(i + 1)
                    .any(|later| same_traces(spec, later))
            })
            .collect();

        let next = AtomicUsize::new(0);
        let work = || {
            let mut session = SimSession::new();
            let mut outcomes = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (Some(spec), Some(&retain)) = (specs.get(i), retain.get(i)) else {
                    break;
                };
                outcomes.push((i, execute(&mut session, spec, &self.prewarm_memo, retain)));
            }
            let retained = session
                .sim
                .as_ref()
                .map_or(0, Simulator::retained_trace_blocks);
            (outcomes, retained)
        };
        // The calling thread is the last worker: it would otherwise sit
        // blocked in the join, and simulating on it keeps its heap warm
        // for the caller's own simulations after the call.
        let finished = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers.min(specs.len()))
                .map(|_| scope.spawn(work))
                .collect();
            let mut finished = vec![work()];
            for handle in spawned {
                finished.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            finished
        });

        // The queue hands out each index once, so sorting the pairs by
        // index puts exactly one outcome per spec in spec order.
        let (mut indexed, mut retained) = (Vec::with_capacity(specs.len()), Vec::new());
        for (outcomes, blocks) in finished {
            indexed.extend(outcomes);
            retained.push(blocks);
        }
        indexed.sort_unstable_by_key(|&(i, _)| i);
        (indexed.into_iter().map(|(_, o)| o).collect(), retained)
    }

    /// Single-thread baseline IPC of `bench` on `config` (ICOUNT, full
    /// machine) at the seed and lengths `lengths` carries, cached per
    /// baseline run: the benchmark, the complete one-thread machine
    /// config, the seed and the three lengths. An uncached baseline is
    /// measured through the engine on the calling thread, as
    /// [`Runner::baselines`] measures many.
    pub fn single_ipc(
        &self,
        bench: &str,
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<f64, RunError> {
        // One benchmark, so one value.
        Ok(self
            .baseline_ipcs([bench], config, lengths, 1)?
            .into_iter()
            .sum())
    }

    /// Single-thread baselines for every benchmark of a workload, the
    /// uncached ones measured through the engine on the calling thread.
    pub fn single_ipcs(
        &self,
        workload: &Workload,
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<Vec<f64>, RunError> {
        self.baseline_ipcs(&workload.benchmarks, config, lengths, 1)
    }

    /// [`Runner::single_ipcs`] for each of `workloads`, with every
    /// uncached baseline measured in one batch on the worker pool.
    pub fn baselines(
        &self,
        workloads: &[Workload],
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<Vec<Vec<f64>>, RunError> {
        let benches = workloads.iter().flat_map(|w| &w.benchmarks);
        let mut ipcs = self
            .baseline_ipcs(benches, config, lengths, default_workers())?
            .into_iter();
        Ok(workloads
            .iter()
            .map(|w| ipcs.by_ref().take(w.benchmarks.len()).collect())
            .collect())
    }

    /// The one baseline path: the baseline IPC of each of `benches`, in
    /// order. Every uncached one is measured in one engine call on
    /// `workers` threads (each distinct benchmark once, its prewarm
    /// through the memo, panics contained) and lands in the cache. A
    /// baseline that fails comes back as its typed [`RunError`]: the first
    /// in `benches` order. The per-workload lookups pass one worker, so
    /// they hold one simulator at a time: pooling a batch of a workload's
    /// few baselines gains little, and it raised the kernel host
    /// benchmarks' peak RSS by 12%.
    #[expect(
        clippy::expect_used,
        reason = "every key was cached before the batch or measured by it, and a failed measurement returned early; a hole is a bug worth aborting on"
    )]
    fn baseline_ipcs(
        &self,
        benches: impl IntoIterator<Item = impl AsRef<str>>,
        config: &SimConfig,
        lengths: &RunSpec,
        workers: usize,
    ) -> Result<Vec<f64>, RunError> {
        let (mut wanted, mut uncached) = (Vec::new(), Vec::new());
        for bench in benches {
            let spec = baseline_spec(bench.as_ref(), config, lengths);
            if !uncached.contains(&spec) && self.cached(&spec).is_none() {
                uncached.push(spec.clone());
            }
            wanted.push(spec);
        }
        let outcomes = self.run_all_with_workers(&uncached, workers);
        let mut first_error = None;
        for (spec, outcome) in uncached.into_iter().zip(outcomes) {
            match outcome.into_stats() {
                Ok(stats) => self
                    .baselines
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((spec, stats.throughput())),
                Err(error) => {
                    first_error.get_or_insert(error);
                }
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }
        Ok(wanted
            .iter()
            .map(|spec| self.cached(spec).expect("measured or cached"))
            .collect())
    }

    /// The prewarm memo's counters: `(hits, misses, bytes)`. Every engine
    /// run that reaches its prewarm counts once, as a hit (the memoised
    /// state was restored, after waiting for the key's prewarm if it was
    /// in flight) or a miss (it prewarmed and captured the state). `bytes`
    /// is the sum of the memoised states' [`WarmState::bytes`]. Misses
    /// count the distinct keys run, whatever the worker count, unless a
    /// prewarm panicked.
    pub fn prewarm_memo_stats(&self) -> (u64, u64, usize) {
        let memo = &self.prewarm_memo;
        let bytes = memo
            .lock()
            .iter()
            .map(|(_, warm)| warm.get().map_or(0, WarmState::bytes))
            .sum();
        (
            memo.hits.load(Ordering::Relaxed),
            memo.misses.load(Ordering::Relaxed),
            bytes,
        )
    }

    /// The cached IPC of the baseline run `spec`. Every update is one
    /// `push` of a complete entry, so a poisoned lock still guards a valid
    /// list.
    fn cached(&self, spec: &RunSpec) -> Option<f64> {
        self.baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|(run, _)| run == spec)
            .map(|&(_, ipc)| ipc)
    }
}

/// Whether `a` and `b` bind the same traces: a worker session resets onto
/// `b` after `a` (same machine configuration) and every thread store
/// rebinds to its own key (same benchmarks and seed).
fn same_traces(a: &RunSpec, b: &RunSpec) -> bool {
    a.seed == b.seed && a.benches == b.benches && a.config == b.config
}

/// The run that measures `bench`'s single-thread baseline: ICOUNT on a
/// one-thread copy of `config`, at `lengths`' seed and lengths. The
/// baseline cache is keyed by this whole run.
fn baseline_spec(bench: &str, config: &SimConfig, lengths: &RunSpec) -> RunSpec {
    RunSpec::new(&[bench], PolicyKind::Icount)
        .with_config(config.clone())
        .with_lengths(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(benches: &[&str], policy: PolicyKind) -> RunSpec {
        let mut s = RunSpec::new(benches, policy);
        s.prewarm_insts = 20_000;
        s.warmup_cycles = 2_000;
        s.measure_cycles = 10_000;
        s
    }

    #[test]
    fn dcra_dc_is_statically_dispatched() {
        assert!(matches!(PolicyKind::DcraDc.build(), AnyPolicy::Dcra(_)));
    }

    #[test]
    fn canonical_names_round_trip() {
        for name in [
            "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
        ] {
            let kind = PolicyKind::from_name(name)
                .unwrap_or_else(|| panic!("canonical policy {name} must parse"));
            assert_eq!(kind.name(), name, "name ↔ kind round trip");
        }
        assert!(PolicyKind::from_name("NOPE").is_none());
    }

    #[test]
    fn shell_friendly_flushpp_aliases() {
        for alias in ["FLUSHPP", "FLUSH_PP", "flushpp", "flush_pp", "FLUSH++"] {
            assert_eq!(
                PolicyKind::from_name(alias),
                Some(PolicyKind::FlushPlusPlus),
                "{alias} should parse as FLUSH++"
            );
        }
    }

    #[test]
    fn session_rejects_oversized_thread_configs() {
        // Release builds must refuse >MAX_THREADS configs with a clear
        // error: the ready-key packing (`seq << 3 | tid`) assumes tid < 8
        // and only debug-asserts it on the hot path.
        let mut spec = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        spec.config.threads = smt_isa::ThreadId::MAX_THREADS + 1;
        spec.config.phys_regs = u32::MAX;
        assert!(matches!(
            SimSession::new().run(&spec),
            Err(RunError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn thread_count_must_match_the_benchmark_list() {
        // `config.threads` and `benches` are both public; a mismatch
        // would otherwise pass `validate` and panic building the
        // simulator.
        let mut spec = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        spec.config.threads = 1;
        match SimSession::new().run(&spec) {
            Err(RunError::InvalidSpec { message }) => {
                assert!(message.contains("1 threads"), "{message}");
                assert!(message.contains("2 benchmarks"), "{message}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        let outcomes = Runner::new().run_all_with_workers(&[spec], 1);
        assert!(
            matches!(
                outcomes.as_slice(),
                [RunOutcome::Failed(RunError::InvalidSpec { .. })]
            ),
            "through the engine: {outcomes:?}"
        );
    }

    #[test]
    fn session_rejects_zero_sized_queues() {
        // Each of these would otherwise panic building the simulator.
        let breakers: [fn(&mut SimConfig); 6] = [
            |c| c.fetch_queue = 0,
            |c| c.mem.dl1.ways = 0,
            |c| c.mem.l2.ways = usize::MAX,
            |c| c.mem.l2.line_bytes = 48,
            |c| c.mem.dtlb_entries = 0,
            |c| c.bpred.btb_ways = 0,
        ];
        for (i, breaker) in breakers.iter().enumerate() {
            let mut spec = tiny(&["gzip"], PolicyKind::Icount);
            breaker(&mut spec.config);
            assert!(
                matches!(
                    SimSession::new().run(&spec),
                    Err(RunError::InvalidSpec { .. })
                ),
                "breaker {i}"
            );
        }
    }

    #[test]
    fn session_reports_unknown_benchmarks() {
        let spec = tiny(&["gzip", "no-such-bench"], PolicyKind::Icount);
        match SimSession::new().run(&spec) {
            Err(RunError::UnknownBenchmark { bench }) => assert_eq!(bench, "no-such-bench"),
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
    }

    #[test]
    fn run_produces_progress() {
        let r = Runner::new();
        let out = r
            .run(&tiny(&["gzip", "twolf"], PolicyKind::Icount))
            .expect("valid spec");
        assert!(out.throughput() > 0.1);
        assert_eq!(out.mem.len(), 2);
    }

    #[test]
    fn run_all_matches_individual_runs() {
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["twolf"], PolicyKind::Dcra(DcraConfig::default())),
        ];
        let batch = r.run_all_with_workers(&specs, 2);
        for (outcome, spec) in batch.iter().zip(&specs) {
            let solo = r.run(spec).expect("valid spec");
            let stats = outcome.stats().expect("valid spec");
            assert_eq!(
                stats.result, solo.result,
                "parallel run must be deterministic"
            );
        }
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_runs() {
        // One session runs a mixed queue of same-config specs back to
        // back; every outcome must match a fresh one-shot session.
        let specs = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["art", "gcc"], PolicyKind::Dcra(DcraConfig::default())),
            tiny(&["twolf", "swim"], PolicyKind::Flush),
        ];
        let mut session = SimSession::new();
        for spec in &specs {
            let reused = session.run(spec).expect("valid spec");
            let fresh = SimSession::new().run(spec).expect("valid spec");
            assert_eq!(reused.result, fresh.result, "session reuse drifted");
            assert_eq!(reused.mem, fresh.mem);
        }
    }

    #[test]
    fn outcomes_match_for_any_worker_count_and_one_worker_is_the_caller() {
        let reseeded = RunSpec {
            seed: 7,
            ..tiny(&["mcf", "art"], PolicyKind::Dcra(DcraConfig::default()))
        };
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf", "art"], PolicyKind::Dcra(DcraConfig::default())),
            tiny(&["twolf", "gcc", "swim"], PolicyKind::Flush),
            tiny(&["vpr"], PolicyKind::Stall),
            reseeded,
        ];
        let r = Runner::new();
        let reference = r.run_all_with_workers(&specs, 1);
        assert_ne!(reference[1], reference[4], "the seed is an input");
        assert!(reference.iter().all(RunOutcome::is_completed));
        for workers in [2, 3] {
            assert_eq!(
                r.run_all_with_workers(&specs, workers),
                reference,
                "outcomes differ with {workers} workers"
            );
        }
        // One worker spawns no thread: an injected panic names the thread
        // it ran on, and that is the caller.
        crate::fault::silence_chaos_panics();
        let fused = RunSpec {
            panic_at_cycle: Some(64),
            ..specs[0].clone()
        };
        let caller = format!("{:?}", std::thread::current().id());
        match r.run_all_with_workers(&[fused], 1).as_slice() {
            [RunOutcome::Failed(RunError::Panicked { message })] => {
                assert!(message.ends_with(&format!("on {caller}")), "{message}")
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
    }

    #[test]
    fn failed_runs_do_not_poison_their_worker_session() {
        // A faulted run sandwiched between good runs must leave its worker
        // fully functional, and the good runs
        // bit-identical to a clean batch. The faulted run panics after its
        // prewarm, so the fault-free copy that follows it restores the
        // memo entry the panicked run captured; that run must be exact too.
        crate::fault::silence_chaos_panics();
        let good = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["art", "gcc"], PolicyKind::Flush),
        ];
        let mut bad = tiny(&["twolf", "swim"], PolicyKind::Stall);
        let after_bad = bad.clone();
        bad.panic_at_cycle = Some(64);
        let specs = vec![good[0].clone(), bad, good[1].clone(), after_bad.clone()];
        let r = Runner::new();
        let outcomes = r.run_all_with_workers(&specs, 1);
        match &outcomes[1] {
            RunOutcome::Failed(RunError::Panicked { message }) => {
                assert!(message.contains("chaos-injected"), "{message}")
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        let (hits, misses, _) = r.prewarm_memo_stats();
        assert_eq!((hits, misses), (1, 3), "the fault-free copy is a memo hit");
        for (i, spec) in [(0usize, &good[0]), (2, &good[1]), (3, &after_bad)] {
            let clean = r.run(spec).expect("valid spec");
            let stats = outcomes[i].stats().expect("good run completed");
            assert_eq!(stats.result, clean.result, "spec {i} contaminated");
            assert_eq!(stats.mem, clean.mem);
        }
    }

    #[test]
    fn injected_panics_land_on_their_cycle() {
        // The fuse is never skipped by fast-forward, and a fuse past the
        // end of the run never fires.
        crate::fault::silence_chaos_panics();
        let clean = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        let fused = |at_cycle| RunSpec {
            panic_at_cycle: Some(at_cycle),
            ..clean.clone()
        };
        let past_end = fused(clean.warmup_cycles + clean.measure_cycles);
        let specs = [fused(64), past_end];
        let outcomes = Runner::new().run_all_with_workers(&specs, 1);
        match &outcomes[0] {
            RunOutcome::Failed(RunError::Panicked { message }) => {
                assert!(message.contains(CHAOS_MARKER), "{message}");
                assert!(message.contains("at cycle 64"), "{message}");
            }
            other => panic!("expected a panic at cycle 64, got {other:?}"),
        }
        let fresh = SimSession::new().run(&clean).expect("valid spec");
        let stats = outcomes[1]
            .stats()
            .expect("a fuse past the run never fires");
        assert_eq!(stats.result, fresh.result);
        assert_eq!(stats.mem, fresh.mem);
    }

    /// Runs `specs` through the engine and checks every outcome against a
    /// fresh `SimSession::run`, bit for bit; returns the trace blocks each
    /// worker session retains at the end of the call.
    fn engine_matches_fresh_sessions(specs: &[RunSpec], workers: usize) -> Vec<usize> {
        let (outcomes, retained) = Runner::new().run_pool(specs, workers);
        assert_eq!(outcomes.len(), specs.len());
        for (i, (outcome, spec)) in outcomes.iter().zip(specs).enumerate() {
            let stats = outcome.stats().expect("completed");
            let fresh = SimSession::new().run(spec).expect("valid spec");
            assert_eq!(stats.result, fresh.result, "spec {i}");
            assert_eq!(stats.mem, fresh.mem, "spec {i}");
        }
        retained
    }

    #[test]
    fn an_engine_call_without_a_repeat_retains_no_trace() {
        // Each spec differs from every other in its benchmarks, seed or
        // machine configuration, so no run can replay another's traces.
        let mut reseeded = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        reseeded.seed = 7;
        let mut bigger_rob = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        bigger_rob.config.rob_entries += 64;
        let specs = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["art", "gcc"], PolicyKind::Flush),
            reseeded,
            bigger_rob,
            tiny(&["twolf"], PolicyKind::Stall),
        ];
        for workers in [1, 2] {
            let retained = engine_matches_fresh_sessions(&specs, workers);
            assert_eq!(retained, vec![0; workers], "{workers} workers");
        }
    }

    #[test]
    fn a_policy_grid_on_one_worker_still_replays() {
        // The first cell's traces are kept for the second, which rebinds
        // onto them; streaming that last cell keeps what it replayed.
        let specs = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["gzip", "mcf"], PolicyKind::Dcra(DcraConfig::default())),
        ];
        let retained = engine_matches_fresh_sessions(&specs, 1);
        assert!(retained[0] > 0, "the grid retained nothing: {retained:?}");
    }

    #[test]
    fn a_panicking_prewarm_does_not_wedge_the_run_waiting_on_it() {
        // One thread holds the key's prewarm in flight and panics inside
        // it; the run that waited on it prewarms in its place.
        crate::fault::silence_chaos_panics();
        let spec = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        let memo = PrewarmMemo::default();
        let in_flight = std::sync::Barrier::new(2);
        let build = || {
            let profiles = spec.profiles().expect("registry benchmarks");
            Simulator::new(
                spec.config.clone(),
                &profiles,
                spec.policy.build(),
                spec.seed,
            )
        };
        let mut sim = build();
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                let cell = memo.entry(&spec);
                cell.get_or_init(|| {
                    in_flight.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("chaos-injected prewarm panic");
                });
            });
            in_flight.wait();
            memo.prewarm(&mut sim, &spec);
            assert!(panicker.join().is_err(), "the prewarm panicked");
        });
        let mut fresh = build();
        fresh.prewarm(spec.prewarm_insts);
        assert_eq!(sim.warm_state(), fresh.warm_state());
        assert_eq!(memo.entry(&spec).get(), Some(&fresh.warm_state()));
        assert_eq!(memo.misses.load(Ordering::Relaxed), 1);
        assert_eq!(memo.hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_run_that_never_commits_completes_its_window() {
        // Zero caps on every resource refuse every dispatch, so nothing
        // ever commits; the run still ends at its cycle count, however
        // long, with its (empty) statistics.
        let mut spec = RunSpec::new(
            &["gzip", "mcf"],
            PolicyKind::SraCapped(PerResource::filled(Some(0))),
        );
        spec.measure_cycles = 1_100_000;
        let outcomes = Runner::new().run_all_with_workers(&[spec], 1);
        let stats = outcomes[0].stats().expect("the run completes");
        assert_eq!(stats.result.cycles, 1_100_000);
        for (t, thread) in stats.result.threads.iter().enumerate() {
            assert_eq!(thread.committed, 0, "thread {t} committed");
        }
    }

    #[test]
    fn baseline_cache_hits() {
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let cfg = SimConfig::baseline(1);
        let a = r.single_ipc("gzip", &cfg, &lengths).expect("known bench");
        let b = r.single_ipc("gzip", &cfg, &lengths).expect("known bench");
        assert_eq!(a, b);
        assert!(a > 0.5);
    }

    #[test]
    fn baseline_lookup_reports_unknown_benchmarks() {
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        assert!(matches!(
            r.single_ipc("no-such-bench", &SimConfig::baseline(1), &lengths),
            Err(RunError::UnknownBenchmark { .. })
        ));
    }

    /// Pooled `baselines`, `single_ipcs` and `single_ipc` all go through
    /// the one engine path, and each value is bit for bit what
    /// `Runner::run` gives for the baseline spec.
    #[test]
    fn pooled_baselines_match_single_ipc_and_fill_the_cache() {
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let cfg = SimConfig::baseline(2);
        let workloads: Vec<Workload> = smt_workloads::table4_workloads()
            .into_iter()
            .filter(|w| w.threads() == 2)
            .take(4) // gcc runs in two of these
            .collect();
        let pooled = Runner::new();
        let got = pooled
            .baselines(&workloads, &cfg, &lengths)
            .expect("registry benchmarks");
        let reference = Runner::new();
        let one_by_one = Runner::new();
        for (w, ipcs) in workloads.iter().zip(&got) {
            let expected: Vec<u64> = w
                .benchmarks
                .iter()
                .map(|b| {
                    let spec = baseline_spec(b, &cfg, &lengths);
                    let stats = reference.run(&spec).expect("registry benchmark");
                    stats.throughput().to_bits()
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ipcs), expected, "{w}");
            let singles = one_by_one
                .single_ipcs(w, &cfg, &lengths)
                .expect("known benches");
            assert_eq!(bits(&singles), expected, "{w}: single_ipcs");
            let first = pooled
                .single_ipc(&w.benchmarks[0], &cfg, &lengths)
                .expect("cached");
            assert_eq!(first.to_bits(), expected[0], "{w}: single_ipc");
        }
        let cache = pooled.baselines.lock().expect("not poisoned");
        let distinct: std::collections::BTreeSet<&String> =
            workloads.iter().flat_map(|w| &w.benchmarks).collect();
        assert_eq!(cache.len(), distinct.len(), "one cached run per benchmark");
    }

    /// An uncached `single_ipc` is one engine run: its prewarm goes
    /// through the memo (one miss, and a cached repeat runs nothing), and
    /// an invalid machine comes back typed.
    #[test]
    fn an_uncached_single_ipc_runs_once_through_the_engine() {
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let cfg = SimConfig::baseline(1);
        r.single_ipc("gzip", &cfg, &lengths).expect("known bench");
        assert_eq!(r.prewarm_memo_stats().0, 0, "no hit");
        assert_eq!(r.prewarm_memo_stats().1, 1, "one miss");
        r.single_ipc("gzip", &cfg, &lengths).expect("known bench");
        assert_eq!(
            r.prewarm_memo_stats().1,
            1,
            "a cached baseline runs nothing"
        );
        let mut narrow = cfg;
        narrow.fetch_width = 0;
        match r.single_ipc("gzip", &narrow, &lengths) {
            Err(RunError::InvalidSpec { message }) => {
                assert!(message.contains("widths must be non-zero"), "{message}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn an_invalid_baseline_surfaces_as_a_typed_error() {
        // A zero-way L1 fails `SimConfig::validate` before any simulator
        // is built; through the pool the failure comes back typed.
        let mut cfg = SimConfig::baseline(2);
        cfg.mem.dl1.ways = 0;
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let workloads = smt_workloads::table4_workloads();
        match Runner::new().baselines(&workloads[..1], &cfg, &lengths) {
            Err(RunError::InvalidSpec { message }) => {
                assert!(message.contains("at least one way"), "{message}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn baseline_cache_distinguishes_rob_and_cache_geometry() {
        // Regression: the old string key hashed only registers, IQ size
        // and memory latencies, so a tiny-ROB config collided with the
        // baseline config and returned its cached (wrong) IPC.
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let full = SimConfig::baseline(1);
        let ipc_full = r.single_ipc("gzip", &full, &lengths).expect("known bench");
        let mut small_rob = full.clone();
        small_rob.rob_entries = 16;
        let ipc_small = r
            .single_ipc("gzip", &small_rob, &lengths)
            .expect("known bench");
        assert!(
            ipc_small < ipc_full,
            "16-entry ROB ({ipc_small}) must underperform the 512-entry baseline ({ipc_full})"
        );
        let mut small_l2 = full.clone();
        small_l2.mem.l2.size_bytes = 16 * 1024;
        let ipc_small_l2 = r
            .single_ipc("gzip", &small_l2, &lengths)
            .expect("known bench");
        assert_ne!(
            ipc_full, ipc_small_l2,
            "cache geometry must be part of the baseline key"
        );
    }

    /// The baseline cache holds everything its run read: one runner looks
    /// mcf up at two lengths and two seeds, and once more through a pooled
    /// `baselines` call, and every value is what a fresh runner measures
    /// for the same inputs, bit for bit.
    #[test]
    fn baseline_cache_is_keyed_by_seed_and_lengths() {
        let short = tiny(&["mcf"], PolicyKind::Icount);
        let long = RunSpec {
            prewarm_insts: 30_000,
            measure_cycles: 15_000,
            ..short.clone()
        };
        let cfg = SimConfig::baseline(1);
        let r = Runner::new();
        let mut seen = Vec::new();
        for seed in [42, 7] {
            for lengths in [&short, &long] {
                let lengths = RunSpec {
                    seed,
                    ..lengths.clone()
                };
                let ipc = |r: &Runner| r.single_ipc("mcf", &cfg, &lengths).expect("known bench");
                let fresh = ipc(&Runner::new()).to_bits();
                assert_eq!(ipc(&r).to_bits(), fresh, "seed {seed}, {lengths:?}");
                seen.push(fresh);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "each seed and length moves mcf's IPC");

        let workloads: Vec<Workload> = smt_workloads::table4_workloads()
            .into_iter()
            .filter(|w| w.benchmarks.iter().any(|b| b == "mcf"))
            .take(2)
            .collect();
        let lengths = RunSpec { seed: 7, ..long };
        let cfg = SimConfig::baseline(2);
        let pooled = |r: &Runner| {
            let ipcs = r.baselines(&workloads, &cfg, &lengths).expect("registry");
            ipcs.concat()
                .into_iter()
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(pooled(&r), pooled(&Runner::new()));
    }

    #[test]
    fn baseline_cache_ignores_requesting_thread_count() {
        // Baselines always run one thread; a 2-thread and a 4-thread sweep
        // over the same machine shape share the cache entry.
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let a = r
            .single_ipc("gzip", &SimConfig::baseline(2), &lengths)
            .expect("known bench");
        let b = r
            .single_ipc("gzip", &SimConfig::baseline(4), &lengths)
            .expect("known bench");
        assert_eq!(a, b);
    }
}
