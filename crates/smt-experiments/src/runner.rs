//! Simulation runner: builds simulators from declarative specs, runs them
//! (in parallel across OS threads, each worker owning one reusable
//! [`SimSession`]), caches single-thread baselines for the Hmean metric
//! and memoises the post-prewarm memory state of every workload it runs.
//!
//! Every run executes once inside its own **fault domain**: panics are
//! caught per run ([`std::panic::catch_unwind`]), the spec's budget bounds
//! a runaway run, and every failure mode surfaces as a typed [`RunError`]
//! inside [`RunOutcome::Failed`] rather than tearing the sweep down. See
//! `ARCHITECTURE.md`, "Fault domains & error taxonomy".

use crate::chaos::ChaosPolicy;
use crate::fault::{EngineReport, InjectedFault, RunError};
use dcra::{Dcra, DcraConfig, DcraDc, SharingConfig};
use smt_isa::{PerResource, ThreadId};
use smt_mem::{MemoryConfig, WarmState};
use smt_policies as pol;
use smt_sim::policy::AnyPolicy;
use smt_sim::watch::CommitWatchdog;
use smt_sim::{RunBudget, SimConfig, SimResult, Simulator};
use smt_workloads::{spec, BenchmarkProfile, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// The paper's name for this policy.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "RR",
            PolicyKind::Icount => "ICOUNT",
            PolicyKind::Stall => "STALL",
            PolicyKind::Flush => "FLUSH",
            PolicyKind::FlushPlusPlus => "FLUSH++",
            PolicyKind::DataGating => "DG",
            PolicyKind::PredictiveDataGating => "PDG",
            PolicyKind::Sra | PolicyKind::SraCapped(_) => "SRA",
            PolicyKind::Dcra(_) => "DCRA",
            PolicyKind::DcraDc => "DCRA-DC",
        }
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

    /// Instantiates the policy. All nine canonical policies come back as
    /// statically-dispatched [`AnyPolicy`] variants; only the experimental
    /// DCRA-DC rides the boxed escape hatch.
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
            PolicyKind::DcraDc => AnyPolicy::Boxed(Box::<DcraDc>::default()),
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
    /// Random seed for the trace generators.
    pub seed: u64,
    /// Functional cache warm-up (instructions per thread).
    pub prewarm_insts: u64,
    /// Timed warm-up cycles (discarded).
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Per-run budget: a cycle cap and a livelock window, both enforced
    /// by a [`CommitWatchdog`] over warm-up and measurement.
    /// [`RunSpec::new`] sets [`RunBudget::default`].
    pub budget: RunBudget,
    /// Deterministic fault injection for chaos tests; `None` everywhere
    /// else. See [`crate::chaos`].
    pub fault: Option<InjectedFault>,
}

impl RunSpec {
    /// Standard measurement lengths: 400k-instruction functional warm-up,
    /// 30k-cycle timed warm-up, 250k measured cycles.
    pub fn new(benches: &[&str], policy: PolicyKind) -> Self {
        let mut config = SimConfig::baseline(benches.len());
        config.threads = benches.len();
        RunSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            policy,
            config,
            seed: 42,
            prewarm_insts: 400_000,
            warmup_cycles: 30_000,
            measure_cycles: 250_000,
            budget: RunBudget::default(),
            fault: None,
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
    /// builds, so e.g. a >8-thread config from a deserialized sweep file
    /// fails loudly here instead of corrupting issue ordering downstream)
    /// and budget breaches come back as typed [`RunError`]s. Panics from
    /// policy or simulator code propagate — one-shot callers that need
    /// containment go through the [`Runner`] engine instead, which wraps
    /// each run in [`std::panic::catch_unwind`].
    pub fn run(&mut self, spec: &RunSpec) -> Result<RunStats, RunError> {
        self.run_with(spec, None)
    }

    /// [`SimSession::run`], with the prewarm going through `memo` when
    /// there is one.
    fn run_with(
        &mut self,
        spec: &RunSpec,
        memo: Option<&PrewarmMemo>,
    ) -> Result<RunStats, RunError> {
        spec.config
            .validate()
            .map_err(|e| RunError::InvalidSpec { message: e })?;
        let profiles = spec.profiles()?;
        let policy = match spec.fault {
            Some(InjectedFault::PanicAtCycle { at_cycle }) => {
                AnyPolicy::Boxed(Box::new(ChaosPolicy::new(spec.policy.build(), at_cycle)))
            }
            None => spec.policy.build(),
        };
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
        match memo {
            Some(memo) => memo.prewarm(sim, spec),
            None => sim.prewarm(spec.prewarm_insts),
        }
        // One watchdog spans warm-up and measurement, so the cycle cap
        // bounds the whole run. An unlimited budget's watchdog never
        // checks. A breach leaves the simulator in the session: its
        // allocations are fine, and the next run's `reset` restores a
        // clean machine.
        let mut watch = CommitWatchdog::new(spec.budget);
        sim.run_cycles_budgeted(spec.warmup_cycles, &mut watch)
            .map_err(RunError::from_breach)?;
        sim.reset_stats();
        sim.run_cycles_budgeted(spec.measure_cycles, &mut watch)
            .map_err(RunError::from_breach)?;
        let mem = (0..spec.benches.len())
            .map(|i| sim.memory().thread_stats(ThreadId::new(i)))
            .collect();
        Ok(RunStats {
            result: sim.result(),
            mem,
        })
    }
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

/// The runner's memo of post-prewarm memory states, one compact
/// [`WarmState`] per distinct [`PrewarmKey`]. Exact: a restored run is
/// bit-identical to one that prewarmed (see
/// [`MemoryHierarchy::restore_warm`](smt_mem::MemoryHierarchy::restore_warm)).
/// It grows by one entry per key and is never evicted.
#[derive(Debug, Default)]
struct PrewarmMemo {
    entries: Mutex<Vec<(PrewarmKey, Arc<WarmState>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PrewarmMemo {
    /// Leaves `sim`, just built or reset onto `spec`, as
    /// `sim.prewarm(spec.prewarm_insts)` would: restored from the memo on
    /// a hit, prewarmed and captured on a miss. Two workers that miss the
    /// same key at once both prewarm; the first insert wins.
    fn prewarm(&self, sim: &mut Simulator, spec: &RunSpec) {
        let found = self
            .lock()
            .iter()
            .find(|(k, _)| k.matches(spec))
            .map(|(_, warm)| Arc::clone(warm));
        if let Some(warm) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            sim.restore_warm(&warm);
            return;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        sim.prewarm(spec.prewarm_insts);
        let warm = Arc::new(sim.warm_state());
        let mut entries = self.lock();
        if !entries.iter().any(|(k, _)| k.matches(spec)) {
            let key = PrewarmKey {
                seed: spec.seed,
                insts: spec.prewarm_insts,
                mem: spec.config.mem.clone(),
                benches: spec.benches.clone(),
            };
            entries.push((key, warm));
        }
    }

    /// Every update is one `push` of a complete entry, so a poisoned lock
    /// still guards a valid list.
    fn lock(&self) -> MutexGuard<'_, Vec<(PrewarmKey, Arc<WarmState>)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs `spec` once on `session` under the engine's fault domain: the run
/// is wrapped in `catch_unwind`, and a caught panic discards the (possibly
/// corrupt) simulator. The prewarm goes through `memo`.
fn execute(session: &mut SimSession, spec: &RunSpec, memo: &PrewarmMemo) -> RunOutcome {
    match catch_unwind(AssertUnwindSafe(|| session.run_with(spec, Some(memo)))) {
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

/// Cache key for single-thread baseline IPCs: the benchmark plus the
/// *complete* machine configuration it ran on (normalised to one thread,
/// which is how baselines are measured). Deriving the key from the full
/// [`SimConfig`] means configs differing in ROB size, cache geometry or any
/// other field can never collide — the old string key hashed only four
/// fields and silently returned wrong baselines for the rest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BaselineKey {
    bench: String,
    config: SimConfig,
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
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only cache: never iterated, so RandomState order cannot reach any output"
    )]
    baselines: Mutex<std::collections::HashMap<BaselineKey, f64>>,
    prewarm_memo: PrewarmMemo,
}

impl Runner {
    /// Creates a runner with an empty baseline cache and prewarm memo.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Runs one spec to completion in a one-shot session. Spec-level
    /// failures come back as [`RunError`]; panics propagate (use
    /// [`Runner::run_isolated`] for panic containment).
    pub fn run(&self, spec: &RunSpec) -> Result<RunStats, RunError> {
        SimSession::new().run(spec)
    }

    /// The engine: runs each of `specs` once on a pool of `workers`
    /// threads fed from a shared work queue, streaming
    /// `(spec_index, outcome)` pairs into `sink` in *completion* order
    /// (not spec order) under an internal lock. The calling thread is one
    /// of the workers: the engine spawns `workers - 1` threads, so with
    /// `workers == 1` everything, the sink included, runs on the caller.
    ///
    /// Every worker owns one [`SimSession`], so consecutive specs with the
    /// same machine configuration reuse a simulator instead of building
    /// one per run — the dominant setup cost of the paper-scale sweeps.
    /// Every run's prewarm goes through the runner's prewarm memo, so a
    /// workload is prewarmed once per runner, whichever policy, worker or
    /// call runs it (see [`Runner::prewarm_memo_stats`]).
    /// Completed outcomes are identical to sequential fresh-simulator runs
    /// for every `workers >= 1` (only completion order varies), so
    /// consumers that aggregate incrementally (the sweep and figure
    /// drivers) never materialise the whole result vector.
    ///
    /// Fault-domain guarantees:
    ///
    /// * **Panic containment** — a panicking run (policy bug, corrupt
    ///   spec, injected chaos) is caught on its worker; the worker's
    ///   simulator is discarded and the queue keeps draining. The panic
    ///   surfaces as [`RunError::Panicked`].
    /// * **Budgets** — every run is bounded by its spec's
    ///   [`RunSpec::budget`]; breaches surface as
    ///   [`RunError::CycleBudget`] / [`RunError::Livelock`].
    /// * **Sink isolation** — a panicking sink callback is caught too; the
    ///   shared sink lock is explicitly poison-recovered, sibling
    ///   deliveries proceed, and the affected indices are reported in
    ///   [`EngineReport::sink_panics`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (with specs pending).
    pub fn run_isolated<F>(&self, specs: &[RunSpec], workers: usize, sink: F) -> EngineReport
    where
        F: FnMut(usize, RunOutcome) + Send,
    {
        if specs.is_empty() {
            return EngineReport::default();
        }
        assert!(workers > 0, "need at least one worker");
        let sink = Mutex::new(sink);
        let sink_panics: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let completed = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);

        // Holds the sink lock *outside* the catch_unwind closure: a panic
        // inside the callback unwinds only to the catch boundary, never
        // across the guard's scope, so the mutex is released cleanly (not
        // poisoned) and other workers keep delivering.
        let deliver = |i: usize, outcome: RunOutcome| {
            let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
            let delivery = catch_unwind(AssertUnwindSafe(|| (*guard)(i, outcome)));
            drop(guard);
            if delivery.is_err() {
                sink_panics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(i);
            }
        };

        let next = AtomicUsize::new(0);
        let work = || {
            let mut session = SimSession::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let outcome = execute(&mut session, spec, &self.prewarm_memo);
                let counter = if outcome.is_completed() {
                    &completed
                } else {
                    &failed
                };
                counter.fetch_add(1, Ordering::Relaxed);
                deliver(i, outcome);
            }
        };
        // The calling thread is the last worker: it would otherwise sit
        // blocked in the join, and simulating on it keeps its heap warm
        // for the caller's own simulations after the call.
        std::thread::scope(|scope| {
            for _ in 1..workers.min(specs.len()) {
                scope.spawn(work);
            }
            work();
        });

        let mut sink_panics = sink_panics
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        sink_panics.sort_unstable();
        EngineReport {
            completed: completed.into_inner(),
            failed: failed.into_inner(),
            sink_panics,
        }
    }

    /// Runs many specs on `workers` threads through
    /// [`Runner::run_isolated`] and returns every outcome — completed and
    /// failed — in spec order, independent of `workers`.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "the slot vector is pre-sized to specs.len() and the pool yields exactly one outcome per index; a hole is a bug worth aborting on, not a recoverable input error"
    )]
    pub fn run_all_with_workers(&self, specs: &[RunSpec], workers: usize) -> Vec<RunOutcome> {
        let mut slots: Vec<Option<RunOutcome>> = specs.iter().map(|_| None).collect();
        self.run_isolated(specs, workers, |i, outcome| {
            slots[i] = Some(outcome);
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("worker pool covered every spec"))
            .collect()
    }

    /// Single-thread baseline IPC of `bench` on `config` (ICOUNT, full
    /// machine), cached per (bench, complete one-thread machine config).
    /// An uncached baseline runs in a one-shot session on the calling
    /// thread; [`Runner::baselines`] measures many through the pool.
    pub fn single_ipc(
        &self,
        bench: &str,
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<f64, RunError> {
        let (key, spec) = baseline_spec(bench, config, lengths);
        if let Some(v) = self.cached(&key) {
            return Ok(v);
        }
        let ipc = self.run(&spec)?.throughput();
        self.baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, ipc);
        Ok(ipc)
    }

    /// Single-thread baselines for every benchmark of a workload.
    pub fn single_ipcs(
        &self,
        workload: &Workload,
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<Vec<f64>, RunError> {
        workload
            .benchmarks
            .iter()
            .map(|b| self.single_ipc(b, config, lengths))
            .collect()
    }

    /// [`Runner::single_ipcs`] for each of `workloads`, with every
    /// uncached baseline measured in one batch on the worker pool (each
    /// distinct benchmark once) instead of one after another on the
    /// calling thread. The values, and the cache they land in, are the
    /// ones `single_ipc` would give. A baseline that fails, panics
    /// included, comes back as its typed [`RunError`]: the first in
    /// workload order.
    pub fn baselines(
        &self,
        workloads: &[Workload],
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<Vec<Vec<f64>>, RunError> {
        let (mut keys, mut specs) = (Vec::new(), Vec::new());
        for bench in workloads.iter().flat_map(|w| &w.benchmarks) {
            let (key, spec) = baseline_spec(bench, config, lengths);
            if !keys.contains(&key) && self.cached(&key).is_none() {
                keys.push(key);
                specs.push(spec);
            }
        }
        let mut first_error: Option<(usize, RunError)> = None;
        self.run_isolated(&specs, default_workers(), |i, outcome| {
            match outcome.into_stats() {
                Ok(stats) => {
                    if let Some(key) = keys.get(i) {
                        self.baselines
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(key.clone(), stats.throughput());
                    }
                }
                Err(error) => {
                    if first_error.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_error = Some((i, error));
                    }
                }
            }
        });
        if let Some((_, error)) = first_error {
            return Err(error);
        }
        // Every baseline is cached now: these are lookups.
        workloads
            .iter()
            .map(|w| self.single_ipcs(w, config, lengths))
            .collect()
    }

    /// The prewarm memo's counters: `(hits, misses, bytes)`. Every engine
    /// run that reaches its prewarm counts once, as a hit (the memoised
    /// state was restored) or a miss (it prewarmed and, unless another
    /// worker beat it to the same key, inserted the state). `bytes` is the
    /// sum of the memoised states' [`WarmState::bytes`]. The counts are
    /// deterministic unless two runs with the same key are in flight at
    /// once.
    pub fn prewarm_memo_stats(&self) -> (u64, u64, usize) {
        let memo = &self.prewarm_memo;
        let bytes = memo.lock().iter().map(|(_, warm)| warm.bytes()).sum();
        (
            memo.hits.load(Ordering::Relaxed),
            memo.misses.load(Ordering::Relaxed),
            bytes,
        )
    }

    fn cached(&self, key: &BaselineKey) -> Option<f64> {
        self.baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied()
    }
}

/// The run that measures `bench`'s single-thread baseline (ICOUNT on a
/// one-thread copy of `config`, at `lengths`' prewarm, warm-up and
/// measure lengths), and the cache key of its result.
fn baseline_spec(bench: &str, config: &SimConfig, lengths: &RunSpec) -> (BaselineKey, RunSpec) {
    let mut spec = RunSpec::new(&[bench], PolicyKind::Icount).with_config(config.clone());
    spec.prewarm_insts = lengths.prewarm_insts;
    spec.warmup_cycles = lengths.warmup_cycles;
    spec.measure_cycles = lengths.measure_cycles;
    let key = BaselineKey {
        bench: bench.to_string(),
        config: spec.config.clone(),
    };
    (key, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::policy::Policy as _;

    fn tiny(benches: &[&str], policy: PolicyKind) -> RunSpec {
        let mut s = RunSpec::new(benches, policy);
        s.prewarm_insts = 20_000;
        s.warmup_cycles = 2_000;
        s.measure_cycles = 10_000;
        s
    }

    #[test]
    fn policy_kinds_build_and_name() {
        for k in [
            PolicyKind::RoundRobin,
            PolicyKind::Icount,
            PolicyKind::Stall,
            PolicyKind::Flush,
            PolicyKind::FlushPlusPlus,
            PolicyKind::DataGating,
            PolicyKind::PredictiveDataGating,
            PolicyKind::Sra,
            PolicyKind::Dcra(DcraConfig::default()),
            PolicyKind::DcraDc,
        ] {
            assert_eq!(k.build().name(), k.name());
        }
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
    fn run_isolated_covers_every_spec_incrementally() {
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf"], PolicyKind::Stall),
            tiny(&["art"], PolicyKind::Flush),
        ];
        let mut seen = vec![false; specs.len()];
        let mut outcomes: Vec<Option<RunStats>> = specs.iter().map(|_| None).collect();
        let report = r.run_isolated(&specs, 2, |i, out| {
            seen[i] = true;
            outcomes[i] = Some(out.into_stats().expect("valid spec"));
        });
        assert!(seen.iter().all(|&s| s), "every spec must reach the sink");
        assert_eq!(report.completed, specs.len());
        assert_eq!(report.failed, 0);
        let batch = r.run_all_with_workers(&specs, 1);
        for (streamed, batched) in outcomes.iter().zip(&batch) {
            let batched = batched.stats().expect("valid spec");
            assert_eq!(streamed.as_ref().expect("seen").result, batched.result);
        }
    }

    #[test]
    fn outcomes_match_for_any_worker_count_and_one_worker_is_the_caller() {
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf", "art"], PolicyKind::Dcra(DcraConfig::default())),
            tiny(&["twolf", "gcc", "swim"], PolicyKind::Flush),
            tiny(&["vpr"], PolicyKind::Stall),
        ];
        let r = Runner::new();
        let reference = r.run_all_with_workers(&specs, 1);
        assert!(reference.iter().all(RunOutcome::is_completed));
        for workers in [2, 3] {
            assert_eq!(
                r.run_all_with_workers(&specs, workers),
                reference,
                "outcomes differ with {workers} workers"
            );
        }
        // One worker spawns no thread: every run and delivery happens on
        // the calling thread.
        let caller = std::thread::current().id();
        let mut sink_threads = Vec::new();
        r.run_isolated(&specs, 1, |_, _| {
            sink_threads.push(std::thread::current().id());
        });
        assert_eq!(sink_threads, vec![caller; specs.len()]);
    }

    #[test]
    fn failed_runs_do_not_poison_their_worker_session() {
        // A faulted run sandwiched between good runs must leave its worker
        // (and the shared sink) fully functional, and the good runs
        // bit-identical to a clean batch. The faulted run panics after its
        // prewarm, so the fault-free copy that follows it restores the
        // memo entry the panicked run captured; that run must be exact too.
        crate::chaos::silence_chaos_panics();
        let good = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["art", "gcc"], PolicyKind::Flush),
        ];
        let mut bad = tiny(&["twolf", "swim"], PolicyKind::Stall);
        let after_bad = bad.clone();
        bad.fault = Some(InjectedFault::PanicAtCycle { at_cycle: 64 });
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
    fn sink_panics_are_contained_and_reported() {
        crate::chaos::silence_chaos_panics();
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf"], PolicyKind::Stall),
            tiny(&["art"], PolicyKind::Flush),
        ];
        let mut delivered = Vec::new();
        let report = r.run_isolated(&specs, 2, |i, o| {
            if i == 1 {
                panic!("chaos-injected sink failure for spec {i}");
            }
            delivered.push((i, o.is_completed()));
        });
        assert_eq!(report.sink_panics, vec![1]);
        assert_eq!(report.completed, 3, "the run itself completed");
        delivered.sort_unstable();
        assert_eq!(delivered, vec![(0, true), (2, true)]);
    }

    #[test]
    fn budget_breaches_surface_as_typed_errors() {
        let mut spec = tiny(&["gzip"], PolicyKind::Icount);
        spec.budget = RunBudget {
            max_cycles: Some(50),
            livelock_window: None,
        };
        match SimSession::new().run(&spec) {
            Err(RunError::CycleBudget { limit: 50, .. }) => {}
            other => panic!("expected CycleBudget, got {other:?}"),
        }
        spec.budget = RunBudget {
            max_cycles: None,
            livelock_window: Some(1),
        };
        match SimSession::new().run(&spec) {
            Err(RunError::Livelock { window: 1, .. }) => {}
            other => panic!("expected Livelock, got {other:?}"),
        }
    }

    #[test]
    fn default_budget_leaves_results_bit_identical() {
        // The default livelock watchdog must never perturb a healthy run.
        let spec = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        let mut unbudgeted = spec.clone();
        unbudgeted.budget = RunBudget::unlimited();
        let watched = SimSession::new().run(&spec).expect("valid spec");
        let free = SimSession::new().run(&unbudgeted).expect("valid spec");
        assert_eq!(watched.result, free.result);
        assert_eq!(watched.mem, free.mem);
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
        let serial = Runner::new();
        for (w, ipcs) in workloads.iter().zip(&got) {
            assert_eq!(
                ipcs,
                &serial
                    .single_ipcs(w, &cfg, &lengths)
                    .expect("known benches"),
                "{w}"
            );
        }
        let cache = pooled.baselines.lock().expect("not poisoned");
        let distinct: std::collections::BTreeSet<&String> =
            workloads.iter().flat_map(|w| &w.benchmarks).collect();
        assert_eq!(cache.len(), distinct.len(), "one cached run per benchmark");
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
