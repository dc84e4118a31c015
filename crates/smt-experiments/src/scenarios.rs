//! Scenario-family sweeps: run generated [`ScenarioFamily`] mixes through
//! the policy runner and summarise per-family behaviour.
//!
//! This is the bridge between `smt-workloads`' family generator (which
//! knows nothing about policies or machines) and the [`Runner`]: each
//! [`ScenarioMix`](smt_workloads::ScenarioMix) becomes a [`RunSpec`]
//! via [`RunSpec::for_mix`], the
//! family sweeps through the parallel work queue, and the summary carries
//! the finiteness/throughput numbers the scenario-determinism suite
//! asserts on. [`PolicyTarget`]s (defined down in
//! `smt-workloads` so the adversarial generator can name its victim) are
//! mapped back to [`PolicyKind`]s here by name.

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunSpec, Runner};
use smt_workloads::{PolicyTarget, ScenarioFamily};

/// Run lengths for scenario sweeps. Families hold tens of mixes, so the
/// default is far shorter than the paper-scale 250k-cycle measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioLengths {
    /// Functional cache warm-up (instructions per thread).
    pub prewarm_insts: u64,
    /// Timed warm-up cycles (discarded).
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
}

impl ScenarioLengths {
    /// Smoke-test lengths: enough cycles for every policy to reach steady
    /// state on every mix shape, short enough to sweep a whole family in
    /// seconds.
    pub fn smoke() -> Self {
        ScenarioLengths {
            prewarm_insts: 60_000,
            warmup_cycles: 5_000,
            measure_cycles: 30_000,
        }
    }

    fn apply(&self, mut spec: RunSpec) -> RunSpec {
        spec.prewarm_insts = self.prewarm_insts;
        spec.warmup_cycles = self.warmup_cycles;
        spec.measure_cycles = self.measure_cycles;
        spec
    }
}

/// Maps a generator-side [`PolicyTarget`] to the runnable [`PolicyKind`].
/// Total by construction — an exhaustive match, so a new target variant
/// is a compile error here rather than a runtime panic; the unit test
/// still pins the name round trip over all nine targets.
pub fn policy_for_target(target: PolicyTarget) -> PolicyKind {
    match target {
        PolicyTarget::RoundRobin => PolicyKind::RoundRobin,
        PolicyTarget::Icount => PolicyKind::Icount,
        PolicyTarget::Stall => PolicyKind::Stall,
        PolicyTarget::Flush => PolicyKind::Flush,
        PolicyTarget::FlushPlusPlus => PolicyKind::FlushPlusPlus,
        PolicyTarget::DataGating => PolicyKind::DataGating,
        PolicyTarget::PredictiveDataGating => PolicyKind::PredictiveDataGating,
        PolicyTarget::Sra => PolicyKind::Sra,
        PolicyTarget::Dcra => PolicyKind::Dcra(dcra::DcraConfig::default()),
    }
}

/// Expands a generated family into one [`RunSpec`] per mix (index order),
/// all under `policy` at the given lengths.
pub fn specs_for_family(
    family: &ScenarioFamily,
    policy: &PolicyKind,
    lengths: ScenarioLengths,
) -> Vec<RunSpec> {
    family
        .mixes()
        .iter()
        .map(|mix| lengths.apply(RunSpec::for_mix(mix, policy.clone())))
        .collect()
}

/// Per-mix outcome digest within a [`FamilySweepSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// The mix's stable id.
    pub id: String,
    /// IPC throughput over the measured window.
    pub throughput: f64,
    /// Per-thread IPCs.
    pub ipcs: Vec<f64>,
}

/// A mix whose run failed inside a family sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MixFailure {
    /// Index of the mix within the family.
    pub index: usize,
    /// The mix's stable id.
    pub id: String,
    /// Why the run failed.
    pub error: RunError,
}

/// Summary of one family swept under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySweepSummary {
    /// Family name.
    pub family: String,
    /// Profile tag (`expected` / `stress` / `adversarial-<POLICY>`).
    pub tag: String,
    /// Name of the policy the family ran under.
    pub policy: String,
    /// Family seed.
    pub seed: u64,
    /// Per-mix outcomes of the completed runs, index order.
    pub mixes: Vec<MixOutcome>,
    /// Mixes whose run failed, index order. Excluded from `mixes` and from
    /// [`FamilySweepSummary::mean_throughput`] — partial results are
    /// explicitly partial.
    pub failures: Vec<MixFailure>,
}

impl FamilySweepSummary {
    /// Arithmetic mean IPC throughput over the family's mixes.
    pub fn mean_throughput(&self) -> f64 {
        if self.mixes.is_empty() {
            return 0.0;
        }
        self.mixes.iter().map(|m| m.throughput).sum::<f64>() / self.mixes.len() as f64
    }

    /// `true` when every throughput and per-thread IPC in the sweep is
    /// finite (no NaN/infinity) — the invariant the full-family smoke
    /// tests assert for all nine policies.
    pub fn all_finite(&self) -> bool {
        self.mixes
            .iter()
            .all(|m| m.throughput.is_finite() && m.ipcs.iter().all(|i| i.is_finite()))
    }
}

/// Sweeps `family` under `policy` on the runner's default worker pool.
pub fn sweep_family(
    runner: &Runner,
    family: &ScenarioFamily,
    policy: &PolicyKind,
    lengths: ScenarioLengths,
) -> FamilySweepSummary {
    let specs = specs_for_family(family, policy, lengths);
    let outcomes = runner.run_all_with_workers(&specs, default_workers());
    let mut mixes = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    for (index, (mix, outcome)) in family.mixes().iter().zip(outcomes).enumerate() {
        match outcome.into_stats() {
            Ok(out) => mixes.push(MixOutcome {
                id: mix.id.clone(),
                throughput: out.throughput(),
                ipcs: out.ipcs(),
            }),
            Err(error) => failures.push(MixFailure {
                index,
                id: mix.id.clone(),
                error,
            }),
        }
    }
    FamilySweepSummary {
        family: family.spec().name.clone(),
        tag: family.spec().profile.tag(),
        policy: policy.name().to_string(),
        seed: family.seed(),
        mixes,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::FamilySpec;

    #[test]
    fn every_policy_target_maps_to_a_kind() {
        for target in PolicyTarget::ALL {
            let kind = policy_for_target(target);
            assert_eq!(kind.name(), target.name(), "name round trip");
        }
    }

    #[test]
    fn specs_inherit_mix_seed_and_profiles() {
        let family = ScenarioFamily::generate(&FamilySpec::stress(3), 7).unwrap();
        let specs = specs_for_family(&family, &PolicyKind::Icount, ScenarioLengths::smoke());
        assert_eq!(specs.len(), 3);
        for (spec, mix) in specs.iter().zip(family.mixes()) {
            assert_eq!(spec.seed, mix.seed);
            assert_eq!(spec.benches.len(), mix.threads());
            assert_eq!(spec.config.threads, mix.threads());
            assert!(spec.profile_overrides.is_some());
        }
    }

    #[test]
    fn sweep_produces_finite_metrics() {
        let runner = Runner::new();
        let family = ScenarioFamily::generate(&FamilySpec::expected(2), 5).unwrap();
        let summary = sweep_family(
            &runner,
            &family,
            &PolicyKind::Icount,
            ScenarioLengths::smoke(),
        );
        assert_eq!(summary.mixes.len(), 2);
        assert!(summary.failures.is_empty());
        assert!(summary.all_finite());
        assert!(summary.mean_throughput() > 0.1);
    }
}
