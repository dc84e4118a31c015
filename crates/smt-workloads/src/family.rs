//! Seeded scenario families: whole batches of simulator-ready workload
//! mixes generated from a single `u64` seed plus a [`FamilySpec`].
//!
//! The paper's evaluation sweeps 12 hand-curated Table-4 mixes per thread
//! count. A *family* generalises that: from one seed the generator emits an
//! arbitrary number of distinct, deterministic mixes in one of three
//! profiles —
//!
//! * [`ScenarioProfile::Expected`] — parameter-jittered variants of the
//!   paper's ILP/MIX/MEM Table-4 workloads, staying within each base
//!   benchmark's calibrated envelope;
//! * [`ScenarioProfile::Stress`] — pathological shapes (MSHR pressure from
//!   independent-miss floods, TLB thrash over a huge random footprint,
//!   100%-MEM mixes, branchy rapid phase flips) that push the machine far
//!   outside the Table-4 envelope;
//! * [`ScenarioProfile::Adversarial`] — one dedicated antagonist per
//!   fetch/allocation policy, built to exploit that policy's specific
//!   heuristic (e.g. loads that stall just under FLUSH's L2-miss trigger,
//!   FP bursts spaced just past DCRA's activity window).
//!
//! Determinism contract: `generate(spec, seed)` is a pure function — the
//! same spec and seed reproduce bit-identical mixes (and therefore
//! bit-identical traces) regardless of call site, thread count or
//! generation order. Each mix derives its own seed from
//! `(family seed, profile tag, mix index)`, so mixes can be produced
//! independently and in parallel without changing the result; the
//! `scenario_determinism` integration suite pins all of this.
//!
//! # Examples
//!
//! ```
//! use smt_workloads::{FamilySpec, ScenarioFamily};
//!
//! let spec = FamilySpec::expected(4);
//! let fam = ScenarioFamily::generate(&spec, 42).unwrap();
//! assert_eq!(fam.mixes().len(), 4);
//! let again = ScenarioFamily::generate(&spec, 42).unwrap();
//! assert_eq!(fam.mixes()[0].profiles, again.mixes()[0].profiles);
//! ```

use crate::profile::{
    BenchmarkProfile, BranchBehavior, InstMix, MemBehavior, PhaseBehavior, Suite,
};
use crate::spec;
use crate::workload::{table4_workloads, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smt_isa::knobs::{DCRA_ACTIVITY_WINDOW, FLUSHPP_PRESSURE_WINDOW};
use smt_isa::ThreadId;

/// The nine canonical policies, as targets for adversarial generation.
///
/// This mirrors `smt-experiments`' `PolicyKind` name-for-name (that crate
/// sits *above* this one, so the target enum lives here); use
/// [`PolicyTarget::name`] / [`PolicyTarget::from_name`] to cross between
/// the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyTarget {
    /// ROUND-ROBIN fetch.
    RoundRobin,
    /// ICOUNT fetch.
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
    /// Static even partitioning.
    Sra,
    /// The paper's DCRA.
    Dcra,
}

impl PolicyTarget {
    /// All nine targets in the paper's presentation order.
    pub const ALL: [PolicyTarget; 9] = [
        PolicyTarget::RoundRobin,
        PolicyTarget::Icount,
        PolicyTarget::Stall,
        PolicyTarget::Flush,
        PolicyTarget::FlushPlusPlus,
        PolicyTarget::DataGating,
        PolicyTarget::PredictiveDataGating,
        PolicyTarget::Sra,
        PolicyTarget::Dcra,
    ];

    /// The paper's name for the targeted policy (matches
    /// `PolicyKind::name` in `smt-experiments`).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyTarget::RoundRobin => "RR",
            PolicyTarget::Icount => "ICOUNT",
            PolicyTarget::Stall => "STALL",
            PolicyTarget::Flush => "FLUSH",
            PolicyTarget::FlushPlusPlus => "FLUSH++",
            PolicyTarget::DataGating => "DG",
            PolicyTarget::PredictiveDataGating => "PDG",
            PolicyTarget::Sra => "SRA",
            PolicyTarget::Dcra => "DCRA",
        }
    }

    /// Inverse of [`PolicyTarget::name`], case-insensitive, accepting the
    /// same shell-friendly `FLUSH++` spellings as `PolicyKind::from_name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_uppercase().as_str() {
            "RR" => PolicyTarget::RoundRobin,
            "ICOUNT" => PolicyTarget::Icount,
            "STALL" => PolicyTarget::Stall,
            "FLUSH" => PolicyTarget::Flush,
            "FLUSH++" | "FLUSHPP" | "FLUSH_PP" => PolicyTarget::FlushPlusPlus,
            "DG" => PolicyTarget::DataGating,
            "PDG" => PolicyTarget::PredictiveDataGating,
            "SRA" => PolicyTarget::Sra,
            "DCRA" => PolicyTarget::Dcra,
            _ => return None,
        })
    }
}

/// Which of the three scenario profiles a family draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioProfile {
    /// Jittered variants of the paper's Table-4 mixes.
    Expected,
    /// Pathological machine-pressure shapes.
    Stress,
    /// A dedicated antagonist for one policy's heuristic.
    Adversarial(PolicyTarget),
}

impl ScenarioProfile {
    /// Stable identifier used in mix ids, manifests and seed derivation,
    /// e.g. `"expected"` or `"adversarial-DCRA"`.
    pub fn tag(&self) -> String {
        match self {
            ScenarioProfile::Expected => "expected".to_string(),
            ScenarioProfile::Stress => "stress".to_string(),
            ScenarioProfile::Adversarial(t) => format!("adversarial-{}", t.name()),
        }
    }
}

/// Declarative description of a scenario family: which profile to draw
/// from, how many mixes to emit, and the allowed thread-count range.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// Family name (used in manifests and mix ids).
    pub name: String,
    /// Which scenario profile the mixes are drawn from.
    pub profile: ScenarioProfile,
    /// Number of mixes to generate.
    pub mixes: usize,
    /// Smallest thread count a mix may have.
    pub min_threads: usize,
    /// Largest thread count a mix may have (<= [`ThreadId::MAX_THREADS`]).
    pub max_threads: usize,
}

impl FamilySpec {
    /// An expected-profile family of `mixes` mixes over the paper's 2–4
    /// thread range.
    pub fn expected(mixes: usize) -> Self {
        FamilySpec {
            name: "expected".into(),
            profile: ScenarioProfile::Expected,
            mixes,
            min_threads: 2,
            max_threads: 4,
        }
    }

    /// A stress-profile family of `mixes` mixes.
    pub fn stress(mixes: usize) -> Self {
        FamilySpec {
            name: "stress".into(),
            profile: ScenarioProfile::Stress,
            mixes,
            min_threads: 2,
            max_threads: 4,
        }
    }

    /// An adversarial family of `mixes` mixes targeting one policy.
    pub fn adversarial(target: PolicyTarget, mixes: usize) -> Self {
        FamilySpec {
            name: format!("adversarial-{}", target.name()),
            profile: ScenarioProfile::Adversarial(target),
            mixes,
            min_threads: 2,
            max_threads: 4,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message when the mix count is zero, the thread range is
    /// empty or exceeds [`ThreadId::MAX_THREADS`], or (for the expected
    /// profile) no Table-4 workload fits the thread range.
    pub fn validate(&self) -> Result<(), String> {
        if self.mixes == 0 {
            return Err("family needs at least one mix".into());
        }
        if self.min_threads == 0 {
            return Err("min_threads must be at least 1".into());
        }
        if self.min_threads > self.max_threads {
            return Err(format!(
                "empty thread range {}..={}",
                self.min_threads, self.max_threads
            ));
        }
        if self.max_threads > ThreadId::MAX_THREADS {
            return Err(format!(
                "max_threads {} exceeds the supported maximum {}",
                self.max_threads,
                ThreadId::MAX_THREADS
            ));
        }
        if self.profile == ScenarioProfile::Expected
            && !table4_workloads()
                .iter()
                .any(|w| (self.min_threads..=self.max_threads).contains(&w.threads()))
        {
            return Err(format!(
                "no Table-4 workload has {}..={} threads",
                self.min_threads, self.max_threads
            ));
        }
        Ok(())
    }
}

/// One generated workload mix: a batch of per-thread profiles plus the
/// seed its trace generators must use. Feed it to a simulator by pairing
/// `profiles` with a `SimConfig` whose `threads == mix.threads()` and
/// passing `seed` through (`smt-experiments`' `RunSpec::for_mix` does
/// exactly that).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMix {
    /// Stable identifier, e.g. `"expected-s42-m017"`.
    pub id: String,
    /// Index of this mix within its family.
    pub index: usize,
    /// Trace-generator seed for this mix (derived, not the family seed).
    pub seed: u64,
    /// One profile per hardware thread.
    pub profiles: Vec<BenchmarkProfile>,
}

impl ScenarioMix {
    /// Number of hardware threads this mix occupies.
    pub fn threads(&self) -> usize {
        self.profiles.len()
    }

    /// Per-thread benchmark names (jittered profiles keep their base
    /// benchmark's name; synthesized antagonists carry `adv-*`/`stress-*`
    /// names).
    pub fn benchmark_names(&self) -> Vec<&str> {
        self.profiles.iter().map(|p| p.name.as_str()).collect()
    }
}

/// A generated family: the spec and seed it came from plus the mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFamily {
    spec: FamilySpec,
    seed: u64,
    mixes: Vec<ScenarioMix>,
}

impl ScenarioFamily {
    /// Generates the family `spec` describes from `seed`. Pure: identical
    /// inputs produce identical output.
    ///
    /// # Errors
    ///
    /// Propagates [`FamilySpec::validate`] failures.
    pub fn generate(spec: &FamilySpec, seed: u64) -> Result<ScenarioFamily, String> {
        spec.validate()?;
        let mixes = (0..spec.mixes)
            .map(|i| generate_mix(spec, seed, i))
            .collect();
        Ok(ScenarioFamily {
            spec: spec.clone(),
            seed,
            mixes,
        })
    }

    /// The spec this family was generated from.
    pub fn spec(&self) -> &FamilySpec {
        &self.spec
    }

    /// The family seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generated mixes, in index order.
    pub fn mixes(&self) -> &[ScenarioMix] {
        &self.mixes
    }
}

/// Generates mix `index` of the family — public so parallel manifest
/// builders can produce mixes independently; `ScenarioFamily::generate`
/// is a loop over this function.
///
/// # Panics
///
/// Panics if `index >= spec.mixes` or the spec would fail
/// [`FamilySpec::validate`] (callers validate first).
pub fn generate_mix(spec: &FamilySpec, family_seed: u64, index: usize) -> ScenarioMix {
    assert!(index < spec.mixes, "mix index out of range");
    let tag = spec.profile.tag();
    let seed = mix_seed(family_seed, &tag, index);
    // The *shape* rng drives which workload/archetype/parameters the mix
    // gets; the trace generators later re-seed from `seed` themselves, so
    // shape draws and trace draws never interleave.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f);
    let profiles = match spec.profile {
        ScenarioProfile::Expected => expected_profiles(spec, &mut rng),
        ScenarioProfile::Stress => stress_profiles(spec, index, &mut rng),
        ScenarioProfile::Adversarial(target) => adversarial_profiles(spec, target, &mut rng),
    };
    for p in &profiles {
        p.validate()
            .unwrap_or_else(|e| panic!("generated profile {} invalid: {e}", p.name));
    }
    ScenarioMix {
        id: format!("{tag}-s{family_seed}-m{index:03}"),
        index,
        seed,
        profiles,
    }
}

/// Derives the per-mix seed from `(family seed, profile tag, index)`:
/// FNV-1a over the tag, mixed with the seed and index through a SplitMix64
/// finalizer. Stable across releases — manifests pin it.
fn mix_seed(family_seed: u64, tag: &str, index: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = family_seed
        .wrapping_add(h)
        .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Multiplies `v` by a uniform factor in `[1-frac, 1+frac)`.
fn jitter(rng: &mut SmallRng, v: f64, frac: f64) -> f64 {
    v * rng.gen_range((1.0 - frac)..(1.0 + frac))
}

/// Uniform integer in `[lo, hi]` (inclusive).
fn pick(rng: &mut SmallRng, lo: usize, hi: usize) -> usize {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..hi + 1)
    }
}

// ---------------------------------------------------------------------------
// Expected: jittered Table-4 mixes.

/// Jitters one calibrated benchmark profile within its envelope. The base
/// name is kept so manifests stay readable; only the numeric parameters
/// move, and every result still satisfies `BenchmarkProfile::validate`.
fn jitter_profile(rng: &mut SmallRng, base: &BenchmarkProfile) -> BenchmarkProfile {
    let mut p = base.clone();
    p.mem.warm_frac = jitter(rng, p.mem.warm_frac, 0.2).clamp(0.0, 0.6);
    p.mem.cold_frac = jitter(rng, p.mem.cold_frac, 0.2).clamp(0.0, 0.3);
    if p.mem.warm_frac + p.mem.cold_frac > 0.9 {
        p.mem.warm_frac = 0.9 - p.mem.cold_frac;
    }
    p.mem.pointer_chase = jitter(rng, p.mem.pointer_chase.max(0.01), 0.2).clamp(0.0, 1.0);
    p.mem.streaming = jitter(rng, p.mem.streaming.max(0.01), 0.2).clamp(0.0, 1.0);
    p.dep_mean = jitter(rng, p.dep_mean, 0.15).max(1.5);
    p.branches.biased_frac = jitter(rng, p.branches.biased_frac, 0.03).clamp(0.5, 0.99);
    p.phases.compute_len = jitter(rng, p.phases.compute_len, 0.25).max(50.0);
    p.phases.mem_len = jitter(rng, p.phases.mem_len, 0.25).max(50.0);
    p
}

fn expected_profiles(spec: &FamilySpec, rng: &mut SmallRng) -> Vec<BenchmarkProfile> {
    let pool: Vec<Workload> = table4_workloads()
        .into_iter()
        .filter(|w| (spec.min_threads..=spec.max_threads).contains(&w.threads()))
        .collect();
    let w = &pool[rng.gen_range(0..pool.len())];
    w.benchmarks
        .iter()
        .map(|b| {
            let base = spec::profile(b).expect("Table-4 benchmark has a profile");
            jitter_profile(rng, base)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Stress: pathological machine-pressure shapes.

/// The four stress archetypes, cycled deterministically over the mix index
/// so every family covers all of them.
#[derive(Debug, Clone, Copy)]
enum StressArchetype {
    /// Floods the MSHRs with independent cold misses.
    MshrPressure,
    /// Random jumps over a footprint far larger than the DTLB reach.
    TlbThrash,
    /// Every thread an extreme MEM profile (100% MEM mix).
    AllMem,
    /// Short, violent memory/compute flips with hostile control flow.
    BranchyFlips,
}

const STRESS_ARCHETYPES: [StressArchetype; 4] = [
    StressArchetype::MshrPressure,
    StressArchetype::TlbThrash,
    StressArchetype::AllMem,
    StressArchetype::BranchyFlips,
];

fn stress_profiles(spec: &FamilySpec, index: usize, rng: &mut SmallRng) -> Vec<BenchmarkProfile> {
    let archetype = STRESS_ARCHETYPES[index % STRESS_ARCHETYPES.len()];
    let threads = pick(rng, spec.min_threads, spec.max_threads);
    (0..threads)
        .map(|slot| stress_profile(archetype, slot, rng))
        .collect()
}

fn stress_profile(archetype: StressArchetype, slot: usize, rng: &mut SmallRng) -> BenchmarkProfile {
    match archetype {
        StressArchetype::MshrPressure => {
            BenchmarkProfile::builder(format!("stress-mshr-t{slot}"), Suite::Int)
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    cold_bytes: 64 * 1024 * 1024,
                    warm_frac: jitter(rng, 0.05, 0.3),
                    // Many cold misses with *no* pointer chasing: every one
                    // is independent, so the MSHR file fills as deep as the
                    // window allows.
                    cold_frac: rng.gen_range(0.10..0.20),
                    pointer_chase: rng.gen_range(0.0..0.05),
                    streaming: rng.gen_range(0.05..0.2),
                })
                .dep_mean(rng.gen_range(12.0..16.0))
                .phases(PhaseBehavior {
                    compute_len: rng.gen_range(300.0..800.0),
                    mem_len: rng.gen_range(3000.0..6000.0),
                    mem_boost: 1.5,
                    compute_damp: 0.2,
                })
                .mem_bound(true)
                .build()
                .expect("stress-mshr profile validates")
        }
        StressArchetype::TlbThrash => {
            BenchmarkProfile::builder(format!("stress-tlb-t{slot}"), Suite::Int)
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    // A footprint of tens of thousands of pages, touched at
                    // random (streaming 0): nearly every cold access is a
                    // DTLB miss on top of the L2 miss.
                    cold_bytes: 256 * 1024 * 1024,
                    warm_frac: jitter(rng, 0.04, 0.3),
                    cold_frac: rng.gen_range(0.08..0.15),
                    pointer_chase: rng.gen_range(0.05..0.15),
                    streaming: 0.0,
                })
                .dep_mean(rng.gen_range(6.0..10.0))
                .phases(PhaseBehavior {
                    compute_len: rng.gen_range(500.0..1500.0),
                    mem_len: rng.gen_range(2000.0..5000.0),
                    mem_boost: 1.5,
                    compute_damp: 0.2,
                })
                .mem_bound(true)
                .build()
                .expect("stress-tlb profile validates")
        }
        StressArchetype::AllMem => {
            // An extreme jittered clone of one of the paper's four heaviest
            // MEM benchmarks; with every thread drawing one, the mix is
            // 100% MEM.
            let base_name = ["mcf", "art", "swim", "equake"][rng.gen_range(0..4usize)];
            let base = spec::profile(base_name).expect("MEM benchmark profile");
            let mut p = jitter_profile(rng, base);
            p.name = format!("stress-mem-{base_name}-t{slot}");
            p.mem.cold_frac = (p.mem.cold_frac * 1.5).min(0.3);
            p.mem_bound = true;
            p
        }
        StressArchetype::BranchyFlips => {
            BenchmarkProfile::builder(format!("stress-branchy-t{slot}"), Suite::Int)
                .branches(BranchBehavior {
                    sites: 384,
                    // Less than half the dynamic branches come from
                    // learnable sites: the predictor is wrong often, and
                    // the huge code footprint thrashes the I-cache on
                    // every excursion.
                    biased_frac: rng.gen_range(0.4..0.6),
                    random_taken_rate: 0.5,
                    call_frac: 0.08,
                    code_bytes: 256 * 1024 + rng.gen_range(0..256u64) * 1024,
                })
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    cold_bytes: 24 * 1024 * 1024,
                    warm_frac: jitter(rng, 0.08, 0.3),
                    cold_frac: jitter(rng, 0.01, 0.3),
                    pointer_chase: 0.3,
                    streaming: 0.2,
                })
                .dep_mean(rng.gen_range(3.0..5.0))
                .phases(PhaseBehavior {
                    // Rapid flips: phases of a few hundred instructions,
                    // with a violent miss-density swing between them.
                    compute_len: rng.gen_range(150.0..400.0),
                    mem_len: rng.gen_range(150.0..400.0),
                    mem_boost: 4.0,
                    compute_damp: 0.1,
                })
                .mem_bound(true)
                .build()
                .expect("stress-branchy profile validates")
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial: one antagonist per policy heuristic.

fn adversarial_profiles(
    spec: &FamilySpec,
    target: PolicyTarget,
    rng: &mut SmallRng,
) -> Vec<BenchmarkProfile> {
    let threads = pick(rng, spec.min_threads.max(2), spec.max_threads.max(2));
    let mut profiles = Vec::with_capacity(threads);
    profiles.push(antagonist(target, rng));
    // Victims: jittered high-ILP co-runners — the threads whose progress
    // the antagonist is built to tax through the targeted policy.
    let victims = ["gzip", "gcc", "bzip2", "wupwise", "mesa", "eon"];
    for _ in 1..threads {
        let base = spec::profile(victims[rng.gen_range(0..victims.len())])
            .expect("victim benchmark profile");
        profiles.push(jitter_profile(rng, base));
    }
    profiles
}

/// Builds the dedicated antagonist profile for `target`. Each shape
/// exploits the specific signal the policy acts on; the knob constants
/// ([`L2_DETECT_DELAY`](smt_isa::knobs::L2_DETECT_DELAY),
/// [`FLUSHPP_PRESSURE_WINDOW`], [`DCRA_ACTIVITY_WINDOW`]) anchor the
/// timing-sensitive ones.
fn antagonist(target: PolicyTarget, rng: &mut SmallRng) -> BenchmarkProfile {
    let name = format!("adv-{}", target.name().to_ascii_lowercase());
    match target {
        // RR hands the stalled thread its full fetch share every rotation;
        // ICOUNT only counts pre-issue instructions, so a pointer-chasing
        // thread whose loads sit *post-issue* waiting on memory looks
        // cheap and is fetched into the shared window until it clogs it.
        PolicyTarget::RoundRobin | PolicyTarget::Icount => {
            let chase = if target == PolicyTarget::Icount {
                rng.gen_range(0.9..0.99)
            } else {
                rng.gen_range(0.8..0.95)
            };
            BenchmarkProfile::builder(name, Suite::Int)
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    cold_bytes: 64 * 1024 * 1024,
                    warm_frac: jitter(rng, 0.10, 0.2),
                    cold_frac: rng.gen_range(0.05..0.10),
                    pointer_chase: chase,
                    streaming: 0.05,
                })
                .dep_mean(rng.gen_range(2.0..3.0))
                .phases(PhaseBehavior {
                    compute_len: rng.gen_range(300.0..700.0),
                    mem_len: rng.gen_range(3000.0..6000.0),
                    mem_boost: 1.5,
                    compute_damp: 0.2,
                })
                .mem_bound(true)
                .build()
                .expect("RR/ICOUNT antagonist validates")
        }
        // STALL and FLUSH trigger only on *detected L2 misses*
        // (L2_DETECT_DELAY cycles after issue); DG gates on pending L1
        // misses. A warm-region-heavy thread misses the L1 on most loads
        // but always hits the L2 — each load stalls for just under the
        // trigger latency, the thread crawls, and STALL/FLUSH never fire
        // (while DG fires *constantly* for misses too cheap to be worth
        // gating).
        PolicyTarget::Stall | PolicyTarget::Flush | PolicyTarget::DataGating => {
            let cold = if target == PolicyTarget::Flush {
                // FLUSH additionally gets frequent independent L2 misses:
                // each detection throws away a window of overlapping work
                // (a flush storm), on top of the under-threshold crawl.
                rng.gen_range(0.03..0.06)
            } else {
                rng.gen_range(0.0..0.001)
            };
            BenchmarkProfile::builder(name, Suite::Int)
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    cold_bytes: 64 * 1024 * 1024,
                    warm_frac: rng.gen_range(0.5..0.65),
                    cold_frac: cold,
                    pointer_chase: 0.0,
                    streaming: 0.3,
                })
                .dep_mean(rng.gen_range(2.5..4.0))
                .phases(PhaseBehavior {
                    compute_len: rng.gen_range(400.0..900.0),
                    mem_len: rng.gen_range(2000.0..4000.0),
                    mem_boost: 1.3,
                    compute_damp: 0.3,
                })
                .mem_bound(target == PolicyTarget::Flush)
                .build()
                .expect("STALL/FLUSH/DG antagonist validates")
        }
        // FLUSH++ reclassifies at a fixed cycle period; phases that flip
        // at about that period keep its cached pressure count one window
        // stale, so it stalls when it should flush and flushes when it
        // should stall.
        PolicyTarget::FlushPlusPlus => {
            // ~1.5 IPC turns the cycle window into an instruction count.
            let window_insts = FLUSHPP_PRESSURE_WINDOW as f64 * 1.5;
            BenchmarkProfile::builder(name, Suite::Int)
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    cold_bytes: 64 * 1024 * 1024,
                    warm_frac: jitter(rng, 0.12, 0.2),
                    cold_frac: rng.gen_range(0.02..0.05),
                    pointer_chase: 0.2,
                    streaming: 0.2,
                })
                .dep_mean(rng.gen_range(4.0..7.0))
                .phases(PhaseBehavior {
                    compute_len: jitter(rng, window_insts, 0.3),
                    mem_len: jitter(rng, window_insts, 0.3),
                    mem_boost: 3.0,
                    compute_damp: 0.05,
                })
                .mem_bound(true)
                .build()
                .expect("FLUSH++ antagonist validates")
        }
        // PDG predicts per-PC whether a load will miss; a thread whose
        // loads miss the L1 about a third of the time, interleaved at
        // random from the same sites, keeps the predictor near maximum
        // entropy — it gates hits and lets misses through.
        PolicyTarget::PredictiveDataGating => BenchmarkProfile::builder(name, Suite::Int)
            .mem(MemBehavior {
                hot_bytes: 8 * 1024,
                warm_bytes: 8 * 1024,
                cold_bytes: 24 * 1024 * 1024,
                warm_frac: rng.gen_range(0.3..0.45),
                cold_frac: rng.gen_range(0.001..0.004),
                pointer_chase: 0.1,
                streaming: 0.5,
            })
            .dep_mean(rng.gen_range(5.0..7.0))
            .phases(PhaseBehavior {
                compute_len: rng.gen_range(800.0..1600.0),
                mem_len: rng.gen_range(800.0..1600.0),
                mem_boost: 1.2,
                compute_damp: 0.8,
            })
            .mem_bound(false)
            .build()
            .expect("PDG antagonist validates"),
        // SRA carves the machine into equal static shares; a thread that
        // can't use its share (serial pointer chase, dependence distance
        // ~2) wastes it while the co-runners are starved of the entries
        // they could turn into throughput.
        PolicyTarget::Sra => BenchmarkProfile::builder(name, Suite::Int)
            .mem(MemBehavior {
                hot_bytes: 8 * 1024,
                warm_bytes: 8 * 1024,
                cold_bytes: 64 * 1024 * 1024,
                warm_frac: jitter(rng, 0.08, 0.2),
                cold_frac: rng.gen_range(0.04..0.08),
                pointer_chase: rng.gen_range(0.85..0.95),
                streaming: 0.05,
            })
            .dep_mean(2.0)
            .phases(PhaseBehavior {
                compute_len: rng.gen_range(200.0..500.0),
                mem_len: rng.gen_range(4000.0..8000.0),
                mem_boost: 1.3,
                compute_damp: 0.2,
            })
            .mem_bound(true)
            .build()
            .expect("SRA antagonist validates"),
        // DCRA tracks FP activity with a decaying counter reset on every
        // FP allocation; FP ops spaced to arrive at about one per activity
        // window keep the thread flickering between FP-active and
        // FP-inactive, so its FP share is perpetually being reclaimed and
        // re-granted while memory phases flip underneath.
        PolicyTarget::Dcra => {
            // ~1.5 IPC: one FP op per window-and-a-bit of cycles.
            let gap_insts = f64::from(DCRA_ACTIVITY_WINDOW) * 1.5 * rng.gen_range(0.9..1.3);
            let fp_weight = 1.0 / gap_insts;
            let mix = InstMix {
                load: 0.26,
                store: 0.10,
                branch: 0.12,
                int_alu: 0.48 - fp_weight,
                int_mul: 0.04,
                fp_alu: fp_weight,
                fp_mul: 0.0,
                fp_div: 0.0,
            };
            BenchmarkProfile::builder(name, Suite::Fp)
                .mix(mix)
                .mem(MemBehavior {
                    hot_bytes: 8 * 1024,
                    warm_bytes: 8 * 1024,
                    cold_bytes: 64 * 1024 * 1024,
                    warm_frac: jitter(rng, 0.10, 0.2),
                    cold_frac: rng.gen_range(0.02..0.05),
                    pointer_chase: 0.4,
                    streaming: 0.2,
                })
                .dep_mean(rng.gen_range(3.0..5.0))
                .fp_load_frac(0.05)
                .phases(PhaseBehavior {
                    compute_len: rng.gen_range(250.0..500.0),
                    mem_len: rng.gen_range(250.0..500.0),
                    mem_boost: 2.5,
                    compute_damp: 0.2,
                })
                .mem_bound(true)
                .build()
                .expect("DCRA antagonist validates")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure() {
        for profile in [
            ScenarioProfile::Expected,
            ScenarioProfile::Stress,
            ScenarioProfile::Adversarial(PolicyTarget::Dcra),
        ] {
            let spec = FamilySpec {
                name: profile.tag(),
                profile,
                mixes: 6,
                min_threads: 2,
                max_threads: 4,
            };
            let a = ScenarioFamily::generate(&spec, 7).unwrap();
            let b = ScenarioFamily::generate(&spec, 7).unwrap();
            assert_eq!(a, b, "{} family must be pure", profile.tag());
        }
    }

    #[test]
    fn mixes_can_be_generated_independently() {
        let spec = FamilySpec::stress(8);
        let fam = ScenarioFamily::generate(&spec, 11).unwrap();
        for (i, mix) in fam.mixes().iter().enumerate() {
            assert_eq!(*mix, generate_mix(&spec, 11, i), "mix {i} order-dependent");
        }
    }

    #[test]
    fn seeds_move_the_mixes() {
        let spec = FamilySpec::expected(4);
        let a = ScenarioFamily::generate(&spec, 1).unwrap();
        let b = ScenarioFamily::generate(&spec, 2).unwrap();
        assert_ne!(a.mixes(), b.mixes());
    }

    #[test]
    fn every_generated_profile_validates() {
        let mut specs = vec![FamilySpec::expected(12), FamilySpec::stress(12)];
        specs.extend(PolicyTarget::ALL.map(|t| FamilySpec::adversarial(t, 4)));
        for spec in specs {
            let fam = ScenarioFamily::generate(&spec, 3).unwrap();
            for mix in fam.mixes() {
                assert!((2..=4).contains(&mix.threads()), "{} thread count", mix.id);
                for p in &mix.profiles {
                    p.validate()
                        .unwrap_or_else(|e| panic!("{}: {}: {e}", mix.id, p.name));
                }
            }
        }
    }

    #[test]
    fn adversarial_antagonist_rides_thread_zero() {
        for target in PolicyTarget::ALL {
            let spec = FamilySpec::adversarial(target, 3);
            let fam = ScenarioFamily::generate(&spec, 5).unwrap();
            for mix in fam.mixes() {
                assert!(
                    mix.profiles[0].name.starts_with("adv-"),
                    "{}: thread 0 is {}",
                    mix.id,
                    mix.profiles[0].name
                );
            }
        }
    }

    #[test]
    fn stress_family_covers_all_archetypes() {
        let fam = ScenarioFamily::generate(&FamilySpec::stress(8), 9).unwrap();
        for marker in ["stress-mshr", "stress-tlb", "stress-mem", "stress-branchy"] {
            assert!(
                fam.mixes()
                    .iter()
                    .any(|m| m.profiles.iter().any(|p| p.name.starts_with(marker))),
                "no {marker} mix generated"
            );
        }
    }

    #[test]
    fn policy_target_names_round_trip() {
        for t in PolicyTarget::ALL {
            assert_eq!(PolicyTarget::from_name(t.name()), Some(t));
        }
        assert_eq!(
            PolicyTarget::from_name("flush_pp"),
            Some(PolicyTarget::FlushPlusPlus)
        );
        assert_eq!(PolicyTarget::from_name("NOPE"), None);
    }

    #[test]
    fn spec_validation_rejects_degenerate_shapes() {
        let mut s = FamilySpec::expected(0);
        assert!(s.validate().is_err(), "zero mixes");
        s.mixes = 4;
        s.min_threads = 5;
        s.max_threads = 4;
        assert!(s.validate().is_err(), "empty thread range");
        s.min_threads = 2;
        s.max_threads = ThreadId::MAX_THREADS + 1;
        assert!(s.validate().is_err(), "beyond ThreadId::MAX_THREADS");
        s.max_threads = 4;
        assert!(s.validate().is_ok());
        // Expected families need a Table-4 workload in range; 5..=8 has
        // none (Table 4 stops at 4 threads).
        let mut e = FamilySpec::expected(4);
        e.min_threads = 5;
        e.max_threads = 8;
        assert!(e.validate().is_err());
        // Stress families synthesize their own shapes at any thread count.
        let mut st = FamilySpec::stress(4);
        st.min_threads = 5;
        st.max_threads = 8;
        assert!(st.validate().is_ok());
    }
}
