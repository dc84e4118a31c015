//! Statistical benchmark profiles.

use serde::{Deserialize, Serialize};

/// Which SPEC2000 sub-suite a benchmark belongs to (determines default
/// instruction mix and whether the thread ever touches FP resources —
/// integer programs are *inactive* for FP resources in DCRA's
/// classification, Section 3.1.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPECint2000-like.
    Int,
    /// SPECfp2000-like.
    Fp,
}

/// Instruction-class mix as sampling weights (need not sum to 1; they are
/// normalised at sampling time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstMix {
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Branches (conditional + calls/returns/jumps).
    pub branch: f64,
    /// Simple integer ALU.
    pub int_alu: f64,
    /// Integer multiply.
    pub int_mul: f64,
    /// FP add/compare.
    pub fp_alu: f64,
    /// FP multiply.
    pub fp_mul: f64,
    /// FP divide/sqrt.
    pub fp_div: f64,
}

impl InstMix {
    /// Typical integer-program mix.
    pub fn integer() -> Self {
        InstMix {
            load: 0.24,
            store: 0.10,
            branch: 0.14,
            int_alu: 0.47,
            int_mul: 0.05,
            fp_alu: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
        }
    }

    /// Typical FP-program mix.
    pub fn floating_point() -> Self {
        InstMix {
            load: 0.28,
            store: 0.10,
            branch: 0.05,
            int_alu: 0.22,
            int_mul: 0.01,
            fp_alu: 0.20,
            fp_mul: 0.12,
            fp_div: 0.02,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.load
            + self.store
            + self.branch
            + self.int_alu
            + self.int_mul
            + self.fp_alu
            + self.fp_mul
            + self.fp_div
    }

    /// `true` if any FP class has non-zero weight.
    pub fn uses_fp(&self) -> bool {
        self.fp_alu > 0.0 || self.fp_mul > 0.0 || self.fp_div > 0.0
    }
}

/// Memory behaviour: a nested-working-set model.
///
/// Data accesses draw from three regions:
///
/// * a **hot** region sized to stay L1-resident,
/// * a **warm** region sized to fit the L2 but not the L1,
/// * a **cold** region far larger than the L2.
///
/// The steady-state L1 miss ratio is then ≈ `warm_frac + cold_frac` and the
/// L2 (local) miss ratio ≈ `cold_frac / (warm_frac + cold_frac)`, which
/// makes the Table-3 calibration direct. `pointer_chase` controls how many
/// cold loads depend on the previous cold load — serial misses (mcf-like,
/// no memory parallelism) versus independent misses (art/swim-like, high
/// memory parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemBehavior {
    /// Bytes of the L1-resident hot region.
    pub hot_bytes: u64,
    /// Bytes of the L2-resident, L1-conflicting warm region (arranged as a
    /// conflict set: 4 tags per L1 set, so warm accesses always miss the
    /// L1 and always hit the L2 once warm).
    pub warm_bytes: u64,
    /// Bytes of the beyond-L2 cold region.
    pub cold_bytes: u64,
    /// Fraction of accesses to the warm region (baseline, compute phase).
    pub warm_frac: f64,
    /// Fraction of accesses to the cold region (baseline, compute phase).
    pub cold_frac: f64,
    /// Fraction of cold *loads* that chase pointers (depend on the previous
    /// cold load).
    pub pointer_chase: f64,
    /// Fraction of warm/cold accesses that stream sequentially (spatial
    /// locality within a line) rather than jump randomly.
    pub streaming: f64,
}

/// Branch behaviour: a population of synthetic static branch sites.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchBehavior {
    /// Number of static conditional-branch sites.
    pub sites: usize,
    /// Fraction of dynamic conditional branches coming from *biased* sites
    /// (strongly taken, easily learned by gshare); the remainder come from
    /// data-dependent sites with `random_taken_rate`.
    pub biased_frac: f64,
    /// Taken probability of the data-dependent sites.
    pub random_taken_rate: f64,
    /// Fraction of branch instructions that are calls (matched by returns).
    pub call_frac: f64,
    /// Code footprint in bytes (drives I-cache behaviour).
    pub code_bytes: u64,
}

/// Memory/compute phase alternation.
///
/// Programs alternate **compute** phases (baseline region fractions scaled
/// down) and **memory** phases (scaled up). The alternation produces the
/// fast/slow phase mixture that the paper's Table 5 measures and that DCRA's
/// continuous re-classification exploits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseBehavior {
    /// Mean length (instructions) of a compute phase.
    pub compute_len: f64,
    /// Mean length (instructions) of a memory phase.
    pub mem_len: f64,
    /// Multiplier applied to `warm_frac`/`cold_frac` during memory phases.
    pub mem_boost: f64,
    /// Multiplier applied during compute phases (≤ 1).
    pub compute_damp: f64,
}

/// Error returned when a profile fails validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileError(String);

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid benchmark profile: {}", self.0)
    }
}

impl std::error::Error for ProfileError {}

/// A complete statistical description of one benchmark.
///
/// Plain data: [`crate::spec`] builds the 20 SPEC2000-like profiles as
/// literals and checks each with [`BenchmarkProfile::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Benchmark name (paper's naming, e.g. `"mcf"`, `"perl"`).
    pub name: String,
    /// Sub-suite (integer or FP).
    pub suite: Suite,
    /// Instruction mix.
    pub mix: InstMix,
    /// Memory behaviour.
    pub mem: MemBehavior,
    /// Branch behaviour.
    pub branches: BranchBehavior,
    /// Phase alternation.
    pub phases: PhaseBehavior,
    /// Mean dependence distance (instructions); larger = more ILP.
    pub dep_mean: f64,
    /// Fraction of loads whose destination is an FP register (FP suites).
    pub fp_load_frac: f64,
    /// Whether this benchmark is memory-bounded by the paper's Table-3
    /// criterion (L2 miss rate above 1%). The calibrated profiles in
    /// [`crate::spec`] set it from the paper's measurements.
    pub mem_bound: bool,
}

impl BenchmarkProfile {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if any fraction is outside `[0, 1]`, the
    /// region fractions exceed 1 even after the phase boost, the mix is
    /// empty, or a region is empty while carrying weight.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let frac = |v: f64, what: &str| {
            if !(0.0..=1.0).contains(&v) {
                Err(ProfileError(format!("{what} = {v} outside [0,1]")))
            } else {
                Ok(())
            }
        };
        frac(self.mem.warm_frac, "warm_frac")?;
        frac(self.mem.cold_frac, "cold_frac")?;
        frac(self.mem.pointer_chase, "pointer_chase")?;
        frac(self.mem.streaming, "streaming")?;
        frac(self.branches.biased_frac, "biased_frac")?;
        frac(self.branches.random_taken_rate, "random_taken_rate")?;
        frac(self.branches.call_frac, "call_frac")?;
        frac(self.fp_load_frac, "fp_load_frac")?;
        for (weight, class) in [
            (self.mix.load, "load"),
            (self.mix.store, "store"),
            (self.mix.branch, "branch"),
            (self.mix.int_alu, "int_alu"),
            (self.mix.int_mul, "int_mul"),
            (self.mix.fp_alu, "fp_alu"),
            (self.mix.fp_mul, "fp_mul"),
            (self.mix.fp_div, "fp_div"),
        ] {
            if !weight.is_finite() || weight < 0.0 {
                return Err(ProfileError(format!(
                    "mix weight {class} = {weight} must be finite and non-negative"
                )));
            }
        }
        if self.mix.total() <= 0.0 {
            return Err(ProfileError("instruction mix has zero total weight".into()));
        }
        if self.mem.warm_frac + self.mem.cold_frac > 1.0 {
            return Err(ProfileError("warm_frac + cold_frac exceeds 1".into()));
        }
        if self.dep_mean < 1.0 {
            return Err(ProfileError(format!(
                "dep_mean {} must be >= 1",
                self.dep_mean
            )));
        }
        if self.branches.sites == 0 {
            return Err(ProfileError("need at least one branch site".into()));
        }
        if self.mem.hot_bytes < 64 || self.mem.warm_bytes < 64 || self.mem.cold_bytes < 64 {
            return Err(ProfileError(
                "memory regions must hold at least a line".into(),
            ));
        }
        Ok(())
    }

    /// `true` if, by Table 3's criterion, this profile is memory-bounded
    /// (L2 miss rate above 1%).
    pub fn is_mem_bound(&self) -> bool {
        self.mem_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn gzip() -> BenchmarkProfile {
        spec::profile("gzip").expect("registry profile").clone()
    }

    #[test]
    fn fp_suite_uses_fp() {
        let p = spec::profile("art").expect("registry profile");
        assert_eq!(p.suite, Suite::Fp);
        assert!(p.mix.uses_fp());
        assert!(p.fp_load_frac > 0.0);
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let mut p = gzip();
        p.mem.cold_frac = 1.5;
        assert!(p.validate().is_err());

        let mut p2 = gzip();
        p2.mem.warm_frac = 0.8;
        p2.mem.cold_frac = 0.5;
        assert!(p2.validate().is_err());
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        let mut p = gzip();
        p.dep_mean = 0.0;
        assert!(p.validate().is_err());

        let mut p2 = gzip();
        p2.branches.sites = 0;
        assert!(p2.validate().is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProfileError("warm_frac = 2 outside [0,1]".to_string());
        assert!(e.to_string().contains("warm_frac"));
    }
}
