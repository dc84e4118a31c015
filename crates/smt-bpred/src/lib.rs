//! Branch-prediction substrate for the DCRA-SMT simulator.
//!
//! Models the paper's front end (Table 2): a 16K-entry **gshare** direction
//! predictor, a 256-entry 4-way **branch target buffer** and a 256-entry
//! **return address stack** per thread. The [`BranchPredictor`] facade wires
//! the three structures together and exposes the predict/update interface the
//! fetch stage uses.
//!
//! # Examples
//!
//! ```
//! use smt_bpred::{BranchPredictor, PredictorConfig};
//! use smt_isa::{BranchInfo, BranchKind, ThreadId};
//!
//! let mut bp = BranchPredictor::new(&PredictorConfig::default(), 4);
//! let t = ThreadId::new(0);
//! let actual = BranchInfo { kind: BranchKind::Conditional, taken: true, target: 0x40 };
//! // Predict, then train on the outcome.
//! let pred = bp.predict(t, 0x1000, actual.kind);
//! bp.update(t, 0x1000, actual, pred);
//! ```

#![warn(missing_docs)]

mod btb;
mod gshare;
mod ras;

pub use btb::BranchTargetBuffer;
pub use gshare::Gshare;
pub use ras::ReturnAddressStack;

use serde::{Deserialize, Serialize};
use smt_isa::{BranchInfo, BranchKind, ThreadId};

/// Configuration of the branch-prediction structures.
///
/// Defaults match the paper's baseline (Table 2): 16K-entry gshare,
/// 256-entry 4-way BTB, 256-entry RAS.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Number of 2-bit counters in the gshare pattern history table.
    pub gshare_entries: usize,
    /// Total BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth (per thread).
    pub ras_entries: usize,
    /// Global-history length (bits) of the gshare predictor. Shorter
    /// histories train far faster on the synthetic branch-site populations
    /// used by the workload substrate.
    pub history_bits: u32,
}

impl PredictorConfig {
    /// Checks every size [`BranchPredictor::new`] relies on: a
    /// power-of-two gshare table, a BTB with at least one way, a multiple
    /// of `btb_ways` entries and a power-of-two set count, and a non-empty
    /// RAS.
    pub fn validate(&self) -> Result<(), String> {
        Gshare::validate(self.gshare_entries)?;
        BranchTargetBuffer::validate(self.btb_entries, self.btb_ways)?;
        ReturnAddressStack::validate(self.ras_entries)
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            gshare_entries: 16 * 1024,
            btb_entries: 256,
            btb_ways: 4,
            ras_entries: 256,
            history_bits: 8,
        }
    }
}

/// Outcome of a branch prediction, carried with the instruction until the
/// branch resolves so the predictor can be trained and mispredictions
/// detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target (`None` when the BTB missed or the branch was
    /// predicted not-taken).
    pub target: Option<u64>,
}

impl Prediction {
    /// `true` if the prediction disagrees with the actual outcome, either in
    /// direction or (for taken branches) in target.
    #[inline]
    pub fn mispredicted(&self, actual: BranchInfo) -> bool {
        if self.taken != actual.taken {
            return true;
        }
        if actual.taken {
            match self.target {
                Some(t) => t != actual.target,
                None => true,
            }
        } else {
            false
        }
    }
}

/// The complete front-end predictor: gshare + BTB + per-thread RAS.
///
/// Branch history registers are per-thread (so threads do not destructively
/// alias each other's history) while the pattern history table and BTB are
/// shared, modelling the resource interference that an SMT front end really
/// has.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Gshare,
    btb: BranchTargetBuffer,
    ras: Vec<ReturnAddressStack>,
    stats: PredictorStats,
}

/// Aggregate prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub cond_lookups: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Target mispredictions (BTB/RAS wrong or missing on a taken branch).
    pub target_mispredicts: u64,
}

impl PredictorStats {
    /// Direction misprediction rate over conditional branches, in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_lookups == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_lookups as f64
        }
    }
}

impl BranchPredictor {
    /// Creates a predictor for `threads` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PredictorConfig::validate`].
    pub fn new(config: &PredictorConfig, threads: usize) -> Self {
        BranchPredictor {
            gshare: Gshare::with_history(config.gshare_entries, threads, config.history_bits),
            btb: BranchTargetBuffer::new(config.btb_entries, config.btb_ways),
            ras: (0..threads)
                .map(|_| ReturnAddressStack::new(config.ras_entries))
                .collect(),
            stats: PredictorStats::default(),
        }
    }

    /// Predicts the branch at `pc` for thread `t`.
    ///
    /// Calls (`BranchKind::Call`) push `pc + 4` on the thread's RAS; returns
    /// pop it. Unconditional kinds are always predicted taken.
    pub fn predict(&mut self, t: ThreadId, pc: u64, kind: BranchKind) -> Prediction {
        match kind {
            BranchKind::Conditional => {
                self.stats.cond_lookups += 1;
                let taken = self.gshare.predict(t, pc);
                let target = if taken { self.btb.lookup(pc) } else { None };
                Prediction { taken, target }
            }
            BranchKind::Jump => Prediction {
                taken: true,
                target: self.btb.lookup(pc),
            },
            BranchKind::Call => {
                self.ras[t.index()].push(pc.wrapping_add(4));
                Prediction {
                    taken: true,
                    target: self.btb.lookup(pc),
                }
            }
            BranchKind::Return => Prediction {
                taken: true,
                target: self.ras[t.index()].pop(),
            },
        }
    }

    /// Trains the predictor with the actual outcome of a previously predicted
    /// branch and records misprediction statistics.
    pub fn update(&mut self, t: ThreadId, pc: u64, actual: BranchInfo, prediction: Prediction) {
        if actual.kind == BranchKind::Conditional {
            self.gshare.update(t, pc, actual.taken);
            if prediction.taken != actual.taken {
                self.stats.cond_mispredicts += 1;
            } else if actual.taken && prediction.target != Some(actual.target) {
                self.stats.target_mispredicts += 1;
            }
        } else if prediction.mispredicted(actual) {
            self.stats.target_mispredicts += 1;
        }
        if actual.taken && actual.kind != BranchKind::Return {
            self.btb.insert(pc, actual.target);
        }
    }

    /// Repairs the thread's RAS after a pipeline flush (squashed calls and
    /// returns leave the stack slightly off; real hardware checkpoints, we
    /// conservatively clear).
    pub fn flush_thread(&mut self, t: ThreadId) {
        self.ras[t.index()].clear();
    }

    /// Prediction statistics accumulated so far.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Clears accumulated statistics (predictor state is kept). Used when a
    /// measurement window starts after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
    }

    /// Returns the whole front end to its power-on state — untrained
    /// gshare, empty BTB and RAS, zeroed statistics — retaining every
    /// allocation. Bit-identical to a freshly constructed predictor;
    /// simulation sessions rely on this to reuse one predictor across
    /// many runs.
    pub fn reset_cold(&mut self) {
        self.gshare.reset_cold();
        self.btb.reset_cold();
        for ras in &mut self.ras {
            ras.clear();
        }
        self.stats = PredictorStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(taken: bool, target: u64) -> BranchInfo {
        BranchInfo {
            kind: BranchKind::Conditional,
            taken,
            target,
        }
    }

    #[test]
    fn learns_strongly_biased_branch() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default(), 2);
        let t = ThreadId::new(0);
        // Train a always-taken loop branch.
        for _ in 0..64 {
            let p = bp.predict(t, 0x1000, BranchKind::Conditional);
            bp.update(t, 0x1000, cond(true, 0x0f00), p);
        }
        let p = bp.predict(t, 0x1000, BranchKind::Conditional);
        assert!(p.taken, "gshare should learn an always-taken branch");
        assert_eq!(p.target, Some(0x0f00), "BTB should supply the target");
        assert!(bp.stats().mispredict_rate() < 0.5);
    }

    #[test]
    fn ras_predicts_matching_return() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default(), 1);
        let t = ThreadId::new(0);
        let call = BranchInfo {
            kind: BranchKind::Call,
            taken: true,
            target: 0x4000,
        };
        let p = bp.predict(t, 0x100, BranchKind::Call);
        bp.update(t, 0x100, call, p);
        let ret = bp.predict(t, 0x4040, BranchKind::Return);
        assert_eq!(ret.target, Some(0x104), "RAS should return call-site + 4");
    }

    #[test]
    fn mispredict_detection_covers_direction_and_target() {
        let p = Prediction {
            taken: true,
            target: Some(0x40),
        };
        assert!(p.mispredicted(cond(false, 0)));
        assert!(p.mispredicted(cond(true, 0x80)));
        assert!(!p.mispredicted(cond(true, 0x40)));
        let nt = Prediction {
            taken: false,
            target: None,
        };
        assert!(!nt.mispredicted(cond(false, 0)));
        assert!(nt.mispredicted(cond(true, 0x40)));
    }

    #[test]
    fn flush_clears_ras() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default(), 1);
        let t = ThreadId::new(0);
        bp.predict(t, 0x100, BranchKind::Call);
        bp.flush_thread(t);
        let ret = bp.predict(t, 0x200, BranchKind::Return);
        assert_eq!(ret.target, None, "flushed RAS must not supply a target");
    }

    #[test]
    fn per_thread_history_is_isolated() {
        let mut bp = BranchPredictor::new(&PredictorConfig::default(), 2);
        let (a, b) = (ThreadId::new(0), ThreadId::new(1));
        // Thread A trains taken at one PC; thread B trains not-taken at a
        // different PC. Histories are separate, tables are shared.
        for _ in 0..32 {
            let pa = bp.predict(a, 0x1000, BranchKind::Conditional);
            bp.update(a, 0x1000, cond(true, 0x2000), pa);
            let pb = bp.predict(b, 0x3000, BranchKind::Conditional);
            bp.update(b, 0x3000, cond(false, 0x4000), pb);
        }
        assert!(bp.predict(a, 0x1000, BranchKind::Conditional).taken);
        assert!(!bp.predict(b, 0x3000, BranchKind::Conditional).taken);
    }
}
