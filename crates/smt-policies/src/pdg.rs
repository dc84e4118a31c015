//! Predictive Data Gating fetch policy (El-Moursy & Albonesi, HPCA'03).

use crate::icount::icount_order_into;
use fxhash::FxHashMap;
use smt_isa::{InstClass, PackedInst, ThreadId};
use smt_policy_core::{CycleView, Policy};

/// PDG stalls a thread as soon as a load *predicted* to miss the L1 is
/// fetched, instead of waiting for the miss to be detected (DG). The miss
/// predictor is a table of 2-bit saturating counters indexed by load PC,
/// trained on actual L1 outcomes at load completion.
///
/// As the paper notes (citing Yoaz et al.), cache misses are hard to
/// predict; mispredicted gates stall threads without cause and missed
/// predictions fall back to DG-like late gating.
///
/// # Examples
///
/// ```
/// use smt_policies::PredictiveDataGating;
/// use smt_policy_core::Policy;
///
/// assert_eq!(PredictiveDataGating::default().name(), "PDG");
/// ```
#[derive(Debug, Clone)]
pub struct PredictiveDataGating {
    /// 2-bit miss-confidence counters indexed by hashed load PC.
    table: Vec<u8>,
    /// Per-thread count of in-flight loads that were predicted to miss.
    predicted_inflight: Vec<u32>,
    /// Per-thread multiset of in-flight predicted-miss load PCs, to release
    /// the gate when they complete or are squashed. Touched on every load
    /// fetch/completion, hence the Fx-hashed map.
    inflight_pcs: Vec<FxHashMap<u64, u32>>,
}

impl Default for PredictiveDataGating {
    fn default() -> Self {
        PredictiveDataGating {
            table: vec![1; 4096],
            predicted_inflight: Vec::new(),
            inflight_pcs: Vec::new(),
        }
    }
}

impl PredictiveDataGating {
    fn slot(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }

    fn predicts_miss(&self, pc: u64) -> bool {
        self.table[self.slot(pc)] >= 2
    }

    fn ensure(&mut self, n: usize) {
        if self.predicted_inflight.len() < n {
            self.predicted_inflight.resize(n, 0);
            self.inflight_pcs.resize(n, FxHashMap::default());
        }
    }

    fn release(&mut self, tid: usize, pc: u64) {
        if let Some(c) = self.inflight_pcs[tid].get_mut(&pc) {
            *c -= 1;
            if *c == 0 {
                self.inflight_pcs[tid].remove(&pc);
            }
            self.predicted_inflight[tid] -= 1;
        }
    }
}

impl Policy for PredictiveDataGating {
    fn name(&self) -> &'static str {
        "PDG"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        self.ensure(view.thread_count());
        // Gate on predicted misses (the predictive part) and on real
        // pending misses the predictor failed to anticipate (DG fallback).
        self.predicted_inflight[t.index()] == 0 && view.l1d_pending(t) == 0
    }

    fn on_fetch_inst(&mut self, t: ThreadId, inst: &PackedInst) {
        if inst.class() != InstClass::Load {
            return;
        }
        self.ensure(t.index() + 1);
        if self.predicts_miss(inst.pc) {
            self.predicted_inflight[t.index()] += 1;
            *self.inflight_pcs[t.index()].entry(inst.pc).or_insert(0) += 1;
        }
    }

    fn on_load_complete(&mut self, t: ThreadId, pc: u64, l1_missed: bool) {
        self.ensure(t.index() + 1);
        // Train the predictor with the actual outcome.
        let slot = self.slot(pc);
        let c = &mut self.table[slot];
        if l1_missed {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.release(t.index(), pc);
    }

    fn wants_squash_inst(&self) -> bool {
        true
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        // The predictor table and the in-flight multisets only move on
        // fetch, load completion and squash — none of which happen on an
        // idle cycle — so the gate decision is frozen for the whole span.
        n
    }

    fn on_squash_inst(&mut self, t: ThreadId, inst: &PackedInst) {
        if inst.class() == InstClass::Load {
            self.ensure(t.index() + 1);
            self.release(t.index(), inst.pc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::{PerResource, RegClass};
    use smt_policy_core::ThreadView;

    fn load(pc: u64) -> PackedInst {
        PackedInst::new(pc, InstClass::Load, Some(RegClass::Int), [0; 2], None)
    }

    fn view(n: usize) -> CycleView {
        CycleView::new(0, PerResource::filled(80), &vec![ThreadView::default(); n])
    }

    #[test]
    fn trains_and_gates_on_predicted_miss() {
        let mut p = PredictiveDataGating::default();
        let t = ThreadId::new(0);
        let v = view(1);
        // Train: the load at 0x100 misses repeatedly.
        for _ in 0..3 {
            p.on_load_complete(t, 0x100, true);
        }
        assert!(p.predicts_miss(0x100));
        // Fetching it now gates the thread...
        p.on_fetch_inst(t, &load(0x100));
        assert!(!p.fetch_gate(t, &v));
        // ...until it completes.
        p.on_load_complete(t, 0x100, true);
        assert!(p.fetch_gate(t, &v));
    }

    #[test]
    fn hits_untrain_the_predictor() {
        let mut p = PredictiveDataGating::default();
        let t = ThreadId::new(0);
        for _ in 0..3 {
            p.on_load_complete(t, 0x40, true);
        }
        for _ in 0..3 {
            p.on_load_complete(t, 0x40, false);
        }
        assert!(!p.predicts_miss(0x40));
    }

    #[test]
    fn squash_releases_the_gate() {
        let mut p = PredictiveDataGating::default();
        let t = ThreadId::new(0);
        let v = view(1);
        for _ in 0..3 {
            p.on_load_complete(t, 0x80, true);
        }
        p.on_fetch_inst(t, &load(0x80));
        assert!(!p.fetch_gate(t, &v));
        p.on_squash_inst(t, &load(0x80));
        assert!(p.fetch_gate(t, &v));
    }

    #[test]
    fn unpredicted_loads_do_not_gate() {
        let mut p = PredictiveDataGating::default();
        let t = ThreadId::new(0);
        let v = view(1);
        p.on_fetch_inst(t, &load(0x200));
        assert!(p.fetch_gate(t, &v));
        // Completion of an untracked load must not underflow.
        p.on_load_complete(t, 0x200, false);
        assert!(p.fetch_gate(t, &v));
    }
}
