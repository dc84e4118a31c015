//! Data Gating fetch policy (El-Moursy & Albonesi, HPCA'03).

use crate::icount::icount_order_into;
use smt_isa::ThreadId;
use smt_policy_core::{CycleView, Policy};

/// ICOUNT + stall-on-L1-data-miss: a thread with any pending L1 data miss
/// is fetch-gated until all its misses are serviced.
///
/// The paper's criticism (Section 2): fewer than half of L1 misses turn
/// into L2 misses for memory-bounded threads, so gating on *every* L1 miss
/// is too severe — the thread is stopped even when the data arrives from
/// the L2 in ~20 cycles and no resource abuse was imminent.
///
/// # Examples
///
/// ```
/// use smt_policies::DataGating;
/// use smt_policy_core::Policy;
///
/// assert_eq!(DataGating::default().name(), "DG");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataGating;

impl Policy for DataGating {
    fn name(&self) -> &'static str {
        "DG"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        view.l1d_pending(t) == 0
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        // Stateless per cycle: the gate reads the `l1d_pending` lane,
        // which only moves on events.
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::PerResource;
    use smt_policy_core::ThreadView;

    #[test]
    fn gates_on_any_pending_l1_miss() {
        let mut p = DataGating;
        let a = ThreadView {
            l1d_pending: 2,
            ..ThreadView::default()
        };
        let v = CycleView::new(0, PerResource::filled(80), &[a, ThreadView::default()]);
        assert!(!p.fetch_gate(ThreadId::new(0), &v));
        assert!(p.fetch_gate(ThreadId::new(1), &v));
    }
}
