//! FLUSH fetch policy (Tullsen & Brown, MICRO'01).

use crate::icount::icount_order_into;
use smt_isa::ThreadId;
use smt_policy_core::{CycleView, MissResponse, Policy};

/// ICOUNT + flush-on-L2-miss: when a thread's L2 miss is detected, every
/// instruction younger than the missing load is squashed, releasing all the
/// shared resources it held, and the thread stalls until the miss returns.
///
/// This corrects STALL's late detection, at the cost of a large increase in
/// front-end activity: the squashed instructions must be fetched, decoded
/// and renamed again (the paper measures ~2× front-end work vs DCRA).
///
/// # Examples
///
/// ```
/// use smt_policies::Flush;
/// use smt_policy_core::Policy;
///
/// assert_eq!(Flush::default().name(), "FLUSH");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flush;

impl Policy for Flush {
    fn name(&self) -> &'static str {
        "FLUSH"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        view.l2_pending(t) == 0
    }

    fn on_l2_miss_detected(&mut self, _t: ThreadId, _view: &CycleView) -> MissResponse {
        MissResponse::Flush
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        // Stateless per cycle, like STALL.
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::PerResource;
    use smt_policy_core::ThreadView;

    #[test]
    fn responds_with_flush() {
        let mut p = Flush;
        let v = CycleView::new(0, PerResource::filled(80), &[ThreadView::default()]);
        assert_eq!(
            p.on_l2_miss_detected(ThreadId::new(0), &v),
            MissResponse::Flush
        );
    }
}
