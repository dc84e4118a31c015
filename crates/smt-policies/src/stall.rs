//! STALL fetch policy (Tullsen & Brown, MICRO'01).

use crate::icount::icount_order_into;
use smt_isa::ThreadId;
use smt_policy_core::{CycleView, MissResponse, Policy};

/// ICOUNT + stall-on-L2-miss: when a thread is detected to have an
/// outstanding L2 miss, it stops fetching until the miss is serviced.
///
/// As the paper notes, the detection "already may be too late": by the time
/// the L2 miss is known (one L2 latency after the access), the thread has
/// kept fetching and may already hold many shared entries. STALL also
/// introduces resource *under-use*: the stalled thread's resources may not
/// be needed by anyone else.
///
/// # Examples
///
/// ```
/// use smt_policies::Stall;
/// use smt_policy_core::Policy;
///
/// assert_eq!(Stall::default().name(), "STALL");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stall;

impl Policy for Stall {
    fn name(&self) -> &'static str {
        "STALL"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        // Belt and braces: the simulator also stalls the thread via the
        // Stall response below, but gating on the pending counter keeps the
        // thread stopped while *any* detected L2 miss is outstanding.
        view.l2_pending(t) == 0
    }

    fn on_l2_miss_detected(&mut self, _t: ThreadId, _view: &CycleView) -> MissResponse {
        MissResponse::Stall
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        // Stateless per cycle: order and gate are pure functions of the
        // view (the `l2_pending` lane only moves on events, which end an
        // idle span).
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::PerResource;
    use smt_policy_core::ThreadView;

    #[test]
    fn gates_thread_with_pending_l2_miss() {
        let mut p = Stall;
        let tv = ThreadView {
            l2_pending: 1,
            ..ThreadView::default()
        };
        let v = CycleView::new(0, PerResource::filled(80), &[tv, ThreadView::default()]);
        assert!(!p.fetch_gate(ThreadId::new(0), &v));
        assert!(p.fetch_gate(ThreadId::new(1), &v));
        assert_eq!(
            p.on_l2_miss_detected(ThreadId::new(0), &v),
            MissResponse::Stall
        );
    }
}
