//! The policy interface re-exported from `smt-policy-core`, plus the
//! statically-dispatched [`AnyPolicy`] the simulator's cycle loop runs.
//!
//! The trait and the per-cycle views live in the `smt-policy-core` crate
//! (below the concrete policy crates in the dependency graph); this module
//! remains the canonical import path. The simulator itself stores an
//! [`AnyPolicy`]: an enum over the nine concrete policies of the paper's
//! evaluation, so the ~20 policy callbacks per cycle are direct (inlineable)
//! calls instead of virtual dispatch. The enum is closed: a new policy is a
//! new variant.

pub use smt_policy_core::{CycleView, MissResponse, Policy, RoundRobin, ThreadView};

use smt_isa::{PackedInst, QueueKind, RegClass, ThreadId};

/// The nine canonical policies of the paper's evaluation, dispatched
/// statically.
///
/// Every [`Policy`] callback fans out through a single `match`, so in the
/// release build the concrete policy code inlines straight into the
/// simulator's cycle loop — no virtual calls on the hot path.
///
/// # Examples
///
/// ```
/// use smt_sim::policy::{AnyPolicy, Policy};
///
/// let p = AnyPolicy::from(smt_policies::Icount);
/// assert_eq!(p.name(), "ICOUNT");
/// ```
pub enum AnyPolicy {
    /// ROUND-ROBIN fetch.
    RoundRobin(RoundRobin),
    /// ICOUNT fetch (Tullsen et al.).
    Icount(smt_policies::Icount),
    /// STALL (ICOUNT + stall on detected L2 miss).
    Stall(smt_policies::Stall),
    /// FLUSH (ICOUNT + flush on detected L2 miss).
    Flush(smt_policies::Flush),
    /// FLUSH++ (adaptive STALL/FLUSH).
    FlushPlusPlus(smt_policies::FlushPlusPlus),
    /// Data Gating (stall on pending L1 data miss).
    DataGating(smt_policies::DataGating),
    /// Predictive Data Gating.
    PredictiveDataGating(smt_policies::PredictiveDataGating),
    /// Static even partitioning (SRA), capped or not.
    Sra(smt_policies::StaticAllocation),
    /// The paper's proposal, with or without degenerate-case detection.
    Dcra(dcra::Dcra),
}

/// Fans a callback out to the concrete policy: the same expression serves
/// all nine variants.
macro_rules! fan_out {
    ($self:ident, $p:ident => $call:expr) => {
        match $self {
            AnyPolicy::RoundRobin($p) => $call,
            AnyPolicy::Icount($p) => $call,
            AnyPolicy::Stall($p) => $call,
            AnyPolicy::Flush($p) => $call,
            AnyPolicy::FlushPlusPlus($p) => $call,
            AnyPolicy::DataGating($p) => $call,
            AnyPolicy::PredictiveDataGating($p) => $call,
            AnyPolicy::Sra($p) => $call,
            AnyPolicy::Dcra($p) => $call,
        }
    };
}

impl Policy for AnyPolicy {
    #[inline]
    fn name(&self) -> &'static str {
        fan_out!(self, p => p.name())
    }

    #[inline]
    fn begin_cycle(&mut self, view: &CycleView) {
        fan_out!(self, p => p.begin_cycle(view))
    }

    #[inline]
    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        fan_out!(self, p => p.fetch_order(view, order))
    }

    #[inline]
    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        fan_out!(self, p => p.fetch_gate(t, view))
    }

    #[inline]
    fn may_dispatch(
        &self,
        t: ThreadId,
        queue: QueueKind,
        dest: Option<RegClass>,
        view: &CycleView,
    ) -> bool {
        fan_out!(self, p => p.may_dispatch(t, queue, dest, view))
    }

    #[inline]
    fn on_fetch_inst(&mut self, t: ThreadId, inst: &PackedInst) {
        fan_out!(self, p => p.on_fetch_inst(t, inst))
    }

    #[inline]
    fn on_dispatch(&mut self, t: ThreadId, queue: QueueKind, dest: Option<RegClass>) {
        fan_out!(self, p => p.on_dispatch(t, queue, dest))
    }

    #[inline]
    fn on_l2_miss_detected(&mut self, t: ThreadId, view: &CycleView) -> MissResponse {
        fan_out!(self, p => p.on_l2_miss_detected(t, view))
    }

    #[inline]
    fn on_load_complete(&mut self, t: ThreadId, pc: u64, l1_missed: bool) {
        fan_out!(self, p => p.on_load_complete(t, pc, l1_missed))
    }

    #[inline]
    fn on_squash_inst(&mut self, t: ThreadId, inst: &PackedInst) {
        fan_out!(self, p => p.on_squash_inst(t, inst))
    }

    #[inline]
    fn on_idle_cycles(&mut self, n: u64, view: &CycleView) -> u64 {
        fan_out!(self, p => p.on_idle_cycles(n, view))
    }

    #[inline]
    fn wants_squash_inst(&self) -> bool {
        fan_out!(self, p => p.wants_squash_inst())
    }

    #[inline]
    fn wants_dispatch_view(&self) -> bool {
        fan_out!(self, p => p.wants_dispatch_view())
    }

    #[inline]
    fn wants_progress_counters(&self) -> bool {
        fan_out!(self, p => p.wants_progress_counters())
    }
}

impl std::fmt::Debug for AnyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AnyPolicy({})", self.name())
    }
}

impl From<RoundRobin> for AnyPolicy {
    fn from(p: RoundRobin) -> Self {
        AnyPolicy::RoundRobin(p)
    }
}

impl From<smt_policies::Icount> for AnyPolicy {
    fn from(p: smt_policies::Icount) -> Self {
        AnyPolicy::Icount(p)
    }
}

impl From<smt_policies::Stall> for AnyPolicy {
    fn from(p: smt_policies::Stall) -> Self {
        AnyPolicy::Stall(p)
    }
}

impl From<smt_policies::Flush> for AnyPolicy {
    fn from(p: smt_policies::Flush) -> Self {
        AnyPolicy::Flush(p)
    }
}

impl From<smt_policies::FlushPlusPlus> for AnyPolicy {
    fn from(p: smt_policies::FlushPlusPlus) -> Self {
        AnyPolicy::FlushPlusPlus(p)
    }
}

impl From<smt_policies::DataGating> for AnyPolicy {
    fn from(p: smt_policies::DataGating) -> Self {
        AnyPolicy::DataGating(p)
    }
}

impl From<smt_policies::PredictiveDataGating> for AnyPolicy {
    fn from(p: smt_policies::PredictiveDataGating) -> Self {
        AnyPolicy::PredictiveDataGating(p)
    }
}

impl From<smt_policies::StaticAllocation> for AnyPolicy {
    fn from(p: smt_policies::StaticAllocation) -> Self {
        AnyPolicy::Sra(p)
    }
}

impl From<dcra::Dcra> for AnyPolicy {
    fn from(p: dcra::Dcra) -> Self {
        AnyPolicy::Dcra(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_report_their_policy_name() {
        let cases: Vec<(AnyPolicy, &str)> = vec![
            (RoundRobin::default().into(), "RR"),
            (smt_policies::Icount.into(), "ICOUNT"),
            (smt_policies::Stall.into(), "STALL"),
            (smt_policies::Flush.into(), "FLUSH"),
            (smt_policies::FlushPlusPlus::default().into(), "FLUSH++"),
            (smt_policies::DataGating.into(), "DG"),
            (smt_policies::PredictiveDataGating::default().into(), "PDG"),
            (smt_policies::StaticAllocation::new().into(), "SRA"),
            (dcra::Dcra::default().into(), "DCRA"),
        ];
        for (p, name) in cases {
            assert_eq!(p.name(), name);
        }
    }
}
