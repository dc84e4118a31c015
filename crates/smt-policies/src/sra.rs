//! Static resource allocation (SRA).

use crate::icount::icount_order_into;
use smt_isa::{PerResource, QueueKind, RegClass, ResourceKind, ThreadId};
use smt_policy_core::{CycleView, Policy};

/// Static resource allocation: every shared resource is split evenly among
/// the running threads and a thread may never exceed its `R/T` share
/// (the Pentium-4-style partitioning the paper compares against in
/// Section 5.1).
///
/// `StaticAllocation` can also enforce *custom* per-resource caps via
/// [`StaticAllocation::with_caps`], which the Figure-2 experiment uses to
/// give a single thread a chosen percentage of one resource.
///
/// # Examples
///
/// ```
/// use smt_policies::StaticAllocation;
/// use smt_policy_core::Policy;
///
/// assert_eq!(StaticAllocation::default().name(), "SRA");
/// ```
#[derive(Debug, Clone, Default)]
pub struct StaticAllocation {
    /// Explicit caps; when `None` for a resource, the even `R/T` split
    /// applies.
    caps: PerResource<Option<u32>>,
}

impl StaticAllocation {
    /// Even `R/T` partitioning (the paper's SRA).
    pub fn new() -> Self {
        StaticAllocation::default()
    }

    /// Partitioning with explicit per-resource caps (entries a thread may
    /// occupy). Resources left `None` fall back to the even split.
    pub fn with_caps(caps: PerResource<Option<u32>>) -> Self {
        StaticAllocation { caps }
    }

    /// The cap applied to each thread for `kind` under `view`.
    pub fn cap(&self, kind: ResourceKind, view: &CycleView) -> u32 {
        match self.caps[kind] {
            Some(c) => c,
            None => (view.totals[kind] / view.thread_count() as u32).max(1),
        }
    }
}

impl Policy for StaticAllocation {
    fn name(&self) -> &'static str {
        "SRA"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn wants_dispatch_view(&self) -> bool {
        true
    }

    fn may_dispatch(
        &self,
        t: ThreadId,
        queue: QueueKind,
        dest: Option<RegClass>,
        view: &CycleView,
    ) -> bool {
        let usage = view.usage(t);
        let qr = queue.resource();
        if usage[qr] >= self.cap(qr, view) {
            return false;
        }
        if let Some(d) = dest {
            let rr = d.resource();
            if usage[rr] >= self.cap(rr, view) {
                return false;
            }
        }
        true
    }

    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        // Stop fetching once the thread is already at a partition limit;
        // dispatch would refuse the instructions anyway, so fetching more
        // only fills the fetch queue.
        let usage = view.usage(t);
        ResourceKind::ALL
            .iter()
            .any(|&r| usage[r] < self.cap(r, view))
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        // The caps are static and both gates are pure functions of the
        // usage lanes, which cannot move while the machine is idle.
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_policy_core::ThreadView;

    fn view(n: usize, totals: u32) -> CycleView {
        CycleView::new(
            0,
            PerResource::filled(totals),
            &vec![ThreadView::default(); n],
        )
    }

    /// Rebuilds `view`'s thread 0 with the given usage overrides.
    fn with_usage(view: &mut CycleView, usages: &[(ResourceKind, u32)]) {
        let mut tv = ThreadView::default();
        for &(k, v) in usages {
            tv.usage[k] = v;
        }
        view.set_thread(0, &tv);
    }

    #[test]
    fn even_split_cap() {
        let p = StaticAllocation::new();
        let v = view(4, 80);
        assert_eq!(p.cap(ResourceKind::IntQueue, &v), 20);
        let v2 = view(3, 80);
        assert_eq!(p.cap(ResourceKind::IntQueue, &v2), 26);
    }

    #[test]
    fn dispatch_blocked_at_cap() {
        let p = StaticAllocation::new();
        let mut v = view(2, 80); // cap 40
        with_usage(&mut v, &[(ResourceKind::IntQueue, 40)]);
        assert!(!p.may_dispatch(ThreadId::new(0), QueueKind::Int, None, &v));
        assert!(p.may_dispatch(ThreadId::new(1), QueueKind::Int, None, &v));
        // A different queue is still allowed.
        assert!(p.may_dispatch(ThreadId::new(0), QueueKind::Fp, None, &v));
    }

    #[test]
    fn register_cap_checked_independently() {
        let p = StaticAllocation::new();
        let mut v = view(2, 80);
        with_usage(&mut v, &[(ResourceKind::IntRegs, 40)]);
        assert!(!p.may_dispatch(ThreadId::new(0), QueueKind::Int, Some(RegClass::Int), &v));
        assert!(p.may_dispatch(ThreadId::new(0), QueueKind::Int, None, &v));
    }

    #[test]
    fn custom_caps_override_even_split() {
        let mut caps = PerResource::<Option<u32>>::default();
        caps[ResourceKind::LsQueue] = Some(10);
        let p = StaticAllocation::with_caps(caps);
        let v = view(1, 80);
        assert_eq!(p.cap(ResourceKind::LsQueue, &v), 10);
        assert_eq!(p.cap(ResourceKind::IntQueue, &v), 80);
    }

    #[test]
    fn fetch_gate_closes_only_when_every_resource_full() {
        let mut p = StaticAllocation::new();
        let mut v = view(2, 80);
        let full: Vec<_> = ResourceKind::ALL.iter().map(|&r| (r, 40)).collect();
        with_usage(&mut v, &full);
        assert!(!p.fetch_gate(ThreadId::new(0), &v));
        let mut nearly = full;
        nearly.retain(|&(r, _)| r != ResourceKind::FpQueue);
        with_usage(&mut v, &nearly);
        assert!(p.fetch_gate(ThreadId::new(0), &v));
    }
}
