//! ICOUNT fetch policy (Tullsen et al., ISCA'96).

use smt_isa::ThreadId;
use smt_policy_core::{CycleView, Policy};

/// Appends the threads in ascending pre-issue instruction count to `out` —
/// the shared priority function of ICOUNT and every policy built on top of
/// it. Ties break toward lower thread ids (deterministic). Writing into a
/// caller-owned buffer keeps per-cycle ordering allocation-free.
pub fn icount_order_into(view: &CycleView, out: &mut Vec<ThreadId>) {
    // This runs every cycle for six of the nine policies, so the common
    // machine sizes (2–4 threads) use a fixed compare–exchange network on
    // `(icount, index)` keys instead of the generic sort. Keys are unique
    // (the index breaks ties), so the network's lack of stability cannot
    // be observed and the order matches `sort_by_key` exactly. The keys
    // come straight from the view's contiguous icount lane.
    let icounts = view.icounts();
    let n = icounts.len();
    let key = |i: usize| (icounts[i], i);
    match n {
        0 => {}
        1 => out.push(ThreadId::new(0)),
        2 => {
            let (a, b) = if key(0) <= key(1) { (0, 1) } else { (1, 0) };
            out.extend([ThreadId::new(a), ThreadId::new(b)]);
        }
        3 | 4 => {
            let mut k: [(u32, usize); 4] = [(0, 0); 4];
            for (i, slot) in k.iter_mut().enumerate().take(n) {
                *slot = key(i);
            }
            let cex = |k: &mut [(u32, usize); 4], a: usize, b: usize| {
                if k[a] > k[b] {
                    k.swap(a, b);
                }
            };
            if n == 3 {
                cex(&mut k, 0, 1);
                cex(&mut k, 1, 2);
                cex(&mut k, 0, 1);
            } else {
                cex(&mut k, 0, 1);
                cex(&mut k, 2, 3);
                cex(&mut k, 0, 2);
                cex(&mut k, 1, 3);
                cex(&mut k, 1, 2);
            }
            out.extend(k[..n].iter().map(|&(_, i)| ThreadId::new(i)));
        }
        _ => {
            let first = out.len();
            out.extend((0..n).map(ThreadId::new));
            out[first..].sort_by_key(|t| (icounts[t.index()], t.index()));
        }
    }
}

/// Allocating convenience wrapper around [`icount_order_into`].
pub fn icount_order(view: &CycleView) -> Vec<ThreadId> {
    let mut order = Vec::with_capacity(view.thread_count());
    icount_order_into(view, &mut order);
    order
}

/// The ICOUNT fetch policy: prioritise the threads with the fewest
/// instructions in the pre-issue stages.
///
/// ICOUNT gives excellent throughput for high-ILP threads but, as Section 2
/// of the paper explains, it does not notice that a thread blocked on an L2
/// miss stops making progress — its icount stops growing, so it keeps
/// receiving fetch slots and monopolises shared resources.
///
/// # Examples
///
/// ```
/// use smt_policies::Icount;
/// use smt_policy_core::Policy;
///
/// let p = Icount::default();
/// assert_eq!(p.name(), "ICOUNT");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Icount;

impl Policy for Icount {
    fn name(&self) -> &'static str {
        "ICOUNT"
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn on_idle_cycles(&mut self, n: u64, _view: &CycleView) -> u64 {
        // Stateless per cycle: the ICOUNT order is a pure function of the
        // view, which cannot change while the machine is idle.
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::PerResource;
    use smt_policy_core::ThreadView;

    fn view(icounts: &[u32]) -> CycleView {
        let threads: Vec<ThreadView> = icounts
            .iter()
            .map(|&c| ThreadView {
                icount: c,
                ..ThreadView::default()
            })
            .collect();
        CycleView::new(0, PerResource::filled(80), &threads)
    }

    #[test]
    fn orders_by_ascending_icount() {
        let v = view(&[10, 3, 7]);
        let order = icount_order(&v);
        let idx: Vec<usize> = order.iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_deterministically() {
        let v = view(&[5, 5, 5]);
        let idx: Vec<usize> = icount_order(&v).iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn policy_exposes_order() {
        let mut p = Icount;
        let v = view(&[2, 1]);
        let mut order = Vec::new();
        p.fetch_order(&v, &mut order);
        assert_eq!(order[0].index(), 1);
    }

    #[test]
    fn into_variant_appends_after_existing_entries() {
        let v = view(&[4, 2, 9]);
        let mut out = vec![ThreadId::new(7)];
        icount_order_into(&v, &mut out);
        let idx: Vec<usize> = out.iter().map(|t| t.index()).collect();
        assert_eq!(idx, vec![7, 1, 0, 2], "pre-existing entries untouched");
    }
}
