//! FLUSH++ fetch policy (Cazorla et al., ISHPC'03).

use crate::icount::icount_order_into;
use smt_isa::ThreadId;
use smt_policy_core::{CycleView, MissResponse, Policy};

/// FLUSH++ switches between STALL and FLUSH based on the cache behaviour of
/// the running threads:
///
/// * **low pressure** (few threads with a high L2 miss rate) — STALL is
///   enough: the stalled thread's resources are not badly needed;
/// * **high pressure** (several memory-bounded threads) — FLUSH frees the
///   resources that the other missing threads do need.
///
/// The pressure signal is the number of threads whose running L2 miss rate
/// (L2 misses per load, over a sliding window) exceeds
/// [`FlushPlusPlus::MEM_THRESHOLD`] — the same "threads with high L2 miss
/// rate" criterion the paper uses to describe workloads.
///
/// # Examples
///
/// ```
/// use smt_policies::FlushPlusPlus;
/// use smt_policy_core::Policy;
///
/// assert_eq!(FlushPlusPlus::default().name(), "FLUSH++");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlushPlusPlus {
    /// Last-window snapshot of (loads, l2_misses) per thread.
    window_base: Vec<(u64, u64)>,
    /// Miss rate per thread over the last complete window.
    rates: Vec<f64>,
    /// Number of memory-bounded threads, memoized when `rates` roll over —
    /// the classification inputs only change at window boundaries, so the
    /// per-miss-event pressure query is a cached read instead of a scan.
    pressure: usize,
    last_window: u64,
}

impl FlushPlusPlus {
    /// L2 misses per load above which a thread counts as memory-bounded
    /// (mirrors Table 3's 1% miss-rate criterion, scaled to per-load).
    pub const MEM_THRESHOLD: f64 = 0.01;
    /// Number of memory-bounded threads at which resource pressure is
    /// considered high and FLUSH is preferred over STALL.
    pub const PRESSURE_THRESHOLD: usize = 2;
    /// Re-evaluation period in cycles.
    pub const WINDOW: u64 = 4096;

    /// Number of threads currently classified as memory-bounded (cached at
    /// the last window rollover).
    fn mem_threads(&self) -> usize {
        self.pressure
    }

    /// (Re)sizes the per-thread window state for `n` threads if needed.
    fn ensure(&mut self, n: usize) {
        if self.window_base.len() != n {
            self.window_base = vec![(0, 0); n];
            self.rates = vec![0.0; n];
            // The memoized pressure count mirrors `rates`; reset it with
            // them, or a stale count would answer miss responses until the
            // next window rollover.
            self.pressure = 0;
        }
    }

    /// One window rollover at cycle `at`: recompute the per-thread miss
    /// rates from the counter deltas since the previous rollover and
    /// memoize the pressure count. Shared by the per-cycle path
    /// (`begin_cycle`) and the idle-cycle replay.
    fn roll_window(&mut self, at: u64, view: &CycleView) {
        self.last_window = at;
        let n = view.thread_count();
        let (all_loads, all_misses) = (view.load_counts(), view.l2_miss_counts());
        for i in 0..n {
            let (loads0, misses0) = self.window_base[i];
            // saturating: the simulator may reset its statistics
            // between windows (end of warm-up), which rewinds the
            // absolute counters.
            let loads = all_loads[i].saturating_sub(loads0);
            let misses = all_misses[i].saturating_sub(misses0);
            self.rates[i] = if loads == 0 {
                0.0
            } else {
                misses as f64 / loads as f64
            };
            self.window_base[i] = (all_loads[i], all_misses[i]);
        }
        self.pressure = self
            .rates
            .iter()
            .filter(|&&r| r > Self::MEM_THRESHOLD)
            .count();
    }
}

impl Policy for FlushPlusPlus {
    fn name(&self) -> &str {
        "FLUSH++"
    }

    fn begin_cycle(&mut self, view: &CycleView) {
        self.ensure(view.thread_count());
        if view.now >= self.last_window + Self::WINDOW {
            self.roll_window(view.now, view);
        }
    }

    fn fetch_order(&mut self, view: &CycleView, order: &mut Vec<ThreadId>) {
        icount_order_into(view, order);
    }

    fn fetch_gate(&mut self, t: ThreadId, view: &CycleView) -> bool {
        view.l2_pending(t) == 0
    }

    fn wants_progress_counters(&self) -> bool {
        true // the pressure windows read loads/l2_misses
    }

    fn on_l2_miss_detected(&mut self, _t: ThreadId, _view: &CycleView) -> MissResponse {
        if self.mem_threads() >= Self::PRESSURE_THRESHOLD {
            MissResponse::Flush
        } else {
            MissResponse::Stall
        }
    }

    fn on_idle_cycles(&mut self, n: u64, view: &CycleView) -> u64 {
        // Gating reads the (event-driven, hence frozen) `l2_pending` lane;
        // the only per-cycle state is the pressure window. Rollovers that
        // would have happened inside the span are replayed: the first one
        // sees the real counter deltas accumulated since the last rollover
        // (identical to what `begin_cycle` would compute at that cycle);
        // later ones see zero deltas — the counters cannot move while the
        // machine is idle — so every rate collapses to 0 and the pressure
        // to "no memory-bounded threads".
        self.ensure(view.thread_count());
        let (start, end) = (view.now, view.now + n); // skipped span, exclusive end
        let first = (self.last_window + Self::WINDOW).max(start);
        if first < end {
            self.roll_window(first, view);
            let later = (end - 1 - first) / Self::WINDOW;
            if later > 0 {
                self.last_window += later * Self::WINDOW;
                for r in &mut self.rates {
                    *r = 0.0;
                }
                self.pressure = 0;
                // `window_base` already holds the span's (frozen) counters
                // from the first rollover.
            }
        }
        n
    }

    fn wants_fast_forward(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::PerResource;
    use smt_policy_core::ThreadView;

    fn view_with(loads: &[(u64, u64)], now: u64) -> CycleView {
        let threads: Vec<ThreadView> = loads
            .iter()
            .map(|&(l, m)| ThreadView {
                loads: l,
                l2_misses: m,
                ..ThreadView::default()
            })
            .collect();
        CycleView::new(now, PerResource::filled(80), &threads)
    }

    #[test]
    fn low_pressure_stalls_high_pressure_flushes() {
        let mut p = FlushPlusPlus::default();
        // Window 1: one memory-bounded thread -> STALL.
        p.begin_cycle(&view_with(&[(0, 0), (0, 0)], 0));
        p.begin_cycle(&view_with(&[(1000, 100), (1000, 0)], FlushPlusPlus::WINDOW));
        let v = view_with(&[(1000, 100), (1000, 0)], FlushPlusPlus::WINDOW);
        assert_eq!(
            p.on_l2_miss_detected(ThreadId::new(0), &v),
            MissResponse::Stall
        );
        // Window 2: both threads memory-bounded -> FLUSH.
        p.begin_cycle(&view_with(
            &[(2000, 300), (2000, 150)],
            2 * FlushPlusPlus::WINDOW,
        ));
        assert_eq!(
            p.on_l2_miss_detected(ThreadId::new(0), &v),
            MissResponse::Flush
        );
    }

    #[test]
    fn idle_replay_matches_stepped_windows() {
        // Replaying k idle cycles must leave the window state exactly
        // where k stepped `begin_cycle` calls (over a frozen view) would.
        // Exercise spans that contain zero, one and several rollovers, and
        // spans that start mid-window.
        let counters = [(1000u64, 100u64), (1000, 0)];
        for warm in [0u64, 1, FlushPlusPlus::WINDOW - 1] {
            for span in [
                1u64,
                2,
                FlushPlusPlus::WINDOW,
                3 * FlushPlusPlus::WINDOW + 7,
            ] {
                let mut stepped = FlushPlusPlus::default();
                let mut jumped = FlushPlusPlus::default();
                for t in 0..warm {
                    stepped.begin_cycle(&view_with(&counters, t));
                    jumped.begin_cycle(&view_with(&counters, t));
                }
                for t in warm..warm + span {
                    stepped.begin_cycle(&view_with(&counters, t));
                }
                assert_eq!(
                    jumped.on_idle_cycles(span, &view_with(&counters, warm)),
                    span
                );
                assert_eq!(
                    (stepped.last_window, stepped.pressure, &stepped.rates),
                    (jumped.last_window, jumped.pressure, &jumped.rates),
                    "window state drifted (warm={warm}, span={span})"
                );
                assert_eq!(stepped.window_base, jumped.window_base);
            }
        }
    }

    #[test]
    fn zero_loads_window_counts_as_ilp() {
        let mut p = FlushPlusPlus::default();
        p.begin_cycle(&view_with(&[(0, 0)], 0));
        p.begin_cycle(&view_with(&[(0, 0)], FlushPlusPlus::WINDOW));
        assert_eq!(p.mem_threads(), 0);
    }
}
