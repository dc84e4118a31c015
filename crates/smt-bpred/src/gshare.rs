//! gshare direction predictor.

use smt_isa::ThreadId;

/// A gshare direction predictor: a shared table of 2-bit saturating counters
/// indexed by `PC xor history`, with a per-thread global history register.
///
/// # Examples
///
/// ```
/// use smt_bpred::Gshare;
/// use smt_isa::ThreadId;
///
/// let mut g = Gshare::new(1024, 1);
/// let t = ThreadId::new(0);
/// for _ in 0..32 {
///     let _ = g.predict(t, 0x400);
///     g.update(t, 0x400, true);
/// }
/// assert!(g.predict(t, 0x400));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    /// 2-bit saturating counters, initialised weakly not-taken (1).
    counters: Vec<u8>,
    /// Per-thread global branch history.
    history: Vec<u64>,
    index_mask: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a predictor with `entries` counters for `threads` contexts.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize, threads: usize) -> Self {
        Self::with_history(entries, threads, 8)
    }

    /// Creates a predictor with an explicit global-history length.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn with_history(entries: usize, threads: usize, history_bits: u32) -> Self {
        if let Err(why) = Self::validate(entries) {
            panic!("{why}");
        }
        let history_bits = history_bits.min(entries.trailing_zeros());
        Gshare {
            counters: vec![1; entries],
            history: vec![0; threads],
            index_mask: entries as u64 - 1,
            history_bits,
        }
    }

    /// Checks the size [`Gshare::with_history`] relies on: a power-of-two
    /// (so non-zero) counter count.
    pub(crate) fn validate(entries: usize) -> Result<(), String> {
        if !entries.is_power_of_two() {
            return Err("gshare entries must be a power of two".into());
        }
        Ok(())
    }

    #[inline]
    fn index(&self, t: ThreadId, pc: u64) -> usize {
        let h = self.history[t.index()] & ((1 << self.history_bits) - 1);
        (((pc >> 2) ^ h) & self.index_mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    #[inline]
    pub fn predict(&self, t: ThreadId, pc: u64) -> bool {
        self.counters[self.index(t, pc)] >= 2
    }

    /// Returns the predictor to its power-on state: all counters weakly
    /// not-taken, all histories cleared. Bit-identical to a fresh table.
    pub fn reset_cold(&mut self) {
        self.counters.fill(1);
        self.history.fill(0);
    }

    /// Trains the counter and shifts the outcome into the thread's history.
    #[inline]
    pub fn update(&mut self, t: ThreadId, pc: u64, taken: bool) {
        let idx = self.index(t, pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        let h = &mut self.history[t.index()];
        *h = (*h << 1) | taken as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Gshare::new(1000, 1);
    }

    #[test]
    fn counters_saturate() {
        let mut g = Gshare::new(64, 1);
        let t = ThreadId::new(0);
        for _ in 0..100 {
            g.update(t, 0x0, true);
        }
        assert!(g.counters.iter().all(|&c| c <= 3));
        for _ in 0..200 {
            g.update(t, 0x0, false);
        }
        assert!(g.counters.iter().all(|&c| c <= 3));
    }

    #[test]
    fn learns_alternating_pattern_through_history() {
        let mut g = Gshare::new(4096, 1);
        let t = ThreadId::new(0);
        // Period-2 pattern: with history the predictor becomes near-perfect.
        let mut correct = 0;
        let mut total = 0;
        for i in 0..2000u64 {
            let actual = i % 2 == 0;
            let pred = g.predict(t, 0x800);
            g.update(t, 0x800, actual);
            if i >= 1000 {
                total += 1;
                if pred == actual {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "gshare should learn a period-2 pattern, got {correct}/{total}"
        );
    }
}
