//! Set-associative cache with LRU replacement.

use serde::{Deserialize, Serialize};

/// Geometry and timing of one cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Checks the geometry [`Cache::new`] relies on: at least one way, a
    /// power-of-two line size, a capacity that is a multiple of
    /// `ways × line_bytes`, and a power-of-two set count.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("cache needs at least one way".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        let Some(way_bytes) = self.ways.checked_mul(self.line_bytes as usize) else {
            return Err("ways × line size overflows".into());
        };
        if !self.size_bytes.is_multiple_of(way_bytes) {
            return Err("capacity must be a multiple of ways × line size".into());
        }
        if !(self.size_bytes / way_bytes).is_power_of_two() {
            return Err("set count must be a power of two".into());
        }
        Ok(())
    }
}

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups performed.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One way of a set: its resident tag and LRU stamp, stored interleaved
/// so a set lookup walks one contiguous run of memory (a 2-way set is a
/// single 32-byte span) instead of two parallel arrays.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Resident tag; `u64::MAX` = invalid.
    tag: u64,
    /// LRU stamp.
    lru: u64,
}

/// A set-associative, write-allocate cache with true-LRU replacement.
///
/// The cache stores tags only (the simulator is trace-driven; no data is
/// moved). Misses allocate immediately — fill timing is handled by the
/// MSHR file in the hierarchy.
///
/// # Examples
///
/// ```
/// use smt_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(&CacheConfig {
///     size_bytes: 4096, ways: 2, line_bytes: 64, latency: 1,
/// });
/// assert!(!c.access(0x1000, false)); // cold miss
/// assert!(c.access(0x1000, false));  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets × ways` tag+LRU array, way-major within each set.
    slots: Vec<Way>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `log2(sets)` — the set count is a power of two, so the tag is
    /// `line >> set_shift` instead of a per-access integer division.
    set_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(config: &CacheConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("{why}");
        }
        let sets = config.size_bytes / (config.ways * config.line_bytes as usize);
        Cache {
            slots: vec![
                Way {
                    tag: u64::MAX,
                    lru: 0
                };
                sets * config.ways
            ],
            sets,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks up `addr`; on a miss, allocates the line (evicting LRU).
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64, _is_write: bool) -> bool {
        self.stats.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.set_shift;
        let base = set * self.ways;
        // One bounds check for the whole set, then a contiguous walk.
        let set_ways = &mut self.slots[base..base + self.ways];

        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, w) in set_ways.iter_mut().enumerate() {
            if w.tag == tag {
                w.lru = tick;
                return true;
            }
            if w.lru < oldest {
                oldest = w.lru;
                victim = way;
            }
        }
        self.stats.misses += 1;
        set_ways[victim] = Way { tag, lru: tick };
        false
    }

    /// Probes without allocating or updating LRU. Returns `true` on hit.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.set_shift;
        let base = set * self.ways;
        self.slots[base..base + self.ways]
            .iter()
            .any(|w| w.tag == tag)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the hit/miss counters (cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Returns the cache to its power-on state — every line invalid, LRU
    /// stamps and counters zeroed — without releasing the tag arrays.
    /// After this call the cache behaves bit-identically to a freshly
    /// constructed one.
    pub fn reset_cold(&mut self) {
        self.slots.fill(Way {
            tag: u64::MAX,
            lru: 0,
        });
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// The resident lines (address `>> log2(line_bytes)`), least recently
    /// used first. With the hit/miss counters this is all the cache's
    /// observable state: hits depend on which tags a set holds, and the
    /// victim on their recency order. Which way holds a tag, and the
    /// absolute LRU stamps, are never observed.
    pub(crate) fn resident_lines(&self) -> Box<[u64]> {
        let mut stamped: Vec<(u64, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, w)| w.tag != u64::MAX)
            .map(|(i, w)| (w.lru, (w.tag << self.set_shift) | (i / self.ways) as u64))
            .collect();
        // Stamps come from one per-access tick, so they are unique.
        stamped.sort_unstable();
        stamped.iter().map(|&(_, line)| line).collect()
    }

    /// Rebuilds the state [`Cache::resident_lines`] captured: cold, then
    /// one access per line in the given (least recently used first)
    /// order, then zeroed counters. Every set receives at most `ways`
    /// lines, so nothing is evicted and each set ends with the captured
    /// tags in the captured recency order.
    pub(crate) fn restore(&mut self, lines: &[u64]) {
        self.reset_cold();
        for &line in lines {
            self.access(line << self.line_shift, false);
        }
        self.reset_stats();
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64B = 512B
        Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_allocate() {
        let mut c = tiny();
        assert!(!c.access(0x0, false));
        assert!(c.access(0x0, false));
        assert!(c.access(0x3f, false), "same line");
        assert!(!c.access(0x40, false), "next line is a different set/line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        let stride = 4 * 64; // same-set stride
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride`
        assert!(c.probe(0));
        assert!(!c.probe(stride));
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(0x80));
        assert!(!c.access(0x80, false), "probe must not have allocated");
    }

    #[test]
    fn stats_track_miss_rate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        c.access(64, false);
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.misses, 2);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // 3× capacity working set, sequential scan repeated: every access
        // within one pass is a cold/capacity miss on re-scan.
        let lines = 3 * 8;
        for _pass in 0..4 {
            for i in 0..lines {
                c.access(i * 64, false);
            }
        }
        let s = c.stats();
        assert!(
            s.miss_rate() > 0.9,
            "streaming over 3× capacity should thrash, rate={}",
            s.miss_rate()
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 48,
            latency: 1,
        });
    }
}
