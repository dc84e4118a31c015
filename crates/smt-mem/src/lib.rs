//! Memory-hierarchy substrate for the DCRA-SMT simulator.
//!
//! Models the paper's memory system (Table 2): 64KB 2-way L1 instruction and
//! data caches (1-cycle), a shared 512KB 8-way L2 (20-cycle), a fixed-latency
//! main memory (300 cycles in the baseline, swept 100/300/500 in Section 5.3)
//! and a per-thread data TLB with a 160-cycle miss penalty.
//!
//! Outstanding L2 misses are tracked in an [`MshrFile`]; accesses to a line
//! whose fill is still in flight *coalesce* with the pending miss and pay
//! only the remaining latency. The MSHR file is also the source of the
//! memory-level-parallelism (overlapping L2 misses) statistic the paper
//! reports in Section 5.2.
//!
//! # Examples
//!
//! ```
//! use smt_mem::{MemoryConfig, MemoryHierarchy, HitLevel};
//! use smt_isa::ThreadId;
//!
//! let mut mem = MemoryHierarchy::new(&MemoryConfig::default(), 2);
//! let t = ThreadId::new(0);
//! let first = mem.access_data(t, 0x10_0000, false, 0);
//! assert_eq!(first.level, HitLevel::Memory); // cold miss goes to memory
//! let again = mem.access_data(t, 0x10_0000, false, first.ready_at());
//! assert_eq!(again.level, HitLevel::L1);     // line now resident
//! ```

#![warn(missing_docs)]

mod cache;
mod mshr;
mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use mshr::{MshrFile, OutstandingMiss};
pub use tlb::{Tlb, TlbStats};

use mshr::FillGroup;
use serde::{Deserialize, Serialize};
use smt_isa::ThreadId;

/// Which level of the hierarchy serviced an access, ordered by depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// Serviced by the L1 (or coalesced with an L1-resident state).
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// L1 and L2 miss, serviced by main memory.
    Memory,
}

/// Result of a data or instruction access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency in cycles, including TLB penalty if any.
    pub latency: u32,
    /// Deepest level that had to service the access.
    pub level: HitLevel,
    /// `true` if the access missed in the data TLB.
    pub tlb_miss: bool,
    /// Cycle at which the access was initiated.
    pub issued_at: u64,
}

impl AccessOutcome {
    /// Cycle at which the data is available.
    #[inline]
    pub fn ready_at(&self) -> u64 {
        self.issued_at + u64::from(self.latency)
    }

    /// `true` if the access missed in the L1 (i.e. was serviced by L2 or
    /// memory, or coalesced with such a miss in flight).
    #[inline]
    pub fn l1_miss(&self) -> bool {
        self.level != HitLevel::L1
    }

    /// `true` if the access missed in the L2.
    #[inline]
    pub fn l2_miss(&self) -> bool {
        self.level == HitLevel::Memory
    }
}

/// Baseline unified-L2 hit latency in cycles (Table 2).
///
/// It is also the cycle after issue at which a policy *detects* an L2
/// miss: the trigger threshold of STALL and FLUSH.
pub const DEFAULT_L2_LATENCY: u32 = 20;

/// Configuration of the full memory hierarchy.
///
/// Defaults are the paper's baseline (Table 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// L1 instruction cache geometry.
    pub il1: CacheConfig,
    /// L1 data cache geometry.
    pub dl1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (baseline 300; swept 100/300/500).
    pub memory_latency: u32,
    /// Data TLB entries per thread.
    pub dtlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// TLB miss penalty in cycles.
    pub tlb_miss_penalty: u32,
    /// When `true` the data L1 never misses (used by the paper's Figure 2
    /// resource-sensitivity experiment, which assumes a perfect data L1).
    pub perfect_dl1: bool,
}

impl MemoryConfig {
    /// Checks every geometry [`MemoryHierarchy::new`] relies on: the three
    /// caches ([`CacheConfig::validate`]) and the data TLB (at least one
    /// entry, a power-of-two page size).
    pub fn validate(&self) -> Result<(), String> {
        for (name, cache) in [("il1", &self.il1), ("dl1", &self.dl1), ("l2", &self.l2)] {
            cache.validate().map_err(|why| format!("{name}: {why}"))?;
        }
        Tlb::validate(self.dtlb_entries, self.page_bytes).map_err(|why| format!("dtlb: {why}"))
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            il1: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 64,
                latency: 1,
                banks: 8,
            },
            dl1: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 64,
                latency: 1,
                banks: 8,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: DEFAULT_L2_LATENCY,
                banks: 8,
            },
            memory_latency: 300,
            dtlb_entries: 128,
            page_bytes: 8 * 1024,
            tlb_miss_penalty: 160,
            perfect_dl1: false,
        }
    }
}

/// Per-thread memory statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadMemStats {
    /// Data accesses issued.
    pub accesses: u64,
    /// Data accesses that missed in the L1.
    pub l1_misses: u64,
    /// L2 lookups caused by this thread's data accesses.
    pub l2_accesses: u64,
    /// L2 lookups that missed.
    pub l2_misses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
}

impl ThreadMemStats {
    /// L1 data miss rate (`misses / accesses`), in `[0, 1]`.
    pub fn l1_miss_rate(&self) -> f64 {
        ratio(self.l1_misses, self.accesses)
    }

    /// L2 miss rate (`L2 misses / L2 accesses`), in `[0, 1]`. This is the
    /// metric of the paper's Table 3 (mcf 29.6%, art 18.6%, ...).
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The observable state of a [`MemoryHierarchy`], captured by
/// [`MemoryHierarchy::warm_state`] and rebuilt by
/// [`MemoryHierarchy::restore_warm`].
///
/// Compact rather than a clone: the resident lines of each cache and the
/// resident pages of each TLB in recency order, and the in-flight fills
/// grouped by `(owner, level, deadline)`. After a functional warm-up most
/// cache ways are still invalid and the fills share one or two deadlines,
/// so this is a small fraction of a cloned hierarchy. Every list is
/// allocated at its exact length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmState {
    il1: Box<[u64]>,
    dl1: Box<[u64]>,
    l2: Box<[u64]>,
    dtlb: Box<[Box<[u64]>]>,
    fills: Box<[FillGroup]>,
}

impl WarmState {
    /// Bytes held, the struct itself included.
    pub fn bytes(&self) -> usize {
        let lines = |l: &[u64]| std::mem::size_of_val(l);
        std::mem::size_of::<Self>()
            + lines(&self.il1)
            + lines(&self.dl1)
            + lines(&self.l2)
            + std::mem::size_of_val(&*self.dtlb)
            + self.dtlb.iter().map(|p| lines(p)).sum::<usize>()
            + std::mem::size_of_val(&*self.fills)
            + self.fills.iter().map(FillGroup::heap_bytes).sum::<usize>()
    }
}

/// The complete memory hierarchy: IL1 + DL1 + shared L2 + memory + TLBs.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    mshr: MshrFile,
    dtlb: Vec<Tlb>,
    config: MemoryConfig,
    stats: Vec<ThreadMemStats>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `threads` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MemoryConfig::validate`].
    pub fn new(config: &MemoryConfig, threads: usize) -> Self {
        MemoryHierarchy {
            il1: Cache::new(&config.il1),
            dl1: Cache::new(&config.dl1),
            l2: Cache::new(&config.l2),
            mshr: MshrFile::new(),
            dtlb: (0..threads)
                .map(|_| Tlb::new(config.dtlb_entries, config.page_bytes))
                .collect(),
            config: config.clone(),
            stats: vec![ThreadMemStats::default(); threads],
        }
    }

    /// Performs a data access (load or store address check) for thread `t`
    /// at cycle `now` and returns the latency/level outcome.
    ///
    /// Misses to a line already being filled coalesce with the outstanding
    /// miss and pay the remaining latency only.
    pub fn access_data(
        &mut self,
        t: ThreadId,
        addr: u64,
        is_write: bool,
        now: u64,
    ) -> AccessOutcome {
        let st = &mut self.stats[t.index()];
        st.accesses += 1;

        let tlb_miss = !self.dtlb[t.index()].access(addr);
        let tlb_penalty = if tlb_miss {
            st.tlb_misses += 1;
            self.config.tlb_miss_penalty
        } else {
            0
        };

        if self.config.perfect_dl1 {
            return AccessOutcome {
                latency: self.config.dl1.latency + tlb_penalty,
                level: HitLevel::L1,
                tlb_miss,
                issued_at: now,
            };
        }

        // Line size is a power of two (checked by `Cache::new`), so the
        // MSHR line id is a shift, not a division.
        let line = addr >> self.config.dl1.line_bytes.trailing_zeros();
        if self.dl1.access(addr, is_write) {
            // L1 hit, unless the fill is still in flight (then coalesce).
            if let Some(remaining) = self.mshr.remaining(line, now) {
                let level = self.mshr.level_of(line);
                return AccessOutcome {
                    latency: self.config.dl1.latency + remaining + tlb_penalty,
                    level,
                    tlb_miss,
                    issued_at: now,
                };
            }
            return AccessOutcome {
                latency: self.config.dl1.latency + tlb_penalty,
                level: HitLevel::L1,
                tlb_miss,
                issued_at: now,
            };
        }

        // L1 miss.
        st.l1_misses += 1;
        st.l2_accesses += 1;
        let (level, fill_latency) = if self.l2.access(addr, is_write) {
            (
                HitLevel::L2,
                self.config.dl1.latency + self.config.l2.latency,
            )
        } else {
            st.l2_misses += 1;
            #[cfg(feature = "trace-l2")]
            eprintln!("L2MISS t={} addr={addr:#x} now={now}", t.index());
            (
                HitLevel::Memory,
                self.config.dl1.latency + self.config.l2.latency + self.config.memory_latency,
            )
        };
        self.mshr
            .allocate(line, t, level, now + u64::from(fill_latency));
        AccessOutcome {
            latency: fill_latency + tlb_penalty,
            level,
            tlb_miss,
            issued_at: now,
        }
    }

    /// Performs an instruction fetch access for the cache block containing
    /// `pc`. Returns the fetch latency and the deepest level touched.
    pub fn access_inst(&mut self, _t: ThreadId, pc: u64, now: u64) -> AccessOutcome {
        if self.il1.access(pc, false) {
            return AccessOutcome {
                latency: self.config.il1.latency,
                level: HitLevel::L1,
                tlb_miss: false,
                issued_at: now,
            };
        }
        let (level, latency) = if self.l2.access(pc, false) {
            (
                HitLevel::L2,
                self.config.il1.latency + self.config.l2.latency,
            )
        } else {
            (
                HitLevel::Memory,
                self.config.il1.latency + self.config.l2.latency + self.config.memory_latency,
            )
        };
        AccessOutcome {
            latency,
            level,
            tlb_miss: false,
            issued_at: now,
        }
    }

    /// Number of L2 misses currently in flight for each thread at `now`,
    /// the quantity behind the paper's memory-parallelism measurements.
    pub fn outstanding_l2_misses(&mut self, now: u64) -> Vec<u32> {
        self.mshr.outstanding_per_thread(now, self.stats.len())
    }

    /// Allocation-free variant of [`Self::outstanding_l2_misses`]: fills
    /// `counts` (one slot per thread) in place. The simulator calls this
    /// every cycle, so it must not allocate.
    pub fn outstanding_l2_misses_into(&mut self, now: u64, counts: &mut [u32]) {
        self.mshr.outstanding_into(now, counts);
    }

    /// Earliest cycle at which any in-flight *memory-level* fill
    /// completes, or `None` when none is outstanding. Strictly before
    /// this cycle the per-thread outstanding-miss counts cannot change
    /// (they track memory-level fills only), which is what lets the
    /// simulator fast-forward through stalled spans without losing
    /// per-cycle MLP samples.
    pub fn next_fill_ready_at(&mut self) -> Option<u64> {
        self.mshr.next_ready_at()
    }

    /// Collects every fill whose deadline is at or before `now` — exactly
    /// what the per-cycle MLP sampling does as a side effect in a stepped
    /// run. The simulator calls this after a fast-forward jump so the MSHR
    /// map matches the stepped core's state cycle for cycle: L2-level
    /// fills may expire *inside* a skipped span, and a dead entry left in
    /// the map would block re-allocation of the same line on the resumed
    /// cycle (see [`MshrFile::purge_expired`]).
    pub fn collect_expired_fills(&mut self, now: u64) {
        self.mshr.purge_expired(now);
    }

    /// Per-thread statistics.
    pub fn thread_stats(&self, t: ThreadId) -> ThreadMemStats {
        self.stats[t.index()]
    }

    /// Clears accumulated hit/miss statistics while keeping all cache and
    /// TLB state. Used when a measurement window starts after warm-up.
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = ThreadMemStats::default();
        }
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.l2.reset_stats();
    }

    /// Returns the whole hierarchy to its power-on state — cold caches and
    /// TLBs, no in-flight fills, zeroed statistics — while retaining every
    /// allocation. A hierarchy that is `reset_cold` behaves bit-identically
    /// to one freshly built with [`MemoryHierarchy::new`]; simulation
    /// sessions rely on this to reuse one hierarchy across many runs.
    pub fn reset_cold(&mut self) {
        self.il1.reset_cold();
        self.dl1.reset_cold();
        self.l2.reset_cold();
        self.mshr.reset_cold();
        for tlb in &mut self.dtlb {
            tlb.reset_cold();
        }
        for s in &mut self.stats {
            *s = ThreadMemStats::default();
        }
    }

    /// Captures the hierarchy's state for [`Self::restore_warm`]. The
    /// statistics are not captured: restoring zeroes them.
    pub fn warm_state(&self) -> WarmState {
        WarmState {
            il1: self.il1.resident_lines(),
            dl1: self.dl1.resident_lines(),
            l2: self.l2.resident_lines(),
            dtlb: self.dtlb.iter().map(Tlb::resident_pages).collect(),
            fills: self.mshr.fills(),
        }
    }

    /// Rebuilds a state captured by [`Self::warm_state`] on a hierarchy of
    /// the same configuration and thread count, with zeroed statistics —
    /// what `reset_cold` followed by the accesses that led to the capture
    /// and [`Self::reset_stats`] would leave. It starts from cold
    /// structures and goes through the ordinary access paths only: each
    /// cache and TLB replays its lines least recently used first (no set
    /// overflows, so nothing is evicted and every set keeps its contents
    /// and recency order), and every fill is re-allocated. From then on
    /// every outcome, fill deadline, outstanding-miss count and statistic
    /// equals the captured hierarchy's.
    ///
    /// # Panics
    ///
    /// Panics if the state was captured with a different thread count.
    pub fn restore_warm(&mut self, state: &WarmState) {
        assert_eq!(
            state.dtlb.len(),
            self.dtlb.len(),
            "warm state captured for a different thread count"
        );
        self.il1.restore(&state.il1);
        self.dl1.restore(&state.dl1);
        self.l2.restore(&state.l2);
        for (tlb, pages) in self.dtlb.iter_mut().zip(state.dtlb.iter()) {
            tlb.restore(pages);
        }
        self.mshr.restore(&state.fills);
        for s in &mut self.stats {
            *s = ThreadMemStats::default();
        }
    }

    /// Raw cache statistics `(il1, dl1, l2)`.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.il1.stats(), self.dl1.stats(), self.l2.stats())
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MemoryConfig {
        MemoryConfig {
            dl1: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                latency: 1,
                banks: 1,
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                line_bytes: 64,
                latency: 20,
                banks: 1,
            },
            memory_latency: 300,
            ..MemoryConfig::default()
        }
    }

    #[test]
    fn cold_miss_pays_full_latency() {
        let mut mem = MemoryHierarchy::new(&small_config(), 1);
        let t = ThreadId::new(0);
        let out = mem.access_data(t, 0x4000_0000, false, 0);
        assert_eq!(out.level, HitLevel::Memory);
        // 1 (L1) + 20 (L2) + 300 (mem) + 160 (cold TLB miss)
        assert_eq!(out.latency, 1 + 20 + 300 + 160);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut mem = MemoryHierarchy::new(&small_config(), 1);
        let t = ThreadId::new(0);
        let first = mem.access_data(t, 0x1000, false, 0);
        let out = mem.access_data(t, 0x1008, false, first.ready_at());
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.latency, 1);
    }

    #[test]
    fn in_flight_miss_coalesces() {
        let mut mem = MemoryHierarchy::new(&small_config(), 1);
        let t = ThreadId::new(0);
        let first = mem.access_data(t, 0x1000, false, 0);
        assert!(first.l2_miss());
        // Same line, 10 cycles later, fill still in flight: remaining
        // latency only (plus L1 access), still counted at memory level.
        let second = mem.access_data(t, 0x1010, false, 10);
        assert_eq!(second.level, HitLevel::Memory);
        assert!(second.latency < first.latency);
        // The fill was launched at cycle 0 and completes after the full
        // L1+L2+memory path (the TLB penalty delays the instruction, not
        // the fill). The coalesced access pays the remaining fill time
        // plus its own L1 access.
        let fill_ready: u64 = 1 + 20 + 300;
        assert_eq!(
            u64::from(second.latency),
            fill_ready - 10 + 1,
            "coalesced access waits for the fill"
        );
        // Stats: only one real L1/L2 miss.
        let st = mem.thread_stats(t);
        assert_eq!(st.l1_misses, 1);
        assert_eq!(st.l2_misses, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = small_config();
        let mut mem = MemoryHierarchy::new(&cfg, 1);
        let t = ThreadId::new(0);
        // DL1: 1KB 2-way 64B lines -> 8 sets. Fill set 0 with 3 conflicting
        // lines; first one is evicted from L1 but still in L2.
        let stride = 8 * 64; // set-0 stride
        let base = 0x10_0000;
        let mut now = 0;
        for i in 0..3u64 {
            let out = mem.access_data(t, base + i * stride, false, now);
            now = out.ready_at();
        }
        let out = mem.access_data(t, base, false, now);
        assert_eq!(out.level, HitLevel::L2, "evicted L1 line should hit in L2");
        assert_eq!(out.latency, 1 + 20);
    }

    #[test]
    fn perfect_dl1_never_misses() {
        let mut cfg = small_config();
        cfg.perfect_dl1 = true;
        let mut mem = MemoryHierarchy::new(&cfg, 1);
        let t = ThreadId::new(0);
        let mut now = 0;
        for i in 0..1000u64 {
            let out = mem.access_data(t, i * 0x1_0000, false, now);
            assert_eq!(out.level, HitLevel::L1);
            now = out.ready_at();
        }
        assert_eq!(mem.thread_stats(t).l1_misses, 0);
    }

    #[test]
    fn outstanding_misses_counted_per_thread() {
        let mut mem = MemoryHierarchy::new(&small_config(), 2);
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        mem.access_data(t0, 0x100_0000, false, 0);
        mem.access_data(t0, 0x200_0000, false, 0);
        mem.access_data(t1, 0x300_0000, false, 0);
        let out = mem.outstanding_l2_misses(5);
        assert_eq!(out, vec![2, 1]);
        // Long after the fills, nothing is outstanding.
        let out = mem.outstanding_l2_misses(10_000);
        assert_eq!(out, vec![0, 0]);
    }

    /// A restored hierarchy is indistinguishable from the one captured.
    /// One hierarchy runs a long seeded stream; at every round it is
    /// captured, the capture is restored into a second (dirty) hierarchy,
    /// and both must agree on every observable over the next stretch of
    /// the stream. The tiny caches and TLBs evict constantly, so a wrong
    /// recency order shows within a few rounds. Accesses spread over time
    /// with occasional purges, so the captures hold stale heap nodes and
    /// dead entries, and each stretch runs past the captured deadlines.
    #[test]
    fn restored_state_matches_the_captured_hierarchy() {
        let cfg = MemoryConfig {
            il1: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                latency: 1,
                banks: 1,
            },
            dtlb_entries: 8,
            ..small_config()
        };
        let mut state = 0x5eed_cafe_f00d_u64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let access = |mem: &mut MemoryHierarchy, r: u64, now: u64| {
            let t = ThreadId::new((r & 1) as usize);
            let addr = (r >> 1) % 4096 * 64 + (r % 64);
            if r.is_multiple_of(5) {
                mem.access_inst(t, addr, now)
            } else {
                mem.access_data(t, addr, r.is_multiple_of(7), now)
            }
        };

        let mut original = MemoryHierarchy::new(&cfg, 2);
        let mut restored = MemoryHierarchy::new(&cfg, 2);
        let mut now = 0;
        for i in 0..3_000u64 {
            let r = draw();
            access(&mut original, r, now);
            now += r % 3 / 2;
            if i.is_multiple_of(97) {
                original.outstanding_l2_misses(now);
            }
        }
        for round in 0..40 {
            original.reset_stats();
            let warm = original.warm_state();
            assert!(warm.bytes() > 0);
            restored.restore_warm(&warm);
            assert_eq!(restored.warm_state(), warm, "round {round}: round trip");
            for i in 0..1_000u64 {
                let r = draw();
                assert_eq!(
                    access(&mut original, r, now),
                    access(&mut restored, r, now),
                    "round {round}, access {i} at cycle {now}"
                );
                assert_eq!(original.next_fill_ready_at(), restored.next_fill_ready_at());
                if i.is_multiple_of(13) {
                    assert_eq!(
                        original.outstanding_l2_misses(now),
                        restored.outstanding_l2_misses(now),
                        "round {round}: outstanding at cycle {now}"
                    );
                }
                if i.is_multiple_of(101) {
                    original.collect_expired_fills(now);
                    restored.collect_expired_fills(now);
                }
                now += r % 4 / 3;
            }
            assert_eq!(original.cache_stats(), restored.cache_stats());
            for t in 0..2 {
                let t = ThreadId::new(t);
                assert_eq!(original.thread_stats(t), restored.thread_stats(t));
            }
        }
    }

    #[test]
    fn inst_accesses_use_il1() {
        let mut mem = MemoryHierarchy::new(&MemoryConfig::default(), 1);
        let t = ThreadId::new(0);
        let first = mem.access_inst(t, 0x40_0000, 0);
        assert_eq!(first.level, HitLevel::Memory);
        let second = mem.access_inst(t, 0x40_0000, first.ready_at());
        assert_eq!(second.level, HitLevel::L1);
        assert_eq!(second.latency, 1);
    }
}
