//! Data translation lookaside buffer.

use fxhash::FxHashMap;
use serde::{Deserialize, Serialize};

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed.
    pub misses: u64,
}

/// A fully-associative, LRU data TLB (one per hardware thread).
///
/// The TLB is probed on every data access, so the lookup is O(1): a hashed
/// page table plus an intrusive doubly-linked recency list, instead of a
/// linear scan over all entries. True-LRU replacement is preserved exactly
/// (the evicted page is the unique least-recently-used one), so the
/// hit/miss sequence is identical to the scan-based implementation.
///
/// # Examples
///
/// ```
/// use smt_mem::Tlb;
///
/// let mut tlb = Tlb::new(4, 8192);
/// assert!(!tlb.access(0x0));      // cold miss
/// assert!(tlb.access(0x1fff));    // same 8KB page
/// assert!(!tlb.access(0x2000));   // next page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Resident page → slot index.
    map: FxHashMap<u64, u32>,
    /// Page stored in each allocated slot.
    pages: Vec<u64>,
    /// Recency list links per slot (`NONE` at the ends).
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most- and least-recently-used slots (`NONE` while empty).
    head: u32,
    tail: u32,
    capacity: usize,
    page_shift: u32,
    stats: TlbStats,
}

const NONE: u32 = u32::MAX;

impl Tlb {
    /// Creates a TLB with `entries` slots and `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            map: FxHashMap::default(),
            pages: Vec::with_capacity(entries),
            prev: Vec::with_capacity(entries),
            next: Vec::with_capacity(entries),
            head: NONE,
            tail: NONE,
            capacity: entries,
            page_shift: page_bytes.trailing_zeros(),
            stats: TlbStats::default(),
        }
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links `slot` in as the most recently used entry.
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = self.head;
        if self.head != NONE {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    /// Translates `addr`; on miss, installs the page (evicting LRU).
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let page = addr >> self.page_shift;
        // Most accesses touch the most-recent page; a head hit needs no
        // hash lookup and no relink, so answer it from the recency list
        // directly (identical hit/miss and LRU behaviour).
        if self.head != NONE && self.pages[self.head as usize] == page {
            return true;
        }
        if let Some(&slot) = self.map.get(&page) {
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return true;
        }
        self.stats.misses += 1;
        let slot = if self.pages.len() < self.capacity {
            let slot = self.pages.len() as u32;
            self.pages.push(page);
            self.prev.push(NONE);
            self.next.push(NONE);
            slot
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.pages[victim as usize]);
            self.pages[victim as usize] = page;
            victim
        };
        self.map.insert(page, slot);
        self.push_front(slot);
        false
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Returns the TLB to its power-on state (no resident pages, zeroed
    /// counters) while keeping the slot allocations. Behaviour after the
    /// call is bit-identical to a freshly constructed TLB.
    pub fn reset_cold(&mut self) {
        self.map.clear();
        self.pages.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NONE;
        self.tail = NONE;
        self.stats = TlbStats::default();
    }

    /// The resident pages, least recently used first (a walk from the
    /// tail of the recency list). Slot positions are never observed.
    pub(crate) fn resident_pages(&self) -> Box<[u64]> {
        let mut pages = Vec::with_capacity(self.pages.len());
        let mut slot = self.tail;
        while slot != NONE {
            pages.push(self.pages[slot as usize]);
            slot = self.prev[slot as usize];
        }
        pages.into_boxed_slice()
    }

    /// Rebuilds the state [`Tlb::resident_pages`] captured: cold, one
    /// access per page in order (at most `capacity` pages, so nothing is
    /// evicted), zeroed counters.
    pub(crate) fn restore(&mut self, pages: &[u64]) {
        self.reset_cold();
        for &page in pages {
            self.access(page << self.page_shift);
        }
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(8, 4096);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ffc));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // refresh page 0
        t.access(0x2000); // evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x1000), "page 1 was LRU-evicted");
    }

    #[test]
    fn stats_accumulate() {
        let mut t = Tlb::new(4, 4096);
        for i in 0..8u64 {
            t.access(i * 4096);
        }
        assert_eq!(t.stats().accesses, 8);
        assert_eq!(t.stats().misses, 8);
    }

    #[test]
    fn matches_reference_scan_lru() {
        // Differential test against a straightforward timestamp-scan LRU:
        // the hit/miss sequence must be identical for a pseudo-random
        // access stream with heavy reuse.
        struct Reference {
            pages: Vec<u64>,
            lru: Vec<u64>,
            tick: u64,
        }
        impl Reference {
            fn access(&mut self, page: u64) -> bool {
                self.tick += 1;
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for i in 0..self.pages.len() {
                    if self.pages[i] == page {
                        self.lru[i] = self.tick;
                        return true;
                    }
                    if self.lru[i] < oldest {
                        oldest = self.lru[i];
                        victim = i;
                    }
                }
                self.pages[victim] = page;
                self.lru[victim] = self.tick;
                false
            }
        }
        let mut reference = Reference {
            pages: vec![u64::MAX; 16],
            lru: vec![0; 16],
            tick: 0,
        };
        let mut tlb = Tlb::new(16, 4096);
        let mut state = 0x1234_5678_9abc_def0u64;
        for i in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // ~24 distinct pages over a 16-entry TLB: plenty of reuse.
            let page = (state >> 40) % 24;
            assert_eq!(
                tlb.access(page * 4096),
                reference.access(page),
                "divergence at access {i} (page {page})"
            );
        }
    }
}
