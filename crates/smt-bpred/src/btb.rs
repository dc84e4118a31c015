//! Branch target buffer.

/// A set-associative branch target buffer with LRU replacement.
///
/// Shared between threads, as in the modelled machine (256 entries, 4-way in
/// the paper's baseline).
///
/// # Examples
///
/// ```
/// use smt_bpred::BranchTargetBuffer;
///
/// let mut btb = BranchTargetBuffer::new(256, 4);
/// btb.insert(0x1000, 0x2000);
/// assert_eq!(btb.lookup(0x1000), Some(0x2000));
/// assert_eq!(btb.lookup(0x3000), None);
/// ```
#[derive(Debug, Clone)]
pub struct BranchTargetBuffer {
    /// `sets × ways` entries; `None` = invalid.
    entries: Vec<Option<BtbEntry>>,
    /// Per-(set, way) LRU stamps.
    lru: Vec<u64>,
    sets: usize,
    ways: usize,
    tick: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbEntry {
    tag: u64,
    target: u64,
}

impl BranchTargetBuffer {
    /// Creates a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, `entries` is not a multiple of `ways`, or
    /// the resulting set count is not a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        if let Err(why) = Self::validate(entries, ways) {
            panic!("{why}");
        }
        BranchTargetBuffer {
            entries: vec![None; entries],
            lru: vec![0; entries],
            sets: entries / ways,
            ways,
            tick: 0,
        }
    }

    /// Checks the geometry [`BranchTargetBuffer::new`] relies on: at least
    /// one way, `entries` a multiple of `ways`, and a power-of-two set
    /// count.
    pub(crate) fn validate(entries: usize, ways: usize) -> Result<(), String> {
        if ways == 0 {
            return Err("BTB needs at least one way".into());
        }
        if !entries.is_multiple_of(ways) {
            return Err("BTB entries must be a multiple of ways".into());
        }
        if !(entries / ways).is_power_of_two() {
            return Err("BTB set count must be a power of two".into());
        }
        Ok(())
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, pc: u64) -> u64 {
        (pc >> 2) / self.sets as u64
    }

    /// Invalidates every entry and zeroes the LRU clock, keeping the
    /// allocations. Bit-identical to a freshly built BTB.
    pub fn reset_cold(&mut self) {
        self.entries.fill(None);
        self.lru.fill(0);
        self.tick = 0;
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        self.tick += 1;
        for way in 0..self.ways {
            let idx = set * self.ways + way;
            if let Some(e) = self.entries[idx] {
                if e.tag == tag {
                    self.lru[idx] = self.tick;
                    return Some(e.target);
                }
            }
        }
        None
    }

    /// Inserts (or refreshes) the target of the taken branch at `pc`,
    /// evicting the LRU way on conflict.
    pub fn insert(&mut self, pc: u64, target: u64) {
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        self.tick += 1;
        let base = set * self.ways;
        // Hit or free slot first.
        let mut victim = base;
        let mut oldest = u64::MAX;
        for way in 0..self.ways {
            let idx = base + way;
            match self.entries[idx] {
                Some(e) if e.tag == tag => {
                    self.entries[idx] = Some(BtbEntry { tag, target });
                    self.lru[idx] = self.tick;
                    return;
                }
                None => {
                    self.entries[idx] = Some(BtbEntry { tag, target });
                    self.lru[idx] = self.tick;
                    return;
                }
                Some(_) => {
                    if self.lru[idx] < oldest {
                        oldest = self.lru[idx];
                        victim = idx;
                    }
                }
            }
        }
        self.entries[victim] = Some(BtbEntry { tag, target });
        self.lru[victim] = self.tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup() {
        let mut btb = BranchTargetBuffer::new(16, 4);
        btb.insert(0x100, 0x200);
        assert_eq!(btb.lookup(0x100), Some(0x200));
    }

    #[test]
    fn update_replaces_target() {
        let mut btb = BranchTargetBuffer::new(16, 4);
        btb.insert(0x100, 0x200);
        btb.insert(0x100, 0x300);
        assert_eq!(btb.lookup(0x100), Some(0x300));
    }

    #[test]
    fn lru_eviction_on_conflict() {
        // 8 entries, 2 ways -> 4 sets; three branches map to the same
        // set (stride = 4 sets * 4 bytes).
        let mut btb = BranchTargetBuffer::new(8, 2);
        let stride = 4 * 4;
        btb.insert(0x100, 1);
        btb.insert(0x100 + stride, 2);
        // Touch the first so the second becomes LRU.
        assert_eq!(btb.lookup(0x100), Some(1));
        btb.insert(0x100 + 2 * stride, 3);
        assert_eq!(btb.lookup(0x100), Some(1), "MRU entry must survive");
        assert_eq!(btb.lookup(0x100 + stride), None, "LRU entry evicted");
        assert_eq!(btb.lookup(0x100 + 2 * stride), Some(3));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn rejects_bad_geometry() {
        let _ = BranchTargetBuffer::new(10, 4);
    }
}
