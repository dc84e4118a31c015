//! Miss-status handling registers: outstanding-fill tracking and
//! memory-level-parallelism accounting.

use crate::HitLevel;
use fxhash::FxHashMap;
use smt_isa::ThreadId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One outstanding cache fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutstandingMiss {
    /// Cycle at which the fill completes.
    pub ready_at: u64,
    /// Thread that initiated the miss.
    pub owner: ThreadId,
    /// Level the fill is coming from (L2 or memory).
    pub level: HitLevel,
}

/// In-flight fills that share an owner, a level and a deadline: one
/// group of [`MshrFile::fills`]. A functional warm-up makes every access
/// at one cycle, so its fills fall into a handful of groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FillGroup {
    owner: ThreadId,
    level: HitLevel,
    ready_at: u64,
    lines: Box<[u64]>,
}

impl FillGroup {
    /// Heap bytes held by the group's line list.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.lines)
    }
}

/// The MSHR file: a map from line address to its in-flight fill.
///
/// Lines are inserted when a miss leaves the L1 and removed lazily once
/// their `ready_at` has passed. The file answers two questions the rest of
/// the simulator needs:
///
/// 1. *Coalescing*: "is this line already being fetched, and how long until
///    it arrives?" ([`MshrFile::remaining`]).
/// 2. *MLP accounting*: "how many L2 misses does each thread have in flight
///    right now?" ([`MshrFile::outstanding_into`]), the statistic
///    behind the paper's Section 5.2 memory-parallelism comparison.
///
/// Lookups happen on every data access, so the map uses the vendored
/// FxHash (one multiply per key) instead of SipHash; iteration order is
/// never observed, only per-key lookups and order-independent sums. MLP
/// accounting is incremental — per-thread memory-level fill counts are
/// maintained on insert/remove and expired entries are collected through
/// a ready-time-ordered expiry queue — so the per-cycle sampling never
/// walks the map.
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    entries: FxHashMap<u64, OutstandingMiss>,
    /// `(ready_at, line)` of every insert, oldest fill first. Lazy mirror
    /// of `entries`: an entry removed early (by [`MshrFile::remaining`])
    /// leaves its node behind, which is recognised and skipped when it
    /// surfaces.
    expiry: BinaryHeap<Reverse<(u64, u64)>>,
    /// `(ready_at, line)` of *memory-level* inserts only — the fills the
    /// MLP counters track. Same lazy-mirror discipline as `expiry`; read
    /// (and pruned) exclusively by [`MshrFile::next_ready_at`], so popping
    /// its stale nodes never disturbs the main expiry bookkeeping.
    mem_expiry: BinaryHeap<Reverse<(u64, u64)>>,
    /// Memory-level fills currently tracked, per thread (grown on demand).
    mem_inflight: Vec<u32>,
}

impl MshrFile {
    /// Creates an empty MSHR file.
    pub fn new() -> Self {
        MshrFile::default()
    }

    /// Registers a fill for `line`, owned by `owner`, completing at
    /// `ready_at`. An existing in-flight entry for the same line is kept
    /// (first requester wins, as hardware MSHRs merge secondary misses).
    pub fn allocate(&mut self, line: u64, owner: ThreadId, level: HitLevel, ready_at: u64) {
        let mut inserted = false;
        self.entries.entry(line).or_insert_with(|| {
            inserted = true;
            OutstandingMiss {
                ready_at,
                owner,
                level,
            }
        });
        if inserted {
            self.expiry.push(Reverse((ready_at, line)));
            if level == HitLevel::Memory {
                self.mem_expiry.push(Reverse((ready_at, line)));
                let slot = owner.index();
                if slot >= self.mem_inflight.len() {
                    self.mem_inflight.resize(slot + 1, 0);
                }
                self.mem_inflight[slot] += 1;
            }
        }
    }

    /// Drops `line`'s entry, keeping the per-thread MLP counts in sync.
    fn evict(&mut self, line: u64) {
        if let Some(e) = self.entries.remove(&line) {
            if e.level == HitLevel::Memory {
                self.mem_inflight[e.owner.index()] -= 1;
            }
        }
    }

    /// Pops every expiry-queue node at or before `now`, removing the map
    /// entries that are genuinely done. A node whose map entry is missing
    /// (collected early by [`MshrFile::remaining`]) or was re-allocated
    /// with a later deadline is skipped.
    ///
    /// The simulator purges through [`MshrFile::outstanding_into`] once
    /// per closed span of cycles, up to the span's last cycle: a dead
    /// entry left behind by a missed purge would block
    /// [`MshrFile::allocate`]'s insert for a re-missed line.
    pub fn purge_expired(&mut self, now: u64) {
        while let Some(&Reverse((ready_at, line))) = self.expiry.peek() {
            if ready_at > now {
                break;
            }
            self.expiry.pop();
            if self.entries.get(&line).is_some_and(|e| e.ready_at <= now) {
                self.evict(line);
            }
        }
    }

    /// Remaining cycles until `line`'s fill completes, or `None` if no fill
    /// is in flight at `now`. Completed entries are garbage-collected.
    #[inline]
    pub fn remaining(&mut self, line: u64, now: u64) -> Option<u32> {
        match self.entries.get(&line) {
            Some(e) if e.ready_at > now => Some((e.ready_at - now) as u32),
            Some(_) => {
                self.evict(line);
                None
            }
            None => None,
        }
    }

    /// Fill level of an in-flight line (L1 hit-under-miss classification).
    /// Returns [`HitLevel::L1`] if the line is not tracked.
    #[inline]
    pub fn level_of(&self, line: u64) -> HitLevel {
        self.entries
            .get(&line)
            .map(|e| e.level)
            .unwrap_or(HitLevel::L1)
    }

    /// Number of *memory-level* (L2-miss) fills in flight per thread at
    /// `now`, written into `counts` (zeroed first), sized by the caller.
    /// Expired entries are purged as a side effect. Used by the
    /// simulator's MLP sample at each cycle's close — after the purge this
    /// is a copy of the incrementally maintained counters, not a walk over
    /// the MSHR map.
    pub fn outstanding_into(&mut self, now: u64, counts: &mut [u32]) {
        self.purge_expired(now);
        counts.fill(0);
        let n = counts.len().min(self.mem_inflight.len());
        counts[..n].copy_from_slice(&self.mem_inflight[..n]);
    }

    /// Earliest completion cycle of any in-flight *memory-level* fill, or
    /// `None` when none is in flight. Stale nodes (fills collected early
    /// by [`MshrFile::remaining`], or lines re-allocated with a different
    /// deadline or level) are discarded on the way.
    ///
    /// This is the fast-forward bound for the simulator's per-cycle MLP
    /// sampling: the MLP counters track memory-level fills only, so
    /// strictly before this cycle the per-thread outstanding-miss counts
    /// are provably constant — L2-level fills may expire mid-span without
    /// observable effect (their lazy map cleanup happens on the next
    /// purge or touch either way).
    pub fn next_ready_at(&mut self) -> Option<u64> {
        while let Some(&Reverse((ready_at, line))) = self.mem_expiry.peek() {
            // A live node always matches its map entry exactly: `allocate`
            // pushes the node together with the entry, and entries never
            // change deadline or level. Anything else is stale.
            let live = self
                .entries
                .get(&line)
                .is_some_and(|e| e.ready_at == ready_at && e.level == HitLevel::Memory);
            if live {
                return Some(ready_at);
            }
            self.mem_expiry.pop();
        }
        None
    }

    /// Drops every tracked fill and zeroes the MLP counters, keeping the
    /// map/heap allocations. Bit-identical to a fresh MSHR file.
    pub fn reset_cold(&mut self) {
        self.entries.clear();
        self.expiry.clear();
        self.mem_expiry.clear();
        self.mem_inflight.clear();
    }

    /// Every tracked fill, expired-but-unpurged ones included (they still
    /// block re-allocation), grouped by `(owner, level, ready_at)` with
    /// each group's lines sorted. The map and the per-thread counts are
    /// functions of this; of the expiry heaps only the live nodes are
    /// observable, and their keys are unique, so they pop in one order
    /// whatever the order of insertion.
    pub(crate) fn fills(&self) -> Box<[FillGroup]> {
        let mut live: Vec<(ThreadId, HitLevel, u64, u64)> = self
            .entries
            .iter()
            .map(|(&line, e)| (e.owner, e.level, e.ready_at, line))
            .collect();
        live.sort_unstable();
        live.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2))
            .map(|run| {
                let (owner, level, ready_at, _) = run[0];
                FillGroup {
                    owner,
                    level,
                    ready_at,
                    lines: run.iter().map(|f| f.3).collect(),
                }
            })
            .collect()
    }

    /// Rebuilds the state [`MshrFile::fills`] captured by re-allocating
    /// every fill into an empty file: the map, the per-thread counts and
    /// both expiry heaps. Stale heap nodes of the original are not
    /// rebuilt; [`MshrFile::purge_expired`] and [`MshrFile::next_ready_at`]
    /// skip them anyway.
    pub(crate) fn restore(&mut self, groups: &[FillGroup]) {
        self.reset_cold();
        for g in groups {
            for &line in g.lines.iter() {
                self.allocate(line, g.owner, g.level, g.ready_at);
            }
        }
    }

    /// Number of tracked in-flight fills (any level).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no fills are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_expires() {
        let mut m = MshrFile::new();
        m.allocate(42, ThreadId::new(0), HitLevel::Memory, 100);
        assert_eq!(m.remaining(42, 60), Some(40));
        assert_eq!(m.remaining(42, 100), None, "fill completed at 100");
        assert!(m.is_empty(), "expired entry is collected");
    }

    #[test]
    fn first_requester_wins_on_merge() {
        let mut m = MshrFile::new();
        m.allocate(7, ThreadId::new(0), HitLevel::Memory, 50);
        m.allocate(7, ThreadId::new(1), HitLevel::L2, 90);
        assert_eq!(m.remaining(7, 0), Some(50));
        assert_eq!(m.level_of(7), HitLevel::Memory);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn mlp_counts_only_memory_level_fills() {
        let mut m = MshrFile::new();
        m.allocate(1, ThreadId::new(0), HitLevel::Memory, 400);
        m.allocate(2, ThreadId::new(0), HitLevel::L2, 400);
        m.allocate(3, ThreadId::new(1), HitLevel::Memory, 400);
        let mut out = [0; 2];
        m.outstanding_into(0, &mut out);
        assert_eq!(out, [1, 1]);
    }

    #[test]
    fn next_ready_at_tracks_memory_level_fills_only() {
        let mut m = MshrFile::new();
        assert_eq!(m.next_ready_at(), None);
        // An L2-level fill is invisible to the MLP counters and must not
        // bound the fast-forward span.
        m.allocate(2, ThreadId::new(0), HitLevel::L2, 40);
        assert_eq!(m.next_ready_at(), None);
        m.allocate(1, ThreadId::new(0), HitLevel::Memory, 100);
        m.allocate(3, ThreadId::new(1), HitLevel::Memory, 60);
        assert_eq!(m.next_ready_at(), Some(60));
        // Drain the earliest memory fill: the next one takes over.
        assert_eq!(m.remaining(3, 60), None);
        assert_eq!(m.next_ready_at(), Some(100));
        assert_eq!(m.remaining(1, 100), None);
        assert_eq!(m.next_ready_at(), None);
    }

    #[test]
    fn next_ready_at_skips_stale_and_relevelled_nodes() {
        let mut m = MshrFile::new();
        m.allocate(7, ThreadId::new(0), HitLevel::Memory, 50);
        assert_eq!(m.next_ready_at(), Some(50));
        // Early-collect line 7 and re-allocate it as an L2 fill with the
        // *same* deadline: the old memory-level node is stale (level
        // mismatch) and must be skipped.
        assert_eq!(m.remaining(7, 50), None);
        m.allocate(7, ThreadId::new(1), HitLevel::L2, 50);
        assert_eq!(m.next_ready_at(), None);
        // Re-allocate as memory with a later deadline after collection.
        assert_eq!(m.remaining(7, 50), None);
        m.allocate(7, ThreadId::new(1), HitLevel::Memory, 90);
        assert_eq!(m.next_ready_at(), Some(90));
    }

    #[test]
    fn dead_entry_blocks_reallocation_until_purged() {
        // The per-cycle purge is part of the simulator's observable
        // semantics: a fill that expired but was never purged (its line's
        // purge cycles were fast-forwarded over) blocks `allocate`'s
        // insert for the same line. The fast-forward path therefore
        // replays the purge up to the cycle before the resumed one; this
        // pins the mechanism at the MSHR level.
        let mut m = MshrFile::new();
        m.allocate(5, ThreadId::new(0), HitLevel::L2, 100);
        // No purge ran between cycles 100 and 150 (skipped span): the
        // dead entry still occupies the slot and swallows the new fill.
        let mut blocked = m.clone();
        blocked.allocate(5, ThreadId::new(0), HitLevel::Memory, 450);
        let mut out = [0; 1];
        blocked.outstanding_into(150, &mut out);
        assert_eq!(
            out,
            [0],
            "dead entry must swallow the re-allocation (documented hazard)"
        );
        // With the purge replayed first, the re-allocation lands.
        m.purge_expired(149);
        m.allocate(5, ThreadId::new(0), HitLevel::Memory, 450);
        m.outstanding_into(150, &mut out);
        assert_eq!(out, [1]);
        assert_eq!(m.next_ready_at(), Some(450));
    }

    #[test]
    fn outstanding_purges_expired() {
        let mut m = MshrFile::new();
        m.allocate(1, ThreadId::new(0), HitLevel::Memory, 10);
        m.allocate(2, ThreadId::new(0), HitLevel::Memory, 500);
        let mut out = [0; 1];
        m.outstanding_into(100, &mut out);
        assert_eq!(out, [1]);
        assert_eq!(m.len(), 1);
    }
}
