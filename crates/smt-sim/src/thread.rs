//! Per-hardware-thread simulator state.

use crate::core::rings::SeqRing;
use crate::inst::{DynInst, Stage};
use smt_isa::PackedInst;
use smt_workloads::ThreadTrace;

/// Sentinel for "no waiter node" in the per-thread wakeup pool.
pub(crate) const NO_WAITER: u32 = u32::MAX;

/// One node of a producer's consumer wait-list: a consumer instruction
/// (identified by `seq` + `uid`, so squashed incarnations are recognised
/// as stale) and the next node of the same producer's list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub seq: u64,
    pub uid: u64,
    pub next: u32,
}

/// State of one hardware context: its replayable trace store (squashed
/// instructions are re-fetched, and must decode identically — the store
/// serves any seq within the window span of the newest one fetched), the
/// in-flight instruction window and the thread's blocking conditions.
/// The store is also where issue and completion read an in-flight
/// instruction's pc and effective address ([`Self::inflight_record`]),
/// so the window does not copy them.
///
/// The instruction window and its struct-of-arrays stage/deps lanes are
/// power-of-two *sequence-indexed rings* ([`SeqRing`]): element `seq`
/// lives at slot `seq & mask`, so every hot lookup is one mask and one
/// indexed load. Capacities are fixed at construction from the machine's
/// ROB and fetch-queue bounds (the window can never hold more than
/// `rob_entries + fetch_queue` instructions), so the rings never grow.
///
/// The hottest per-instruction fields live in lanes beside the window
/// instead of inside [`DynInst`]: `stages` (read by every pipeline stage;
/// the commit stage scans contiguous `Done` runs over it) and `deps` (read
/// once per instruction at dispatch). Every lane access is bounds-guarded
/// by the live `[win_base, next_fetch)` range exactly like the window
/// itself.
#[derive(Debug)]
pub(crate) struct ThreadState {
    /// Block-buffered replayable trace: packed records pre-generated off
    /// the fetch critical path, retained across same-workload resets.
    trace: ThreadTrace,
    /// Next sequence number to fetch (rewinds on squash). The in-flight
    /// window spans `[win_base, next_fetch)`.
    pub next_fetch: u64,
    /// Next sequence number to dispatch, always ≥ the window base.
    pub next_dispatch: u64,
    /// Ring of in-flight instructions for seqs `[win_base, next_fetch)`.
    window: SeqRing<DynInst>,
    /// Stage lane of the window (struct-of-arrays: one byte-sized entry
    /// per in-flight instruction, scanned in bursts by commit).
    stages: SeqRing<Stage>,
    /// Producer-dependency lane of the window.
    deps: SeqRing<[u64; 2]>,
    /// Oldest in-flight seq (the commit point).
    win_base: u64,
    /// I-cache miss or fetch-redirect bubble: no fetch until this cycle.
    pub icache_stall_until: u64,
    /// Line address of an in-flight instruction-cache fill. When the stall
    /// expires, the arriving line is consumed directly by the fetch unit —
    /// without this, a line conflict-evicted during the stall would force
    /// a re-miss, and three threads sharing a 2-way I-cache set could
    /// livelock evicting each other's fills forever.
    pub pending_inst_fill: Option<u64>,
    /// Fetch stalled until this load commits its miss (STALL/FLUSH action).
    pub stall_on_load: Option<u64>,
    /// Incrementally maintained per-thread counters.
    pub pre_issue: u32,
    pub l1d_pending: u32,
    pub l2_pending: u32,
    /// Slab of wakeup wait-list nodes; freed nodes are recycled through
    /// `free_waiter_head`, so steady-state wakeup is allocation-free.
    waiter_pool: Vec<Waiter>,
    free_waiter_head: u32,
}

impl ThreadState {
    /// Builds a thread whose window can hold `window_span` in-flight
    /// instructions (`rob_entries + fetch_queue` for the machine at hand).
    /// The trace store must have been built with a `max_lookback` of at
    /// least `window_span` (fetch and squash only ever read seqs within
    /// the live window range).
    pub fn new(trace: ThreadTrace, window_span: usize) -> Self {
        let cap = window_span + 1;
        ThreadState {
            trace,
            next_fetch: 0,
            next_dispatch: 0,
            window: SeqRing::new(cap, DynInst::placeholder()),
            stages: SeqRing::new(cap, Stage::Done),
            deps: SeqRing::new(cap, [crate::inst::NO_DEP; 2]),
            win_base: 0,
            icache_stall_until: 0,
            pending_inst_fill: None,
            stall_on_load: None,
            pre_issue: 0,
            l1d_pending: 0,
            l2_pending: 0,
            waiter_pool: Vec::new(),
            free_waiter_head: NO_WAITER,
        }
    }

    /// Re-initialises the thread for a fresh run, keeping the ring and
    /// waiter-pool allocations. The trace store rebinds to the given
    /// workload key and *reuses* its retained blocks when the key is
    /// unchanged (the sweep case: nine policies replaying one workload
    /// regenerate nothing). State after the call is indistinguishable from
    /// [`ThreadState::new`] over a fresh store with the same key (stale
    /// ring slots are unreachable: every lookup is bounds-guarded by
    /// `[base, tip)`, and slots are always written before re-entering the
    /// live range).
    pub fn reset(&mut self, profile: &smt_workloads::BenchmarkProfile, seed: u64, slot: u64) {
        self.trace.rebind(profile, seed, slot);
        self.next_fetch = 0;
        self.next_dispatch = 0;
        self.win_base = 0;
        self.icache_stall_until = 0;
        self.pending_inst_fill = None;
        self.stall_on_load = None;
        self.pre_issue = 0;
        self.l1d_pending = 0;
        self.l2_pending = 0;
        self.waiter_pool.clear();
        self.free_waiter_head = NO_WAITER;
    }

    // -------------------------------------------------------------- window

    /// Sequence number of the oldest in-flight instruction.
    #[inline]
    pub fn window_base(&self) -> Option<u64> {
        (self.win_base < self.next_fetch).then_some(self.win_base)
    }

    /// `true` when no instructions are in flight.
    #[inline]
    pub fn window_is_empty(&self) -> bool {
        self.win_base == self.next_fetch
    }

    /// Number of in-flight instructions.
    #[inline]
    pub fn window_len(&self) -> usize {
        (self.next_fetch - self.win_base) as usize
    }

    /// `true` while `seq` is in the live window range.
    #[inline]
    fn in_window(&self, seq: u64) -> bool {
        self.win_base <= seq && seq < self.next_fetch
    }

    /// Direct slot access for a seq known to be in flight.
    #[inline]
    pub fn at(&self, seq: u64) -> &DynInst {
        debug_assert!(self.in_window(seq));
        self.window.at(seq)
    }

    /// Mutable direct slot access for a seq known to be in flight.
    #[inline]
    pub fn at_mut(&mut self, seq: u64) -> &mut DynInst {
        debug_assert!(self.in_window(seq));
        self.window.at_mut(seq)
    }

    /// Looks up an in-flight instruction by sequence number.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&DynInst> {
        self.in_window(seq).then(|| self.window.at(seq))
    }

    /// Mutable lookup by sequence number (test-only; the pipeline mutates
    /// through [`Self::at_mut`] after validating liveness).
    #[cfg(test)]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        self.in_window(seq).then(|| self.window.at_mut(seq))
    }

    /// Pipeline stage of an in-flight instruction (stage lane).
    #[inline]
    pub fn stage_of(&self, seq: u64) -> Stage {
        debug_assert!(self.in_window(seq));
        *self.stages.at(seq)
    }

    /// Updates the stage lane for an in-flight instruction.
    #[inline]
    pub fn set_stage(&mut self, seq: u64, stage: Stage) {
        debug_assert!(self.in_window(seq));
        self.stages.set(seq, stage);
    }

    /// Producer seqs of an in-flight instruction (deps lane).
    #[inline]
    pub fn deps_of(&self, seq: u64) -> [u64; 2] {
        debug_assert!(self.in_window(seq));
        *self.deps.at(seq)
    }

    /// Length of the contiguous run of `Done` instructions at the window
    /// base, capped at `max` — the thread's committable burst this cycle.
    /// Scans the byte-sized stage lane only.
    #[inline]
    pub fn done_run_len(&self, max: u32) -> u32 {
        let end = self.next_fetch.min(self.win_base + u64::from(max));
        let mut seq = self.win_base;
        while seq < end && *self.stages.at(seq) == Stage::Done {
            seq += 1;
        }
        (seq - self.win_base) as u32
    }

    /// Appends a freshly fetched instruction at the fetch tip with its
    /// resolved dependency lane entry, and advances the tip. The stage
    /// lane starts at [`Stage::Fetched`].
    #[inline]
    pub fn push_fetched(&mut self, inst: DynInst, deps: [u64; 2]) {
        debug_assert!(
            self.window_len() < self.window.capacity(),
            "window ring full"
        );
        let seq = self.next_fetch;
        self.window.set(seq, inst);
        self.stages.set(seq, Stage::Fetched);
        self.deps.set(seq, deps);
        self.next_fetch += 1;
    }

    /// Advances the commit point past the oldest `n` in-flight
    /// instructions (which the caller has just retired as a burst).
    #[inline]
    pub fn advance_base_by(&mut self, n: u64) {
        debug_assert!(u64::from(self.window_len() as u32) >= n);
        self.win_base += n;
    }

    /// Iterates the live window's sequence numbers oldest-first
    /// (diagnostics).
    pub fn window_seqs(&self) -> std::ops::Range<u64> {
        self.win_base..self.next_fetch
    }

    /// Drops the youngest in-flight instruction (squash path) and returns
    /// `(its seq, a copy of it, its stage)`. The fetch tip moves down; the
    /// caller rewinds `next_dispatch` bookkeeping itself.
    #[inline]
    pub fn pop_youngest(&mut self) -> (u64, DynInst, Stage) {
        debug_assert!(!self.window_is_empty());
        self.next_fetch -= 1;
        let seq = self.next_fetch;
        (seq, self.window.at(seq).clone(), *self.stages.at(seq))
    }

    // ------------------------------------------------------- wakeup waiters

    /// Registers `(consumer_seq, consumer_uid)` on the wait-list of the
    /// in-flight producer `producer_seq`. The producer's completion (or
    /// squash) releases the node.
    pub fn register_waiter(&mut self, producer_seq: u64, consumer_seq: u64, consumer_uid: u64) {
        let head = self.at(producer_seq).waiters_head;
        let node = Waiter {
            seq: consumer_seq,
            uid: consumer_uid,
            next: head,
        };
        let idx = if self.free_waiter_head != NO_WAITER {
            let idx = self.free_waiter_head;
            self.free_waiter_head = self.waiter_pool[idx as usize].next;
            self.waiter_pool[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.waiter_pool.len()).expect("waiter pool overflow");
            self.waiter_pool.push(node);
            idx
        };
        self.at_mut(producer_seq).waiters_head = idx;
    }

    /// Detaches and returns the wait-list head of the in-flight producer
    /// `seq` (leaving the producer's list empty). Walk it with
    /// [`Self::take_waiter`].
    pub fn detach_waiters(&mut self, seq: u64) -> u32 {
        std::mem::replace(&mut self.at_mut(seq).waiters_head, NO_WAITER)
    }

    /// Consumes one node of a detached wait-list: recycles it into the
    /// free list and returns `(waiter, next_node)`.
    pub fn take_waiter(&mut self, node: u32) -> (Waiter, u32) {
        let w = self.waiter_pool[node as usize];
        self.waiter_pool[node as usize].next = self.free_waiter_head;
        self.free_waiter_head = node;
        (w, w.next)
    }

    /// Frees an entire detached wait-list (used when a producer is
    /// squashed before completing).
    pub fn free_waiters(&mut self, mut node: u32) {
        while node != NO_WAITER {
            let (_, next) = self.take_waiter(node);
            node = next;
        }
    }

    // ---------------------------------------------------------- trace store

    /// The packed record of an in-flight instruction plus its effective
    /// address (0 for non-memory instructions), read through `&self`: the
    /// issue and completion stages take the pc and address from here
    /// rather than from the window slot. Every in-flight seq is at or
    /// above `win_base`, which is within the store's `max_lookback` of
    /// the newest seq fetched, so its block is resident (the invariant
    /// [`Self::packed_at`]'s squash-path re-reads rely on).
    #[inline]
    pub fn inflight_record(&self, seq: u64) -> (PackedInst, u64) {
        debug_assert!(self.in_window(seq));
        self.trace.resident_entry(seq)
    }

    /// The branch payload of the record at `seq`. Only records with
    /// [`PackedInst::has_branch`] carry one.
    #[inline]
    pub fn branch_at(&self, seq: u64) -> smt_isa::BranchInfo {
        self.trace.branch_payload(seq)
    }

    /// The full trace record (packed core + cold payloads) at `seq`
    /// (test-only; the pipeline reads the split views above).
    #[cfg(test)]
    pub fn record_at(&mut self, seq: u64) -> smt_workloads::TraceRecord {
        self.trace.record(seq)
    }

    /// The packed core at `seq`, generating forward block-at-a-time as
    /// needed: the fetch stage's hot read (16 bytes), also used by squash
    /// notifications. Re-fetching a squashed sequence number returns the
    /// identical record.
    #[inline]
    pub fn packed_at(&mut self, seq: u64) -> PackedInst {
        self.trace.packed(seq)
    }

    /// Number of instructions currently in the fetch queue (stage Fetched).
    #[inline]
    pub fn fetch_queue_len(&self) -> usize {
        // Fetched instructions are always the window's tail.
        (self.next_fetch - self.next_dispatch) as usize
    }

    /// The trace store, for phase/profile/decorrelation queries.
    pub fn trace(&self) -> &ThreadTrace {
        &self.trace
    }

    /// Streams this run's trace instead of retaining it (see
    /// [`ThreadTrace::stream`]).
    pub fn stream_trace(&mut self) {
        self.trace.stream();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::resolve_deps;

    fn thread() -> ThreadState {
        let p = smt_workloads::spec::profile("gzip").unwrap();
        let span = 512 + 16;
        ThreadState::new(ThreadTrace::new(p, 1, 0, span as u64), span)
    }

    /// Fetches seq `s` into the window with uid `uid`.
    fn push(t: &mut ThreadState, s: u64, uid: u64) {
        let p = t.packed_at(s);
        let deps = resolve_deps(&p, s);
        t.push_fetched(crate::inst::DynInst::fetched(uid, &p, 0, 0), deps);
    }

    #[test]
    fn replay_is_identical() {
        let mut t = thread();
        let a: Vec<_> = (0..50).map(|s| t.record_at(s)).collect();
        let b: Vec<_> = (0..50).map(|s| t.record_at(s)).collect();
        assert_eq!(a, b, "replayed instructions must be bit-identical");
    }

    #[test]
    fn reset_replays_the_same_workload_from_seq_zero() {
        let p = smt_workloads::spec::profile("gzip").unwrap();
        let mut t = thread();
        let a: Vec<_> = (0..100).map(|s| t.record_at(s)).collect();
        t.reset(p, 1, 0);
        assert!(t.window_is_empty());
        let b: Vec<_> = (0..100).map(|s| t.record_at(s)).collect();
        assert_eq!(a, b, "same-key reset must replay identically");
        // A different seed restarts the stream.
        t.reset(p, 2, 0);
        let c: Vec<_> = (0..100).map(|s| t.record_at(s)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn waiter_pool_recycles_nodes() {
        let mut t = thread();
        for s in 0..3u64 {
            push(&mut t, s, s + 1);
        }
        // Two consumers wait on producer 0, one on producer 1.
        t.register_waiter(0, 1, 2);
        t.register_waiter(0, 2, 3);
        t.register_waiter(1, 2, 3);
        assert_eq!(t.waiter_pool.len(), 3);

        // Walking producer 0's list yields its waiters (LIFO) and recycles.
        let mut node = t.detach_waiters(0);
        let mut seen = Vec::new();
        while node != NO_WAITER {
            let (w, next) = t.take_waiter(node);
            seen.push(w.seq);
            node = next;
        }
        assert_eq!(seen, vec![2, 1]);
        assert_eq!(t.get(0).unwrap().waiters_head, NO_WAITER);

        // New registrations reuse the freed slots instead of growing.
        t.register_waiter(1, 2, 3);
        t.register_waiter(1, 2, 3);
        assert_eq!(t.waiter_pool.len(), 3);
        let head = t.detach_waiters(1);
        t.free_waiters(head);
        assert_eq!(t.waiter_pool.len(), 3);
    }

    #[test]
    fn window_lookup_by_seq() {
        let mut t = thread();
        // Advance the window base to 10 by fetching and retiring 10 insts.
        for s in 0..15u64 {
            push(&mut t, s, s);
        }
        t.advance_base_by(10);
        assert_eq!(t.window_base(), Some(10));
        assert_eq!(t.get(12).unwrap().uid, 12, "uids track the pushed seqs");
        assert!(t.get(9).is_none());
        assert!(t.get(15).is_none());
        t.get_mut(14).unwrap().set_mispredicted();
        assert!(t.get(14).unwrap().mispredicted());
    }

    #[test]
    fn stage_and_deps_lanes_track_the_window() {
        let mut t = thread();
        for s in 0..4u64 {
            push(&mut t, s, s + 1);
        }
        assert_eq!(t.stage_of(2), Stage::Fetched);
        t.set_stage(2, Stage::Dispatched);
        assert_eq!(t.stage_of(2), Stage::Dispatched);
        assert_eq!(t.stage_of(3), Stage::Fetched, "other lanes untouched");
        // The deps lane holds what resolve_deps computed at push time.
        let p = t.record_at(2).packed;
        assert_eq!(t.deps_of(2), resolve_deps(&p, 2));
        // A committable run requires Done stages from the base.
        assert_eq!(t.done_run_len(8), 0);
        t.set_stage(0, Stage::Done);
        t.set_stage(1, Stage::Done);
        assert_eq!(t.done_run_len(8), 2);
        assert_eq!(t.done_run_len(1), 1, "run is capped at the budget");
    }

    #[test]
    fn ring_wraps_without_aliasing() {
        let mut t = thread();
        // Push and retire far past the ring capacity; lookups must always
        // resolve to the live incarnation.
        for s in 0..5_000u64 {
            push(&mut t, s, s + 7);
            if s >= 100 {
                t.advance_base_by(1);
            }
        }
        assert_eq!(t.window_len(), 100);
        assert_eq!(t.window_base(), Some(4900));
        assert_eq!(t.at(4950).uid, 4957);
        assert!(t.get(4899).is_none(), "retired seq must be out of range");
    }
}
