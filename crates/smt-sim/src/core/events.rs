//! Timing events: the wheel, the wakeup scoreboard entries, and the
//! event-drain stage that starts every cycle.
//!
//! This module owns everything that happens *between* cycles: completion
//! and L2-detection events scheduled by the issue stage land on the
//! [`EventWheel`], and the drain at the top of each cycle delivers them —
//! waking consumers onto the per-queue ready lists ([`ReadyEntry`]) and
//! applying policy miss responses.

use super::Simulator;
use crate::core::rings::SeqRing;
use crate::inst::Stage;
use crate::policy::{MissResponse, Policy};
use crate::thread::NO_WAITER;
use smt_isa::{InstClass, ThreadId};
use std::cmp::Reverse;

/// A timing event as the issue stage schedules it. The canonical drain
/// order is the field order `(at, uid, tid, kind, seq)` —
/// drain-order-equivalent to the original `(at, uid, tid, seq, kind)`
/// because `uid` is globally unique per incarnation, so two distinct
/// events can only tie through `kind`. The wheel stores each event as a
/// 16-byte [`WheelEntry`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    pub at: u64,
    pub uid: u64,
    pub tid: u32,
    pub kind: EventKind,
    pub seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// An executing instruction's result becomes available.
    Complete,
    /// An outstanding load is recognised as an L2 miss (one L2 latency
    /// after issue — the "detected too late" effect of Section 2).
    DetectL2,
}

/// A per-thread sequence number and its thread in one word, `seq << 3 |
/// tid`: order-preserving for `(seq, tid)` because `tid <
/// ThreadId::MAX_THREADS = 8`. Ready entries and wheel entries both name
/// their instruction this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeqTid(u64);

impl SeqTid {
    #[inline]
    pub fn new(seq: u64, tid: usize) -> Self {
        // `tid < 8` is a hard invariant of the whole simulator, enforced in
        // release builds by `SimConfig::validate` (rejected before any
        // entry can exist) and by the `ThreadId::new` assert; the
        // debug_assert here is a local reminder that the packing would
        // corrupt issue and drain ordering if it ever broke.
        debug_assert!(tid < ThreadId::MAX_THREADS);
        SeqTid((seq << 3) | tid as u64)
    }

    #[inline]
    pub fn seq(self) -> u64 {
        self.0 >> 3
    }

    #[inline]
    pub fn tid(self) -> usize {
        (self.0 & 7) as usize
    }
}

/// Ready-list entry, ordered by `(dispatched_at, seq, tid)`: issue pops
/// the oldest dispatched instruction first. It carries no incarnation
/// id: an entry is live exactly when its instruction is still
/// `Dispatched` with `dispatched_at == at` ([`Simulator::ready_entry_is_live`]).
/// A squashed incarnation is re-dispatched at a strictly later cycle, so
/// an entry left behind by a squash can never match the newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ReadyEntry {
    pub at: u64,
    pub id: SeqTid,
}

const _: () = assert!(
    std::mem::size_of::<ReadyEntry>() == 16,
    "ReadyEntry must stay 16 bytes (the ready heaps sift these)"
);

impl ReadyEntry {
    #[inline]
    pub fn new(at: u64, seq: u64, tid: usize) -> Self {
        ReadyEntry {
            at,
            id: SeqTid::new(seq, tid),
        }
    }
}

/// Set in a [`WheelEntry`] key when the event is delivered at its own
/// `at`. A degenerate event scheduled with `at == now` is delivered one
/// cycle late, in the next cycle's bucket, and — clear bit — sorts ahead
/// of the bucket's on-time events, as its smaller `at` would.
const ON_TIME: u64 = 1 << 63;

/// One event as the wheel stores it, 16 bytes: the delivery cycle is the
/// bucket, so `at` is implied. `key` is `ON_TIME | uid << 1 | kind`, and
/// the derived order `(key, id)` is the canonical [`Event`] order within
/// one bucket: uids are unique per incarnation (so `tid` and `seq` never
/// decide between two distinct uids), and the early events of a bucket
/// all share one `at` (issue schedules `at >= now`, so a degenerate event
/// has `at == now`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct WheelEntry {
    key: u64,
    id: SeqTid,
}

const _: () = assert!(
    std::mem::size_of::<WheelEntry>() == 16,
    "WheelEntry must stay 16 bytes (the drain sorts a bucket of these)"
);

impl WheelEntry {
    /// `ev` as delivered at cycle `deliver_at >= ev.at`.
    #[inline]
    fn new(ev: &Event, deliver_at: u64) -> Self {
        debug_assert!(ev.uid < 1 << 62, "uid overflows the wheel key");
        let on_time = if ev.at == deliver_at { ON_TIME } else { 0 };
        WheelEntry {
            key: on_time | ev.uid << 1 | ev.kind as u64,
            id: SeqTid::new(ev.seq, ev.tid as usize),
        }
    }

    #[inline]
    pub fn uid(self) -> u64 {
        (self.key & !ON_TIME) >> 1
    }

    #[inline]
    pub fn kind(self) -> EventKind {
        if self.key & 1 == 0 {
            EventKind::Complete
        } else {
            EventKind::DetectL2
        }
    }

    #[inline]
    pub fn seq(self) -> u64 {
        self.id.seq()
    }

    #[inline]
    pub fn tid(self) -> usize {
        self.id.tid()
    }
}

/// Sentinel for "no node" in the wheel's bucket chains and free list.
const NIL: u32 = u32::MAX;

/// A slab node: one scheduled event and the next node of its chain (the
/// same delivery cycle's bucket, or the free list).
#[derive(Debug, Clone, Copy)]
struct WheelNode {
    entry: WheelEntry,
    next: u32,
}

/// Timing wheel for the simulator's completion/detection events.
///
/// Every event latency is bounded by the machine ([`Simulator::new`]
/// sizes the wheel to the worst case), so each delivery cycle within the
/// horizon owns one chain head in a power-of-two ring ([`SeqRing`] keyed
/// by cycle): O(1) scheduling and draining instead of a binary heap's
/// `O(log n)` tuple comparisons. Every chain lives in one slab of nodes
/// recycled through a free list, so the wheel holds as many nodes as
/// events were ever live at once, not a buffer per cycle. Each cycle's
/// drain sorts its chain, which reproduces the heap's global
/// `(at, uid, tid, kind, seq)` drain order exactly (see [`WheelEntry`]).
#[derive(Debug)]
pub(crate) struct EventWheel {
    /// First node of each delivery cycle's chain, [`NIL`] when empty.
    heads: SeqRing<u32>,
    nodes: Vec<WheelNode>,
    /// First recycled node, [`NIL`] when the slab is full.
    free: u32,
    /// Drain scratch, reused every cycle.
    due: Vec<WheelEntry>,
    /// Scheduled events currently live, so the fast-forward deadline
    /// scan can bail out in O(1) on an empty wheel.
    len: usize,
}

impl EventWheel {
    /// Builds a wheel covering at least `max_delay` cycles of look-ahead:
    /// every event scheduled at most `max_delay` cycles after the cycle
    /// that schedules it fits.
    pub fn new(max_delay: u64) -> Self {
        EventWheel {
            heads: SeqRing::new((max_delay + 2).max(16) as usize, NIL),
            nodes: Vec::new(),
            free: NIL,
            due: Vec::new(),
            len: 0,
        }
    }

    /// Schedules `ev`, which must not be due before `now`. All real
    /// latencies are at least one cycle; should a degenerate configuration
    /// produce `at == now`, the event lands in the next cycle's bucket
    /// (this cycle's drain has already run), which is exactly when the
    /// replaced binary-heap drain would have delivered it.
    ///
    /// # Panics
    ///
    /// Panics if `ev` lies beyond the horizon the wheel was built for.
    pub fn push(&mut self, now: u64, ev: Event) {
        debug_assert!(ev.at >= now, "event scheduled in the past");
        let deliver_at = ev.at.max(now + 1);
        assert!(
            ((deliver_at - now) as usize) < self.heads.capacity(),
            "event {} cycles ahead is beyond the wheel's horizon",
            deliver_at - now
        );
        let head = self.heads.at_mut(deliver_at);
        let node = WheelNode {
            entry: WheelEntry::new(&ev, deliver_at),
            next: *head,
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("event slab overflow");
            self.nodes.push(node);
            idx
        };
        self.heads.set(deliver_at, idx);
        self.len += 1;
    }

    /// Delivery cycle of the earliest scheduled event in
    /// `[now, now + horizon)` (stale events included — delivering a stale
    /// event is a no-op, so treating it as a deadline is merely
    /// conservative), or `None` when nothing is scheduled in that range.
    /// Live chains always sit within `(drain cycle, drain cycle +
    /// capacity)`, so one bounded pass over the heads visits every
    /// delivery cycle at most once; the fast-forward caller passes its
    /// current best deadline as the horizon, keeping the scan no longer
    /// than the jump it could justify.
    pub fn next_due_at(&self, now: u64, horizon: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let span = (self.heads.capacity() as u64).min(horizon);
        (now..now + span).find(|&at| *self.heads.at(at) != NIL)
    }

    /// `true` when nothing is due at `now` — lets the drain stage skip the
    /// buffer shuffle entirely on quiet cycles.
    #[inline]
    pub fn is_idle(&self, now: u64) -> bool {
        *self.heads.at(now) == NIL
    }

    /// Moves every event due at `now` into the `due` scratch buffer,
    /// sorted in the canonical event order, and returns the buffer by
    /// value for borrow-free iteration (return it via [`Self::restore`]).
    pub fn take_due(&mut self, now: u64) -> Vec<WheelEntry> {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        let mut node = std::mem::replace(self.heads.at_mut(now), NIL);
        while node != NIL {
            let n = &mut self.nodes[node as usize];
            due.push(n.entry);
            let next = std::mem::replace(&mut n.next, self.free);
            self.free = node;
            node = next;
        }
        self.len -= due.len();
        if due.len() > 1 {
            due.sort_unstable();
        }
        due
    }

    /// Hands the drain buffer back for reuse.
    pub fn restore(&mut self, due: Vec<WheelEntry>) {
        self.due = due;
    }

    /// Discards every scheduled event, retaining all allocations. Used by
    /// [`Simulator::reset`] when a session is reused for a new run.
    pub fn clear(&mut self) {
        for at in 0..self.heads.capacity() as u64 {
            self.heads.set(at, NIL);
        }
        self.nodes.clear();
        self.free = NIL;
        self.due.clear();
        self.len = 0;
    }
}

impl Simulator {
    /// Event-drain stage: delivers every event due this cycle in canonical
    /// order. Runs before any pipeline stage so completions wake consumers
    /// for the same cycle's issue.
    pub(crate) fn drain_events(&mut self) {
        if self.events.is_idle(self.now) {
            return;
        }
        let due = self.events.take_due(self.now);
        for ev in &due {
            // The instruction may have been squashed (uid mismatch) or even
            // re-fetched under the same seq; both are stale. Dropping a
            // stale event only empties its wheel bucket — no thread,
            // resource or statistic moves — so a stale-only drain leaves
            // the cycle eligible for fast-forward (squash-heavy policies
            // like FLUSH would otherwise have their idle spans shredded by
            // the dead completions of every flushed window).
            let (tid, seq) = (ev.tid(), ev.seq());
            let valid = self.threads[tid]
                .get(seq)
                .is_some_and(|i| i.uid == ev.uid());
            if !valid {
                continue;
            }
            // A delivered event changes machine state (stages, wakeups,
            // pending counters, possibly a squash): the cycle is active.
            self.idle.active = true;
            match ev.kind() {
                EventKind::Complete => self.complete_inst(tid, seq),
                EventKind::DetectL2 => self.detect_l2(tid, seq),
            }
        }
        self.events.restore(due);
    }

    fn complete_inst(&mut self, tid: usize, seq: u64) {
        let t = ThreadId::new(tid);
        let th = &mut self.threads[tid];
        debug_assert_eq!(th.stage_of(seq), Stage::Executing);
        th.set_stage(seq, Stage::Done);
        let inst = th.at(seq);
        let mispredicted = inst.mispredicted();
        let l1_miss = inst.l1_miss();
        let l2_miss = inst.l2_miss();
        let l2_detected = inst.l2_detected();
        let is_load = inst.class == InstClass::Load;

        if l1_miss {
            th.l1d_pending -= 1;
        }
        if l2_miss && l2_detected {
            th.l2_pending -= 1;
        }
        if th.stall_on_load == Some(seq) {
            th.stall_on_load = None;
        }

        // Event-driven wakeup: this result is now available, so walk the
        // completed instruction's consumer wait-list, decrement each live
        // consumer's outstanding-operand count, and move the newly-ready
        // ones onto their queue's ready list. Nodes whose uid no longer
        // matches belong to squashed incarnations and are just recycled.
        let mut node = th.detach_waiters(seq);
        while node != NO_WAITER {
            let (w, next) = th.take_waiter(node);
            node = next;
            debug_assert!(w.seq > seq, "consumers are younger than their producer");
            let live = th.get(w.seq).is_some_and(|c| c.uid == w.uid)
                && th.stage_of(w.seq) == Stage::Dispatched;
            if live {
                let consumer = th.at_mut(w.seq);
                consumer.pending_ops -= 1;
                if consumer.pending_ops == 0 {
                    let entry = ReadyEntry::new(consumer.dispatched_at, w.seq, tid);
                    let q = consumer.class.queue();
                    self.ready[q.index()].push(Reverse(entry));
                }
            }
        }

        // Only loads miss in the L1 data cache (issue sets the flag on
        // the load path alone), so the pc is read only for loads.
        debug_assert!(is_load || !l1_miss);
        if is_load {
            let pc = self.threads[tid].inflight_record(seq).0.pc;
            self.policy.on_load_complete(t, pc, l1_miss);
        }
        if mispredicted {
            // The thread kept fetching past the unresolved branch (the
            // trace-driven stand-in for wrong-path execution): those
            // instructions held fetch slots and shared resources exactly
            // like wrong-path work would, and are discarded now. Fetch
            // redirects with a short bubble; the refetched instructions
            // additionally pay the front-end depth before renaming again.
            self.squash_after(tid, seq);
            let th = &mut self.threads[tid];
            th.icache_stall_until = th.icache_stall_until.max(self.now + 2);
        }
    }

    fn detect_l2(&mut self, tid: usize, seq: u64) {
        let t = ThreadId::new(tid);
        {
            let th = &mut self.threads[tid];
            assert!(th.get(seq).is_some(), "detecting unknown instruction");
            if th.stage_of(seq) != Stage::Executing || th.at(seq).l2_detected() {
                return;
            }
            th.at_mut(seq).set_l2_detected();
            th.l2_pending += 1;
        }
        let mut view = std::mem::take(&mut self.scratch_view);
        self.fill_view(&mut view);
        let response = self.policy.on_l2_miss_detected(t, &view);
        self.scratch_view = view;
        match response {
            MissResponse::Continue => {}
            MissResponse::Stall => {
                self.threads[tid].stall_on_load = Some(seq);
            }
            MissResponse::Flush => {
                self.squash_after(tid, seq);
                self.threads[tid].stall_on_load = Some(seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The drain the wheel replaced: one binary heap in the canonical
    /// `(at, uid, tid, kind, seq)` order, drained of every event with
    /// `at <= now` at the top of cycle `now`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<Event>>,
    }

    impl Reference {
        fn take_due(&mut self, now: u64) -> Vec<(u64, usize, EventKind, u64)> {
            let mut due = Vec::new();
            while self.heap.peek().is_some_and(|Reverse(ev)| ev.at <= now) {
                if let Some(Reverse(ev)) = self.heap.pop() {
                    due.push((ev.uid, ev.tid as usize, ev.kind, ev.seq));
                }
            }
            due
        }

        /// An event left in the heap with `at < now` was scheduled during
        /// cycle `now - 1` with `at == now - 1`: it is due at `now`.
        fn next_due_at(&self, now: u64, horizon: u64) -> Option<u64> {
            self.heap
                .peek()
                .map(|Reverse(ev)| ev.at.max(now))
                .filter(|&at| at - now < horizon)
        }
    }

    fn drain(wheel: &mut EventWheel, reference: &mut Reference, now: u64) -> Result<(), String> {
        let want = reference.take_due(now);
        prop_assert_eq!(wheel.is_idle(now), want.is_empty(), "idle at {}", now);
        let due = wheel.take_due(now);
        let got: Vec<_> = due
            .iter()
            .map(|e| (e.uid(), e.tid(), e.kind(), e.seq()))
            .collect();
        wheel.restore(due);
        prop_assert_eq!(got, want, "drain at {}", now);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every drained sequence and every deadline equal the reference
        /// heap's, for events due now (delivered next cycle, first) and
        /// anywhere within the horizon, under any interleaving of drains,
        /// fast-forward jumps and clears.
        /// Each op is a selector and one random word: 0–3 schedules an
        /// event `0..capacity` cycles ahead (a completion, an L2
        /// detection, or both under one uid), 4–6 steps one cycle and
        /// drains it, 7–8 fast-forwards as the simulator does (to the next
        /// deadline within a random horizon, or across the whole horizon
        /// when there is none) and 9 clears.
        #[test]
        fn wheel_matches_a_reference_heap(
            max_delay in 0u64..40,
            ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..300),
        ) {
            let mut wheel = EventWheel::new(max_delay);
            let cap = wheel.heads.capacity() as u64;
            let mut reference = Reference::default();
            // The drain of `now` has run; pushes land after it.
            let mut now = 0u64;
            let mut count = 0u64;
            for (op, r) in ops {
                match op {
                    0..=3 => {
                        // Unique uids in random order: the counter keeps
                        // them unique, the random high bits shuffle them.
                        count += 1;
                        let uid = (r >> 40) << 24 | count;
                        let kinds: &[EventKind] = match r % 3 {
                            0 => &[EventKind::Complete],
                            1 => &[EventKind::DetectL2],
                            _ => &[EventKind::DetectL2, EventKind::Complete],
                        };
                        let at = now + (r >> 2) % cap;
                        let tid = (r >> 8) as u32 % ThreadId::MAX_THREADS as u32;
                        let seq = (r >> 12) & 0xFF_FFFF;
                        for &kind in kinds {
                            let ev = Event { at, uid, tid, kind, seq };
                            wheel.push(now, ev);
                            reference.heap.push(Reverse(ev));
                        }
                    }
                    4..=6 => {
                        now += 1;
                        drain(&mut wheel, &mut reference, now)?;
                    }
                    7..=8 => {
                        let horizon = 1 + r % (3 * cap);
                        let deadline = wheel.next_due_at(now + 1, horizon);
                        prop_assert_eq!(deadline, reference.next_due_at(now + 1, horizon));
                        now = deadline.unwrap_or(now + horizon);
                        drain(&mut wheel, &mut reference, now)?;
                    }
                    _ => {
                        wheel.clear();
                        reference.heap.clear();
                        prop_assert_eq!(wheel.next_due_at(now + 1, u64::MAX >> 1), None);
                    }
                }
            }
        }
    }

    /// The last cycle of the horizon is accepted; one past it panics.
    #[test]
    #[should_panic(expected = "beyond the wheel's horizon")]
    fn push_past_the_horizon_panics() {
        let mut wheel = EventWheel::new(40);
        let cap = wheel.heads.capacity() as u64;
        let ev = |at| Event {
            at,
            uid: at,
            tid: 0,
            kind: EventKind::Complete,
            seq: 0,
        };
        wheel.push(100, ev(100 + cap - 1));
        wheel.push(100, ev(100 + cap));
    }
}
