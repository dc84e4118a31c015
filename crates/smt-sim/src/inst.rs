//! In-flight dynamic instruction state.

use smt_isa::{InstClass, PackedInst, RegClass};

/// Sentinel for "no producer" in a dependency slot.
pub(crate) const NO_DEP: u64 = u64::MAX;

/// Pipeline stage of an in-flight instruction.
///
/// Stored in a dedicated struct-of-arrays lane of the window ring (see
/// [`crate::thread::ThreadState`]), not inside [`DynInst`]: the stage is
/// the field every pipeline stage reads — the commit stage scans runs of
/// [`Stage::Done`], issue filters on [`Stage::Dispatched`] — so keeping it
/// in its own contiguous byte lane makes those burst scans touch one byte
/// per instruction instead of a whole `DynInst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Fetched into the thread's fetch queue; occupies no shared resource.
    Fetched,
    /// Renamed/dispatched: occupies a ROB entry, an issue-queue entry and
    /// (if it writes) a rename register.
    Dispatched,
    /// Issued to a functional unit; the issue-queue entry is released at
    /// issue (Section 3.4: queue counters decrement at issue).
    Executing,
    /// Completed; waiting to commit in order. Releases its rename register
    /// at commit (Section 3.4: register counters decrement at commit).
    Done,
}

const _: () = assert!(
    std::mem::size_of::<Stage>() == 1,
    "the stage lane must stay a byte lane (commit scans it)"
);

/// Resolves a packed instruction's dependence distances to absolute
/// producer sequence numbers ([`NO_DEP`] where a slot has no producer or
/// the distance reaches before the stream start). The result lives in the
/// window ring's deps lane, read at dispatch when subscribing to producers.
pub(crate) fn resolve_deps(packed: &PackedInst, seq: u64) -> [u64; 2] {
    packed.dep_dists().map(|d| {
        let dist = u64::from(d);
        if dist != 0 && dist <= seq {
            seq - dist
        } else {
            NO_DEP
        }
    })
}

/// One in-flight instruction.
///
/// Deliberately compact (32 bytes, two per cache line): the window ring
/// holds these, so the trace record is *not* embedded — only the fields
/// the pipeline reads per stage, and of those, the hottest (`stage`,
/// `deps`) live in separate struct-of-arrays lanes of the ring instead.
/// The per-thread sequence number is not stored either — it *is* the ring
/// key — and the five status booleans share one flags byte. The packed
/// record itself, with its pc and effective address, stays in the
/// thread's trace store (whose tail ring outlives every in-flight
/// instruction by construction: it keeps every block within
/// `max_lookback` of the newest requested seq, and squashed instructions
/// re-fetch from within that span), where issue, completion, squash
/// notifications and re-fetches look it up.
#[derive(Debug, Clone)]
pub(crate) struct DynInst {
    /// Globally unique incarnation id: a squashed-and-refetched instruction
    /// reuses its seq but gets a fresh `uid`, so stale timing events can
    /// be recognised and dropped.
    pub uid: u64,
    /// Earliest cycle the instruction may be renamed (front-end depth).
    pub dispatch_eligible_at: u64,
    /// Cycle the instruction was dispatched (age for issue arbitration).
    pub dispatched_at: u64,
    /// Head of this instruction's consumer wait-list (index into the
    /// thread's waiter pool, [`crate::thread::NO_WAITER`] when empty).
    /// Completion walks the list and wakes the registered consumers.
    pub waiters_head: u32,
    /// Functional class.
    pub class: InstClass,
    /// Register class written, if any.
    pub dest: Option<RegClass>,
    /// Wakeup scoreboard: number of source operands still outstanding.
    /// Counted at dispatch; decremented by producers as they complete.
    /// Valid only while `Dispatched` — the instruction joins its queue's
    /// ready list the moment this reaches zero.
    pub pending_ops: u8,
    /// Status flags, see the `FLAG_*` constants.
    flags: u8,
}

// Window slots are the simulator's dominant memory traffic; every build,
// release included, evaluates this pin.
const _: () = assert!(
    std::mem::size_of::<DynInst>() <= 32,
    "DynInst must stay 32 bytes (two per cache line)"
);

/// Fetch-time branch misprediction (squash when the branch resolves).
const FLAG_MISPREDICTED: u8 = 1 << 0;
/// The load missed the L1 data cache.
const FLAG_L1_MISS: u8 = 1 << 1;
/// The load missed the L2.
const FLAG_L2_MISS: u8 = 1 << 2;
/// The L2 miss has been detected (one L2 latency after issue) and is
/// counted in the thread's pending-L2 counter.
const FLAG_L2_DETECTED: u8 = 1 << 3;
/// The instruction is a call or return (squashing one clears the RAS).
const FLAG_PUSHES_RAS: u8 = 1 << 4;

impl DynInst {
    /// An inert filler for unoccupied ring slots — never observable: every
    /// ring lookup is bounds-guarded by the live `[base, tip)` range.
    pub fn placeholder() -> Self {
        DynInst {
            uid: 0,
            dispatch_eligible_at: 0,
            dispatched_at: 0,
            waiters_head: crate::thread::NO_WAITER,
            class: InstClass::IntAlu,
            dest: None,
            pending_ops: 0,
            flags: 0,
        }
    }

    /// Creates a freshly fetched instruction from its packed trace record.
    /// The caller stores the companion lane values ([`resolve_deps`],
    /// [`Stage::Fetched`]) alongside.
    pub fn fetched(uid: u64, packed: &PackedInst, now: u64, frontend_delay: u32) -> Self {
        DynInst {
            uid,
            dispatch_eligible_at: now + u64::from(frontend_delay),
            dispatched_at: 0,
            waiters_head: crate::thread::NO_WAITER,
            class: packed.class(),
            dest: packed.dest(),
            pending_ops: 0,
            flags: if packed.touches_ras() {
                FLAG_PUSHES_RAS
            } else {
                0
            },
        }
    }

    #[inline]
    pub fn mispredicted(&self) -> bool {
        self.flags & FLAG_MISPREDICTED != 0
    }

    #[inline]
    pub fn set_mispredicted(&mut self) {
        self.flags |= FLAG_MISPREDICTED;
    }

    #[inline]
    pub fn l1_miss(&self) -> bool {
        self.flags & FLAG_L1_MISS != 0
    }

    #[inline]
    pub fn set_l1_miss(&mut self) {
        self.flags |= FLAG_L1_MISS;
    }

    #[inline]
    pub fn l2_miss(&self) -> bool {
        self.flags & FLAG_L2_MISS != 0
    }

    #[inline]
    pub fn set_l2_miss(&mut self) {
        self.flags |= FLAG_L2_MISS;
    }

    #[inline]
    pub fn l2_detected(&self) -> bool {
        self.flags & FLAG_L2_DETECTED != 0
    }

    #[inline]
    pub fn set_l2_detected(&mut self) {
        self.flags |= FLAG_L2_DETECTED;
    }

    #[inline]
    pub fn pushes_ras(&self) -> bool {
        self.flags & FLAG_PUSHES_RAS != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(dep: [u16; 2]) -> PackedInst {
        PackedInst::new(0, InstClass::IntAlu, Some(RegClass::Int), dep, None)
    }

    #[test]
    fn deps_resolve_to_absolute_seqs() {
        let p = alu([3, 10]);
        assert_eq!(resolve_deps(&p, 20), [17, 10]);
        let i = DynInst::fetched(1, &p, 5, 4);
        assert_eq!(i.dispatch_eligible_at, 9);
    }

    #[test]
    fn flags_pack_independently() {
        let p = PackedInst::new(0, InstClass::Load, Some(RegClass::Int), [0; 2], None);
        let mut i = DynInst::fetched(1, &p, 0, 0);
        assert!(!i.l1_miss() && !i.l2_miss() && !i.mispredicted());
        i.set_l1_miss();
        i.set_l2_detected();
        assert!(i.l1_miss() && i.l2_detected());
        assert!(!i.l2_miss() && !i.mispredicted() && !i.pushes_ras());
    }

    #[test]
    fn deps_before_stream_start_are_dropped() {
        assert_eq!(
            resolve_deps(&alu([5, 0]), 3),
            [NO_DEP, NO_DEP],
            "distance beyond seq 0 has no producer"
        );
    }
}
