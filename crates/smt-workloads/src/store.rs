//! Replayable per-thread trace block store.
//!
//! [`TraceGenerator`] expands a profile into an infinite stream one
//! instruction at a time. The simulator's fetch stage used to invoke it
//! *inline*, on the critical path, once per fetched instruction, and threw
//! the records away at commit — so a nine-policy sweep over the
//! same workload regenerated the identical stream nine times.
//!
//! [`ThreadTrace`] moves generation off the critical path and makes the
//! stream replayable:
//!
//! * instructions are pre-generated in **blocks** of [`TRACE_BLOCK`]
//!   16-byte [`PackedInst`] records, as the generator writes them, beside
//!   one `u64` payload lane: the address of a load or store, the target
//!   of a branch. The rest of the cold [`MemAccess`]/[`BranchInfo`]
//!   payloads is implied: the kind and direction live in the packed
//!   record, and every generated access is 8 bytes wide,
//! * a persistent **prefix** of up to [`MAX_PREFIX_BLOCKS`] blocks is kept
//!   across [`ThreadTrace::rebind`] calls: when the next run uses the same
//!   (profile, seed, slot), its blocks are *reused*, not regenerated —
//!   which is exactly the sweep case (nine policies over one workload).
//!   A rebind to a different key keeps the block buffers and refills them
//!   as the new stream reaches them, so nothing is freed and regrown,
//! * past the prefix cap the stream continues through a small **ring** of
//!   tail blocks sized to the caller's maximum lookback, regenerated from
//!   a generator snapshot frozen at the cap boundary, so memory stays
//!   bounded on arbitrarily long runs,
//! * the cap is per binding. A binding that no later run will replay
//!   calls [`ThreadTrace::stream`] before its first read: it generates no
//!   prefix block (it still reads the blocks a same-key binding already
//!   retained) and streams everything else through the ring. The
//!   experiment engine plans this from its run list, so a trace is kept
//!   only when a later run of the same call can replay it.
//!
//! Every block buffer has a fixed size (6 KiB), so a retaining store
//! holds at most `(MAX_PREFIX_BLOCKS + ring) × 6 KiB` — about 6 MiB per
//! thread — and a store that only ever streamed holds `ring` blocks. Its
//! memory never creeps with the payload mix. A recycled store keeps as
//! many prefix buffers as the longest retained run it has served.
//!
//! The store is bit-exact: a replayed record ([`ThreadTrace::record`]) is
//! precisely the one [`TraceGenerator::next_inst`] streams.

use crate::generator::{TraceGenerator, ACCESS_SIZE};
use crate::profile::BenchmarkProfile;
use smt_isa::{BranchInfo, MemAccess, PackedInst};

/// Instructions per trace block. A power of two so seq→block arithmetic
/// is a shift and the in-block offset a mask.
pub const TRACE_BLOCK: usize = 256;

/// Upper bound of persistently retained blocks per thread (2¹⁰ blocks =
/// 262 144 instructions), the prefix cap of a retaining binding. A
/// streamed binding ([`ThreadTrace::stream`]) keeps no new prefix block,
/// and the experiment engine streams every run that no later run of its
/// list is planned to replay. Blocks are allocated on demand, so short
/// runs pay only for what they touch. The cap is deliberately *small*: it
/// covers the fetch frontier of sweep-length runs (the reuse case), while
/// longer single runs cross into the tail ring and recycle a handful of
/// cache-hot block buffers instead of growing cold freshly-allocated
/// memory for the rest of the run — a continuous multi-100k-cycle run
/// with an unbounded prefix measured several percent *slower* than the
/// recycling ring.
pub const MAX_PREFIX_BLOCKS: usize = 1_024;

const BLOCK_SHIFT: u32 = TRACE_BLOCK.trailing_zeros();
const BLOCK_MASK: u64 = TRACE_BLOCK as u64 - 1;

/// One pre-generated block of [`TRACE_BLOCK`] consecutive instructions:
/// the packed hot lane plus one payload lane indexed by
/// [`PackedInst::aux`] (mem and branch payloads are mutually exclusive in
/// generated streams, so one lane serves both). Both lanes are fixed-size
/// arrays: a refill overwrites them in place.
#[derive(Debug, Clone)]
struct TraceBlock {
    /// Sequence number of `insts[0]`.
    base_seq: u64,
    insts: Box<[PackedInst; TRACE_BLOCK]>,
    /// Load/store address or branch target, in record order.
    payload: Box<[u64; TRACE_BLOCK]>,
}

impl TraceBlock {
    fn new() -> Self {
        TraceBlock {
            base_seq: u64::MAX,
            insts: Box::new([PackedInst::placeholder(); TRACE_BLOCK]),
            payload: Box::new([0; TRACE_BLOCK]),
        }
    }

    /// (Re)fills this block with the next [`TRACE_BLOCK`] instructions of
    /// `gen`, in place: each packed record as the generator writes it,
    /// pointing at its payload in the sidecar lane if it has one.
    fn fill(&mut self, gen: &mut TraceGenerator, base_seq: u64) {
        self.base_seq = base_seq;
        let mut used = 0;
        for slot in self.insts.iter_mut() {
            let (packed, payload) = gen.next_packed();
            let aux = if packed.has_mem() || packed.has_branch() {
                self.payload[used] = payload;
                used += 1;
                used - 1
            } else {
                0
            };
            *slot = packed.with_aux(aux as u16);
        }
    }

    /// The payload value of `packed`, a record of this block.
    #[inline]
    fn payload(&self, packed: PackedInst) -> u64 {
        self.payload[usize::from(packed.aux())]
    }

    /// The packed record at offset `off` of this block and its effective
    /// address (0 for non-memory records).
    #[inline]
    fn entry(&self, off: usize) -> (PackedInst, u64) {
        let packed = self.insts[off];
        let addr = if packed.has_mem() {
            self.payload(packed)
        } else {
            0
        };
        (packed, addr)
    }

    /// The full view of the record at offset `off` of this block.
    #[inline]
    fn record(&self, off: usize) -> TraceRecord {
        let packed = self.insts[off];
        TraceRecord::new(packed, self.payload(packed))
    }
}

/// One instruction of a generated trace, in full: the packed record plus
/// its cold payload. It is what [`TraceGenerator::next_inst`] streams and
/// [`ThreadTrace::record`] replays. The payloads are inline, so the packed
/// core carries no sidecar index ([`PackedInst::aux`] is 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// The 16-byte hot core.
    pub packed: PackedInst,
    /// Memory payload, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Control-flow payload, for branches.
    pub branch: Option<BranchInfo>,
}

impl TraceRecord {
    /// The full view of `packed`, whose payload value is `payload`: a
    /// load or store address, or a branch target (ignored otherwise).
    #[inline]
    pub(crate) fn new(packed: PackedInst, payload: u64) -> Self {
        TraceRecord {
            packed: packed.with_aux(0),
            mem: packed.has_mem().then_some(MemAccess {
                addr: payload,
                size: ACCESS_SIZE,
            }),
            branch: packed.branch_kind().map(|kind| BranchInfo {
                kind,
                taken: packed.taken(),
                target: payload,
            }),
        }
    }
}

/// A replayable, block-buffered view of one thread's trace.
///
/// Reads are seq-indexed and may revisit any sequence number within
/// `max_lookback` of the newest one served (the simulator's squash path
/// re-fetches squashed sequence numbers; records must replay
/// bit-identically). Reads at or past the generation frontier extend it
/// one whole block at a time — generation runs off the per-instruction
/// critical path. The simulator's issue and completion stages read an
/// in-flight instruction's pc and address back through
/// [`ThreadTrace::resident_entry`], so its window does not copy them.
///
/// # Examples
///
/// ```
/// use smt_workloads::{spec, ThreadTrace, TraceGenerator};
///
/// let p = spec::profile("gzip").unwrap();
/// let mut store = ThreadTrace::new(p, 7, 0, 512);
/// let mut stream = TraceGenerator::new(p, 7, 0);
/// for seq in 0..1000 {
///     assert_eq!(store.record(seq), stream.next_inst());
/// }
/// // Rebinding to the same workload replays the retained blocks.
/// assert!(store.rebind(p, 7, 0));
/// assert_eq!(store.record(0), TraceGenerator::new(p, 7, 0).next_inst());
/// ```
#[derive(Debug)]
pub struct ThreadTrace {
    profile: BenchmarkProfile,
    seed: u64,
    slot: u64,
    /// Generator positioned exactly at the prefix frontier
    /// (`filled * TRACE_BLOCK` instructions generated). Frozen at
    /// the cap once the prefix is full; the tail clones it from there.
    prefix_gen: TraceGenerator,
    /// Retained block buffers. `prefix[..filled]` hold blocks
    /// `0..filled` of the current stream, kept across same-key rebinds;
    /// any further buffers are spares from an earlier, longer stream,
    /// refilled before they are read.
    prefix: Vec<TraceBlock>,
    filled: usize,
    /// This binding's prefix cap in blocks: [`MAX_PREFIX_BLOCKS`], or the
    /// blocks already `filled` once [`ThreadTrace::stream`] is called
    /// (0 after a key change).
    prefix_cap: u64,
    /// Ring of tail blocks past the prefix cap, overlaid by block index
    /// and allocated when a run first reaches each slot.
    ring: Vec<TraceBlock>,
    /// Ring slots minus one. The slot count covers `max_lookback` plus
    /// the block being generated, rounded up to a power of two so a slot
    /// is a mask, not a division.
    ring_mask: u64,
    /// Tail generator, cloned from the frozen `prefix_gen` when the
    /// current run first crosses the cap; dropped on rebind.
    tail_gen: Option<TraceGenerator>,
    /// Next tail block index (≥ `prefix_cap`) to generate.
    tail_next_block: u64,
}

impl ThreadTrace {
    /// Creates a store for `profile`, seeded with `seed` on thread slot
    /// `slot` (the [`TraceGenerator::new`] parameters). `max_lookback`
    /// bounds how far behind the newest served sequence number reads may
    /// reach — the simulator's in-flight window span.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`].
    pub fn new(profile: &BenchmarkProfile, seed: u64, slot: u64, max_lookback: u64) -> Self {
        let gen = TraceGenerator::new(profile, seed, slot);
        ThreadTrace {
            profile: profile.clone(),
            seed,
            slot,
            prefix_gen: gen,
            prefix: Vec::new(),
            filled: 0,
            prefix_cap: MAX_PREFIX_BLOCKS as u64,
            ring: Vec::new(),
            ring_mask: ((max_lookback >> BLOCK_SHIFT) + 2).next_power_of_two() - 1,
            tail_gen: None,
            tail_next_block: MAX_PREFIX_BLOCKS as u64,
        }
    }

    /// Rebinds the store for a fresh run, which retains its prefix up to
    /// [`MAX_PREFIX_BLOCKS`] unless [`ThreadTrace::stream`] follows. When
    /// the workload key (profile, seed, slot) is unchanged the retained
    /// prefix blocks are *reused* — the sweep case: nine policies replay
    /// one workload — and the call returns `true` if there is at least
    /// one. Otherwise it returns `false`, and on a key change the store
    /// restarts from a fresh generator; its block buffers stay allocated
    /// and are refilled as the new stream reaches them. Either way the
    /// replay position rewinds to sequence 0.
    pub fn rebind(&mut self, profile: &BenchmarkProfile, seed: u64, slot: u64) -> bool {
        let same_key = self.seed == seed && self.slot == slot && self.profile == *profile;
        if !same_key {
            let gen = TraceGenerator::new(profile, seed, slot);
            self.profile = profile.clone();
            self.seed = seed;
            self.slot = slot;
            self.prefix_gen = gen;
            self.filled = 0;
        }
        // Tail blocks always regenerate (their ring slots are overwritten
        // before first use: any past-cap read first advances
        // `tail_next_block` from the cap).
        self.prefix_cap = MAX_PREFIX_BLOCKS as u64;
        self.tail_gen = None;
        self.tail_next_block = self.prefix_cap;
        same_key && self.filled > 0
    }

    /// Streams the current binding: it generates no prefix block, so
    /// every read past the blocks already retained for this key (none
    /// after a key change) goes through the lookback ring, and the store
    /// holds no more than it already did plus the ring. Records are
    /// bit-identical to a retaining binding's. For a run that no later
    /// run will replay; the next [`ThreadTrace::rebind`] retains again,
    /// and a same-key one regenerates what this binding streamed.
    ///
    /// Call it after [`ThreadTrace::new`] or [`ThreadTrace::rebind`] and
    /// before the binding's first read past its retained blocks.
    pub fn stream(&mut self) {
        debug_assert!(self.tail_gen.is_none(), "stream() after a past-cap read");
        self.prefix_cap = self.filled as u64;
        self.tail_next_block = self.prefix_cap;
    }

    /// Prefix blocks retained for the current key: what a same-key
    /// rebind replays.
    pub fn retained_blocks(&self) -> usize {
        self.filled
    }

    /// The profile driving this trace.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// A decorrelated generator twin over the same regions (functional
    /// cache warm-up; see [`TraceGenerator::decorrelated`]).
    pub fn decorrelated(&self, salt: u64) -> TraceGenerator {
        self.prefix_gen.decorrelated(salt)
    }

    /// The packed record at `seq`, extending the generation frontier by
    /// whole blocks as needed. 16 bytes out of a contiguous lane — the
    /// burst-fetch hot call.
    #[inline]
    pub fn packed(&mut self, seq: u64) -> PackedInst {
        let block = self.block(seq >> BLOCK_SHIFT);
        block.insts[(seq & BLOCK_MASK) as usize]
    }

    /// The packed record at `seq` plus the effective address for
    /// loads/stores (0 otherwise), in one block lookup and at most 24
    /// bytes moved, extending the generation frontier as needed. Branch
    /// payloads are *not* touched — the minority of records that need one
    /// fetch it with [`ThreadTrace::branch_payload`].
    #[inline]
    pub fn entry(&mut self, seq: u64) -> (PackedInst, u64) {
        self.block(seq >> BLOCK_SHIFT)
            .entry((seq & BLOCK_MASK) as usize)
    }

    /// [`ThreadTrace::entry`] for a record whose block is already
    /// materialised and still within `max_lookback` of the newest one
    /// served, without generating: a read through `&self`. The simulator
    /// reads an in-flight instruction's pc and address this way at issue
    /// and completion instead of copying them into its window.
    #[inline]
    pub fn resident_entry(&self, seq: u64) -> (PackedInst, u64) {
        self.block_ref(seq >> BLOCK_SHIFT)
            .entry((seq & BLOCK_MASK) as usize)
    }

    /// The branch payload of the record at `seq`. Only valid for records
    /// with [`PackedInst::has_branch`] set; the block must already be
    /// materialised (it was — the caller just read the packed record out
    /// of it).
    #[inline]
    pub fn branch_payload(&self, seq: u64) -> BranchInfo {
        self.block_ref(seq >> BLOCK_SHIFT)
            .record((seq & BLOCK_MASK) as usize)
            .branch
            .expect("a branch record")
    }

    /// The full record at `seq` (the packed core and its payload), in one
    /// block lookup: exactly what [`TraceGenerator::next_inst`] streamed
    /// for it.
    #[inline]
    pub fn record(&mut self, seq: u64) -> TraceRecord {
        self.block(seq >> BLOCK_SHIFT)
            .record((seq & BLOCK_MASK) as usize)
    }

    /// Resident block `b`, generating forward to materialise it if needed.
    #[inline]
    fn block(&mut self, b: u64) -> &TraceBlock {
        if b < self.prefix_cap {
            while self.filled as u64 <= b {
                if self.filled == self.prefix.len() {
                    self.prefix.push(TraceBlock::new());
                }
                let base = (self.filled as u64) << BLOCK_SHIFT;
                self.prefix[self.filled].fill(&mut self.prefix_gen, base);
                self.filled += 1;
            }
            &self.prefix[b as usize]
        } else {
            while self.tail_next_block <= b {
                // The prefix is necessarily full here (reads are within
                // `max_lookback` of the monotone frontier, which crossed
                // the cap), so `prefix_gen` is frozen at the cap.
                debug_assert_eq!(self.filled as u64, self.prefix_cap);
                let idx = self.tail_next_block;
                let slot = self.ring_slot(idx);
                if slot == self.ring.len() {
                    self.ring.push(TraceBlock::new());
                }
                let tail = self.tail_gen.get_or_insert_with(|| self.prefix_gen.clone());
                self.ring[slot].fill(tail, idx << BLOCK_SHIFT);
                self.tail_next_block += 1;
            }
            self.ring_ref(b)
        }
    }

    /// Resident block `b` without generating (the block must already be
    /// materialised — used by [`ThreadTrace::branch_payload`] and
    /// [`ThreadTrace::resident_entry`]).
    #[inline]
    fn block_ref(&self, b: u64) -> &TraceBlock {
        if b < self.prefix_cap {
            debug_assert!(b < self.filled as u64, "block {b} not refilled");
            &self.prefix[b as usize]
        } else {
            debug_assert!(b < self.tail_next_block, "tail block {b} not refilled");
            self.ring_ref(b)
        }
    }

    /// The ring slot of tail block `b`: slots are taken in order from the
    /// cap, so the ring grows one slot at a time up to `ring_mask + 1`.
    #[inline]
    fn ring_slot(&self, b: u64) -> usize {
        ((b - self.prefix_cap) & self.ring_mask) as usize
    }

    #[inline]
    fn ring_ref(&self, b: u64) -> &TraceBlock {
        let blk = &self.ring[self.ring_slot(b)];
        debug_assert_eq!(
            blk.base_seq,
            b << BLOCK_SHIFT,
            "tail block evicted: read outside the declared max_lookback"
        );
        blk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn gzip() -> &'static BenchmarkProfile {
        spec::profile("gzip").expect("registry profile")
    }

    #[test]
    fn replays_the_generator_stream_bit_identically() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 42, 0, 512);
        let mut gen = TraceGenerator::new(p, 42, 0);
        for seq in 0..5_000u64 {
            assert_eq!(store.record(seq), gen.next_inst(), "seq {seq}");
        }
        // Lookback within the declared window replays identically.
        let again = store.record(4_600);
        let mut gen2 = TraceGenerator::new(p, 42, 0);
        for _ in 0..4_600 {
            gen2.next_inst();
        }
        assert_eq!(again, gen2.next_inst());
    }

    #[test]
    fn tail_ring_continues_past_the_prefix_cap() {
        let p = gzip();
        let cap = (MAX_PREFIX_BLOCKS * TRACE_BLOCK) as u64;
        let total = cap + 3 * TRACE_BLOCK as u64 + 17;
        let mut store = ThreadTrace::new(p, 11, 0, 512);
        let mut gen = TraceGenerator::new(p, 11, 0);
        for seq in 0..total {
            assert_eq!(store.record(seq), gen.next_inst(), "seq {seq}");
            if seq > cap && seq % 173 == 0 {
                // Lookback re-reads across and past the cap boundary stay
                // bit-identical while within the declared window.
                let back = seq - 100;
                let a = store.record(back);
                let b = store.record(back);
                assert_eq!(a, b, "lookback at seq {back}");
            }
        }
        // A same-key rebind replays the retained prefix and regenerates
        // the tail identically.
        assert!(store.rebind(p, 11, 0), "same key must reuse");
        let mut gen2 = TraceGenerator::new(p, 11, 0);
        for seq in 0..total {
            assert_eq!(store.record(seq), gen2.next_inst(), "replay seq {seq}");
        }
    }

    /// A streamed binding serves the generator's stream through the ring
    /// alone, lookback re-reads up to `max_lookback` included, and keeps
    /// nothing: a later same-key rebind has no block to reuse and
    /// regenerates the same records.
    #[test]
    fn streamed_binding_serves_the_stream_from_the_ring() {
        let p = gzip();
        let lookback = 512;
        let mut store = ThreadTrace::new(p, 13, 1, lookback);
        store.stream();
        let mut gen = TraceGenerator::new(p, 13, 1);
        let mut served = Vec::new();
        for seq in 0..20_000u64 {
            let r = store.record(seq);
            assert_eq!(r, gen.next_inst(), "seq {seq}");
            served.push(r);
            if let Some(back) = seq.checked_sub(lookback) {
                assert_eq!(store.record(back), served[back as usize], "lookback {back}");
                let (packed, addr) = store.resident_entry(back);
                let r = served[back as usize];
                assert_eq!(packed.with_aux(0), r.packed, "resident lookback {back}");
                assert_eq!(packed.has_mem().then_some(addr), r.mem.map(|m| m.addr));
            }
        }
        assert!(store.prefix.is_empty(), "a streamed binding built a prefix");
        assert!(store.ring.len() as u64 <= store.ring_mask + 1);
        assert_eq!(
            store.ring.len(),
            4,
            "the baseline ring: 512 insts back, 4 slots"
        );
        assert_eq!(store.retained_blocks(), 0);
        assert!(!store.rebind(p, 13, 1), "nothing retained to reuse");
        for (seq, r) in served.iter().enumerate() {
            assert_eq!(store.record(seq as u64), *r, "regenerated seq {seq}");
        }
        assert_eq!(store.retained_blocks(), 20_000usize.div_ceil(TRACE_BLOCK));
    }

    /// Streaming a key that a previous binding retained replays the
    /// retained blocks and streams past them without adding any; the next
    /// retaining rebind extends the prefix from there.
    #[test]
    fn streamed_binding_reads_the_retained_prefix_without_growing_it() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 5, 0, 512);
        for seq in 0..5_000 {
            store.entry(seq);
        }
        let kept = store.retained_blocks();
        assert!(store.rebind(p, 5, 0));
        store.stream();
        let mut gen = TraceGenerator::new(p, 5, 0);
        for seq in 0..30_000u64 {
            assert_eq!(store.record(seq), gen.next_inst(), "seq {seq}");
        }
        assert_eq!(store.retained_blocks(), kept);
        assert_eq!(store.prefix.len(), kept, "no prefix buffer added");
        assert!(store.rebind(p, 5, 0));
        let mut gen = TraceGenerator::new(p, 5, 0);
        for seq in 0..30_000u64 {
            assert_eq!(store.record(seq), gen.next_inst(), "replay {seq}");
        }
        assert_eq!(store.retained_blocks(), 30_000usize.div_ceil(TRACE_BLOCK));
    }

    /// The ring slot count rounds up to a power of two.
    #[test]
    fn ring_slots_round_up_to_a_power_of_two() {
        for (lookback, slots) in [(0, 2), (255, 2), (256, 4), (512, 4), (528, 4), (768, 8)] {
            let store = ThreadTrace::new(gzip(), 1, 0, lookback);
            assert_eq!(store.ring_mask + 1, slots, "lookback {lookback}");
        }
    }

    #[test]
    fn same_key_rebind_reuses_blocks_and_replays() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 7, 1, 512);
        let first: Vec<_> = (0..2_000).map(|s| store.record(s)).collect();
        assert!(store.rebind(p, 7, 1), "same key must reuse");
        let second: Vec<_> = (0..2_000).map(|s| store.record(s)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn different_seed_rebind_regenerates() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 1, 0, 512);
        let a: Vec<_> = (0..1_000).map(|s| store.record(s)).collect();
        assert!(!store.rebind(p, 2, 0), "changed seed must not reuse");
        let b: Vec<_> = (0..1_000).map(|s| store.record(s)).collect();
        assert_ne!(a, b, "different seeds must diverge");
        let mut gen = TraceGenerator::new(p, 2, 0);
        for (s, inst) in b.iter().enumerate() {
            assert_eq!(*inst, gen.next_inst(), "seq {s}");
        }
    }

    /// A rebind to another workload refills the retained buffers in
    /// place: none is freed or added, and the stream is the new key's.
    #[test]
    fn different_key_rebind_recycles_block_buffers() {
        let p = gzip();
        let mcf = spec::profile("mcf").expect("registry profile");
        let mut store = ThreadTrace::new(p, 1, 0, 512);
        for seq in 0..5_000 {
            store.entry(seq);
        }
        let buffers = store.prefix.len();
        let first = store.prefix[0].insts.as_ptr();
        assert!(!store.rebind(mcf, 2, 1));
        let mut gen = TraceGenerator::new(mcf, 2, 1);
        for seq in 0..1_000 {
            assert_eq!(store.record(seq), gen.next_inst(), "seq {seq}");
        }
        assert_eq!(store.prefix.len(), buffers, "buffers freed or added");
        assert_eq!(store.prefix[0].insts.as_ptr(), first, "buffer reallocated");
    }

    #[test]
    fn phase_signal_matches_lazy_generation() {
        // mcf alternates compute and memory phases; the replayed stream
        // must match lazy generation through every phase switch.
        let p = spec::profile("mcf").expect("registry profile");
        let mut store = ThreadTrace::new(p, 3, 0, 512);
        let mut gen = TraceGenerator::new(p, 3, 0);
        let mut switches = 0;
        let mut phase = gen.in_memory_phase();
        for seq in 0..20_000u64 {
            assert_eq!(store.record(seq), gen.next_inst(), "seq {seq}");
            switches += usize::from(gen.in_memory_phase() != phase);
            phase = gen.in_memory_phase();
        }
        assert!(switches > 0, "the stream never changed phase");
    }

    #[test]
    fn decorrelated_twin_matches_generator_twin() {
        let p = gzip();
        let store = ThreadTrace::new(p, 9, 2, 512);
        let gen = TraceGenerator::new(p, 9, 2);
        let mut a = store.decorrelated(0xCAFE);
        let mut b = gen.decorrelated(0xCAFE);
        for _ in 0..500 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    /// The full record agrees with the split reads of it: the packed core
    /// with its load/store address (generating and resident reads alike),
    /// and the branch payload at the core's sidecar index.
    #[test]
    fn record_parts_match_unpacked_payloads() {
        let p = spec::profile("art").expect("registry profile");
        let mut store = ThreadTrace::new(p, 5, 0, 512);
        for seq in 0..2_000u64 {
            let r = store.record(seq);
            let (packed, addr) = store.entry(seq);
            assert_eq!(store.resident_entry(seq), (packed, addr));
            assert_eq!(r.packed, packed.with_aux(0));
            assert_eq!(r.mem.map(|m| m.addr), packed.has_mem().then_some(addr));
            let branch = packed.has_branch().then(|| store.branch_payload(seq));
            assert_eq!(r.branch, branch);
        }
    }
}
