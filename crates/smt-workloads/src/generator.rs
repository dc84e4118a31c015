//! Deterministic statistical trace generation.
//!
//! Every per-instruction random draw works on `m = next_u64() >> 11`, the
//! 53-bit integer behind the vendored `gen::<f64>()` (which returns
//! `m·2⁻⁵³`). Each float test on `u = m·2⁻⁵³` has an integer twin that
//! holds for exactly the same `m`, because scaling by `2⁵³` is exact in
//! binary floating point:
//!
//! * a coin `u < p` (`gen_bool(p)`) and an address cut-off `u < x` are
//!   `m < ⌈p·2⁵³⌉` ([`below`]);
//! * a class threshold `t < u` is `⌊t·2⁵³⌋ < m`;
//! * a dependence distance counts precomputed integer bounds above `m`
//!   ([`DepTable`]).
//!
//! So the stream is the one the float draws define, bit for bit, and it
//! consumes the same generator outputs in the same order.

use crate::profile::BenchmarkProfile;
use crate::store::TraceRecord;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use smt_isa::{BranchKind, InstClass, PackedInst, RegClass};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Execution phase of the generated program (the discriminant indexes
/// [`TraceGenerator::addr_cuts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compute,
    Memory,
}

#[derive(Debug, Clone, Copy)]
struct BranchSite {
    pc: u64,
    target: u64,
    /// `below(taken probability)`.
    taken: u64,
}

/// The profile's fixed-probability coins, as [`below`] thresholds.
#[derive(Debug, Clone, Copy)]
struct Coins {
    fp_load: u64,
    pointer_chase: u64,
    streaming: u64,
    call: u64,
    biased: u64,
}

/// A deterministic, infinite instruction stream expanded from a
/// [`BenchmarkProfile`].
///
/// The generator is the repo's substitute for the paper's Alpha/SPEC2000
/// traces (see `DESIGN.md`). Two generators constructed with the same
/// profile, seed and data base produce identical streams, which the
/// simulator relies on for reproducibility.
///
/// # Examples
///
/// ```
/// use smt_workloads::{spec, TraceGenerator};
///
/// let p = spec::profile("gzip").unwrap();
/// let mut a = TraceGenerator::new(p, 7, 0);
/// let mut b = TraceGenerator::new(p, 7, 0);
/// for _ in 0..100 {
///     assert_eq!(a.next_inst(), b.next_inst());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    seed: u64,
    thread_slot: u64,
    rng: SmallRng,
    seq: u64,
    pc: u64,
    code_base: u64,
    /// Size of the code footprint the pc cycles through (at least 256).
    code_bytes: u64,
    data_base: u64,
    phase: Phase,
    phase_left: u64,
    warm_cursor: u64,
    cold_cursor: u64,
    last_cold_load_seq: Option<u64>,
    call_depth: u32,
    sites: Vec<BranchSite>,
    /// Number of leading entries of `sites` that are biased (loop) sites.
    /// The split is fixed at construction, so site picking indexes the two
    /// ranges directly instead of rebuilding index vectors per branch.
    biased_count: usize,
    /// The dependence-distance sampler for this `dep_mean`, shared across
    /// generators with the same mean.
    dep_table: Arc<DepTable>,
    /// `⌊cdf·2⁵³⌋` of the cumulative instruction mix: a draw `m` picks
    /// `classes[#{cut < m}]`.
    class_cuts: [u64; 8],
    classes: [InstClass; 8],
    /// That index per bucket `m >> 45` ([`class_guide`]).
    class_guide: [u8; 256],
    /// Per phase, the data-address draw's cut-offs `(cold, cold + warm)`
    /// as [`below`] thresholds: `m` under the first picks the cold region,
    /// under the second the warm one, otherwise the hot one.
    addr_cuts: [(u64, u64); 2],
    coins: Coins,
}

/// What [`TraceGenerator::next_access`] yields for one instruction: its
/// fetch pc, and for loads and stores `(data address, is_store)`.
type Access = (u64, Option<(u64, bool)>);

/// What [`TraceGenerator::next_packed`] yields for one instruction: the
/// record the trace store keeps, and its payload (a load or store address,
/// a branch target, 0 for neither).
type Packed = (PackedInst, u64);

/// Size of every generated data access (bytes).
pub(crate) const ACCESS_SIZE: u8 = 8;

/// `2⁵³`: the number of distinct draws `m`.
const ONE: u64 = 1 << 53;

/// `2⁻⁵³`, exactly as the vendored `gen::<f64>()` scales `m`.
const UNIT: f64 = 1.0 / ONE as f64;

/// `below(0.5)` and `below(0.25)`.
const HALF: u64 = ONE / 2;
const QUARTER: u64 = ONE / 4;

/// The threshold `t` with `m < t` exactly when `m·2⁻⁵³ < x`: `⌈x·2⁵³⌉`.
/// The product is exact, and the cast saturates (a negative or NaN `x`
/// gives 0, which no `m` is below; `x > 1` gives more than every `m`).
fn below(x: f64) -> u64 {
    (x * ONE as f64).ceil() as u64
}

/// `m >> CLASS_GUIDE_SHIFT` indexes [`TraceGenerator::class_guide`].
const CLASS_GUIDE_SHIFT: u32 = 45;

/// A class-guide entry for a bucket that a cut splits.
const STRADDLES: u8 = u8::MAX;

/// Per bucket of draws, the class index `#{cut < m}` shared by every `m`
/// in it, or [`STRADDLES`] for the few buckets (at most seven of 256) a
/// cut splits. The cuts are non-decreasing, so one pass over the buckets
/// counts them.
fn class_guide(cuts: &[u64; 8]) -> [u8; 256] {
    let mut count = 0;
    std::array::from_fn(|b| {
        let first = (b as u64) << CLASS_GUIDE_SHIFT;
        while count < cuts.len() && cuts[count] < first {
            count += 1;
        }
        let last = first + (1 << CLASS_GUIDE_SHIFT) - 1;
        if count < cuts.len() && cuts[count] < last {
            STRADDLES
        } else {
            count as u8
        }
    })
}

/// Upper clamp of sampled dependence distances (instructions).
const DEP_CLAMP: u64 = 512;

/// `m >> DEP_GUIDE_SHIFT` indexes [`DepTable::guide`]: 1024 buckets.
const DEP_GUIDE_SHIFT: u32 = 43;

/// The reference dependence distance of draw `m`: the geometric sampler's
/// `⌈ln(u)/L⌉` clamped to `1..=512`, with `u` computed exactly as
/// `gen_range(f64::EPSILON..1.0)` derives it from `m`, and
/// `L = ln(1 - 1/dep_mean)`. [`DepTable`] reproduces it without the `ln`.
fn dep_reference(m: u64, l: f64) -> u64 {
    let u = f64::EPSILON + (m as f64 * UNIT) * (1.0 - f64::EPSILON);
    geometric(u, l).clamp(1, DEP_CLAMP)
}

/// The dependence-distance sampler for one `dep_mean`.
///
/// [`dep_reference`] is non-increasing in `m`: `u(m)`, `ln` and `ceil`
/// are monotone non-decreasing, and dividing by `L < 0` reverses the
/// order. So for each `k` the draws with distance at most `k` are a
/// suffix `[B_k, 2⁵³)`, the bounds `B_k` fall as `k` grows, and the
/// distance of `m` is `1 + #{k < 512 : B_k > m}` — integer comparisons
/// only, equal to the reference for every `m`.
#[derive(Debug)]
struct DepTable {
    /// `B_k` for `k = 1..512`, non-increasing.
    bounds: Vec<u64>,
    /// `guide[b]` = number of bounds `≥ (b + 1)·2⁴³`. Each exceeds every
    /// `m` in bucket `b = m >> 43`, so counting can start there.
    guide: Vec<u16>,
}

impl DepTable {
    fn new(l: f64) -> Self {
        let mut bounds = Vec::with_capacity(DEP_CLAMP as usize - 1);
        let mut prev = ONE;
        for k in 1..DEP_CLAMP {
            // Once every draw qualifies, every larger `k` does too.
            prev = if prev == 0 { 0 } else { lowest_at_most(k, l) };
            bounds.push(prev);
        }
        let guide = (1..=ONE >> DEP_GUIDE_SHIFT)
            .map(|b| {
                let floor = b << DEP_GUIDE_SHIFT;
                let count = bounds.partition_point(|&x| x >= floor);
                u16::try_from(count).expect("fewer than DEP_CLAMP bounds")
            })
            .collect();
        DepTable { bounds, guide }
    }

    /// The distance of draw `m`. The guide skips every bound above `m`'s
    /// bucket, and a bucket holds few more except in the deep tail (`m`
    /// below `2⁵³/1024`): step over a few, and binary-search the rest only
    /// when they run out — a data-dependent binary search over 511 bounds
    /// costs about nine branch mispredictions.
    #[inline]
    fn distance(&self, m: u64) -> u16 {
        const STEPS: usize = 4;
        let start = usize::from(self.guide[(m >> DEP_GUIDE_SHIFT) as usize]);
        let rest = &self.bounds[start..];
        let above = start
            + match rest.iter().take(STEPS).position(|&b| b <= m) {
                Some(n) => n,
                None => rest.partition_point(|&b| b > m),
            };
        above as u16 + 1
    }
}

/// `B_k`: the smallest `m` whose [`dep_reference`] is at most `k` (`2⁵³`
/// if none is). It starts from the real-valued estimate `u = exp(k·L)`,
/// which lands within a few draws of the bound, and settles the exact
/// value with a galloping search on the reference itself: a handful of
/// `ln`s where a bisection over 53 bits would take 53.
fn lowest_at_most(k: u64, l: f64) -> u64 {
    let ok = |m: u64| m >= ONE || dep_reference(m, l) <= k;
    let estimate = (((k as f64 * l).exp() - f64::EPSILON) / (1.0 - f64::EPSILON)) * ONE as f64;
    let start = (estimate.ceil() as u64).min(ONE);
    // Bracket the bound between a failing and a passing draw.
    let mut step = 1;
    let (mut fail, mut pass) = if ok(start) {
        let mut pass = start;
        loop {
            if pass == 0 {
                return 0;
            }
            let probe = pass.saturating_sub(step);
            if !ok(probe) {
                break (probe, pass);
            }
            pass = probe;
            step *= 2;
        }
    } else {
        let mut fail = start;
        loop {
            let probe = (fail + step).min(ONE);
            if ok(probe) {
                break (fail, probe);
            }
            fail = probe;
            step *= 2;
        }
    };
    while pass - fail > 1 {
        let mid = fail + (pass - fail) / 2;
        if ok(mid) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    pass
}

/// The [`DepTable`] for `L = ln(1 - 1/dep_mean)`, built once per distinct
/// `L` and shared: generators are rebuilt for every sweep run. The cache
/// grows by one table (about 6 KiB) per distinct `dep_mean`, so it holds
/// one per registry mean, and is never evicted. Tables are built outside the lock and inserted only if still
/// absent. Every update is one `push` of a complete entry, so a poisoned
/// lock still guards a valid list and is recovered, not propagated.
fn dep_table(l: f64) -> Arc<DepTable> {
    type TableCache = Mutex<Vec<(u64, Arc<DepTable>)>>;
    static CACHE: OnceLock<TableCache> = OnceLock::new();
    let key = l.to_bits();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let lookup = |list: &[(u64, Arc<DepTable>)]| {
        list.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, table)| Arc::clone(table))
    };
    if let Some(table) = lookup(&cache.lock().unwrap_or_else(PoisonError::into_inner)) {
        return table;
    }
    let built = Arc::new(DepTable::new(l));
    let mut list = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(table) = lookup(&list) {
        return table;
    }
    list.push((key, Arc::clone(&built)));
    built
}

impl TraceGenerator {
    /// Creates a generator for `profile`, seeded with `seed`. `thread_slot`
    /// offsets the data/code address space so concurrent threads have
    /// disjoint footprints (they still share cache *capacity*).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`].
    pub fn new(profile: &BenchmarkProfile, seed: u64, thread_slot: u64) -> Self {
        profile
            .validate()
            .expect("trace generator requires a valid profile");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        // Per-thread address spaces are disjoint (bit 36+) and *staggered*
        // by an odd line count so that different threads' regions map to
        // different cache sets — without the stagger every thread's code
        // would land in the same I-cache sets (all bases share their low
        // bits) and three or more threads would conflict-evict each other's
        // fetch blocks forever.
        let stagger = thread_slot * 0x1_1040;
        let code_base = 0x0040_0000 + (thread_slot << 36) + stagger;
        let data_base = 0x1000_0000 + (thread_slot << 36) + 3 * stagger;

        let n_sites = profile.branches.sites;
        let biased_sites = ((n_sites as f64) * profile.branches.biased_frac).round() as usize;
        let code_bytes = profile.branches.code_bytes.max(256);
        // Programs spend most of their time in a small hot loop nest; only
        // occasional excursions touch the full code footprint. Biased
        // (loop) branches live in and target the hot region; the
        // data-dependent branches are spread across the footprint. Without
        // this locality the active instruction footprint of a multithreaded
        // workload would overflow the shared I-cache and fetch would be
        // I-cache-stalled most of the time — which real SPEC codes are not.
        let hot_code = code_bytes.min(8 * 1024);
        let sites = (0..n_sites)
            .map(|i| {
                if i < biased_sites {
                    // Loop back edge: the site jumps a short distance
                    // backwards, so the fetch stream cycles tightly over a
                    // small body whose I-cache lines are re-touched every
                    // iteration — like a real inner loop, and unlike a
                    // uniform-random jump, whose reuse distance would grow
                    // as the thread slows and make code residency bistable
                    // under multiprogrammed cache pressure.
                    let pc = code_base + (i as u64 * 97 % (hot_code / 4)) * 4;
                    let body = rng.gen_range(16..256) * 4;
                    let target = pc.saturating_sub(body).max(code_base);
                    // Biased (loop) site: learnable by gshare.
                    BranchSite {
                        pc,
                        target,
                        taken: below(0.985),
                    }
                } else {
                    let pc = code_base + (i as u64 * 193 % (code_bytes / 4)) * 4;
                    // Cold excursion half the time, back to the hot nest
                    // otherwise.
                    let target = if rng.gen_bool(0.5) {
                        code_base + rng.gen_range(0..code_bytes / 4) * 4
                    } else {
                        code_base + rng.gen_range(0..hot_code / 4) * 4
                    };
                    // Data-dependent site: effectively random direction.
                    BranchSite {
                        pc,
                        target,
                        taken: below(profile.branches.random_taken_rate),
                    }
                }
            })
            .collect();

        let m = profile.mix;
        let entries = [
            (m.load, InstClass::Load),
            (m.store, InstClass::Store),
            (m.branch, InstClass::Branch),
            (m.int_alu, InstClass::IntAlu),
            (m.int_mul, InstClass::IntMul),
            (m.fp_alu, InstClass::FpAlu),
            (m.fp_mul, InstClass::FpMul),
            (m.fp_div, InstClass::FpDiv),
        ];
        let cold_cursor_start = rng.gen_range(0..(profile.mem.cold_bytes / 64).max(1)) * 64;
        let total = m.total();
        let mut acc = 0.0;
        // `t < u` exactly when `⌊t·2⁵³⌋ < m` (the product is exact).
        let class_cuts = entries.map(|(w, _)| {
            acc += w / total;
            (acc * ONE as f64).floor() as u64
        });

        let mem = profile.mem;
        let addr_cuts = [Phase::Compute, Phase::Memory].map(|phase| {
            let boost = match phase {
                Phase::Memory => profile.phases.mem_boost,
                Phase::Compute => profile.phases.compute_damp,
            };
            let warm = (mem.warm_frac * boost).min(0.9);
            let cold = (mem.cold_frac * boost).min(0.9 - warm.min(0.89));
            (below(cold), below(cold + warm))
        });

        let dep_l = ln_one_minus_inv(profile.dep_mean);
        let mut this = TraceGenerator {
            profile: profile.clone(),
            seed,
            thread_slot,
            rng,
            seq: 0,
            pc: code_base,
            code_base,
            code_bytes,
            data_base,
            phase: Phase::Compute,
            phase_left: 1,
            warm_cursor: 0,
            // Random start so two generators over the same region (e.g.
            // the decorrelated warm-up twin) do not walk the same
            // sequential path through the cold region.
            cold_cursor: cold_cursor_start,
            last_cold_load_seq: None,
            call_depth: 0,
            sites,
            biased_count: biased_sites.min(n_sites),
            dep_table: dep_table(dep_l),
            class_cuts,
            classes: entries.map(|(_, c)| c),
            class_guide: class_guide(&class_cuts),
            addr_cuts,
            coins: Coins {
                fp_load: below(profile.fp_load_frac),
                pointer_chase: below(mem.pointer_chase),
                streaming: below(mem.streaming),
                call: below(profile.branches.call_frac),
                biased: below(profile.branches.biased_frac),
            },
        };
        this.advance_phase();
        this
    }

    /// Number of instructions generated so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// `true` while the generator is in a memory phase (ground truth for
    /// the phase tests).
    pub fn in_memory_phase(&self) -> bool {
        self.phase == Phase::Memory
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// A *decorrelated* twin of this generator: same profile and thread
    /// slot (same regions, same statistics) but a different random stream.
    /// Used for functional cache warm-up — the twin touches the same hot,
    /// warm and code regions (which is what warming needs) without leaking
    /// the exact future cold-region lines into the caches, which would
    /// erase the measured run's compulsory misses.
    pub fn decorrelated(&self, salt: u64) -> TraceGenerator {
        TraceGenerator::new(
            &self.profile,
            self.seed ^ salt.wrapping_mul(0x5052_4557_4d5f),
            self.thread_slot,
        )
    }

    fn advance_phase(&mut self) {
        let (next, mean) = match self.phase {
            Phase::Compute => (Phase::Memory, self.profile.phases.mem_len),
            Phase::Memory => (Phase::Compute, self.profile.phases.compute_len),
        };
        self.phase = next;
        self.phase_left = sample_geometric(&mut self.rng, mean).max(1);
    }

    /// The next draw `m`: the 53-bit integer behind `gen::<f64>()`.
    #[inline(always)]
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// `gen_bool(p)` for `threshold = below(p)`.
    #[inline(always)]
    fn coin(&mut self, threshold: u64) -> bool {
        self.draw() < threshold
    }

    fn sample_class(&mut self) -> InstClass {
        let m = self.draw();
        self.classes
            .get(self.class_index(m))
            .copied()
            .unwrap_or(InstClass::IntAlu)
    }

    /// "First entry with `u <= threshold`": the number of cuts strictly
    /// below `m`, read off the guide except in a straddled bucket.
    #[inline(always)]
    fn class_index(&self, m: u64) -> usize {
        match self.class_guide[(m >> CLASS_GUIDE_SHIFT) as usize] {
            STRADDLES => self.class_cuts.iter().filter(|&&cut| cut < m).count(),
            idx => usize::from(idx),
        }
    }

    /// Samples a dependence distance: the clamped geometric draw of
    /// [`dep_reference`], read off the shared [`DepTable`].
    ///
    /// Without `FULL` it only draws `m`, keeping the stream in step, and
    /// returns 0: the address-only stream never reads the distance.
    #[inline(always)]
    fn dep_distance<const FULL: bool>(&mut self) -> u16 {
        if self.profile.dep_mean <= 1.0 {
            return 1;
        }
        let m = self.draw();
        if FULL {
            self.dep_table.distance(m)
        } else {
            0
        }
    }

    /// Samples a data address from the nested-working-set model. Returns
    /// `(address, is_cold)`.
    fn sample_address(&mut self) -> (u64, bool) {
        let mem = self.profile.mem;
        let (cold, warm) = self.addr_cuts[self.phase as usize];
        let m = self.draw();
        if m < cold {
            let off = self.cold_offset(mem.cold_bytes);
            (self.data_base + 0x4000_0000 + off, true)
        } else if m < warm {
            // The warm region is a *conflict set*: `warm_bytes` worth of
            // lines arranged as 4 tags per L1 set. A 2-way L1 can hold at
            // most half of each set's tags, so every warm access misses
            // the L1 by construction, while the full region stays
            // L2-resident with a short reuse distance (one pass over the
            // region). This gives the profile's `warm_frac` an exact
            // L1-miss/L2-hit contribution — the basis of the Table-3
            // calibration — and keeps the region L2-resident even when a
            // co-running thread streams misses through the L2.
            const TAGS: u64 = 4;
            const L1_SETS: u64 = 512;
            let lines = (mem.warm_bytes / 64).max(TAGS);
            let sets = (lines / TAGS).max(1);
            // Half the touches advance a cyclic sweep; the other half
            // revisit a random earlier position. The mixture gives the
            // region a *spread* of reuse distances, so L2 pressure from
            // co-running threads evicts warm lines gradually instead of
            // ageing the whole region past the LRU cliff at once — the
            // cliff made co-run performance bistable.
            let j = if self.coin(HALF) {
                self.warm_cursor = self.warm_cursor.wrapping_add(1);
                self.warm_cursor
            } else {
                self.warm_cursor
                    .wrapping_sub(self.rng.gen_range(1..lines.max(2)))
            };
            let tag = j % TAGS;
            let set = (j / TAGS) % sets;
            let line_off = set + L1_SETS * tag;
            (self.data_base + 0x0100_0000 + line_off * 64, false)
        } else {
            let off = self.rng.gen_range(0..mem.hot_bytes / 8) * 8;
            (self.data_base + off, false)
        }
    }

    /// Cold-region offsets always touch a fresh cache line (the region is
    /// far larger than the L2): streaming profiles advance sequentially,
    /// irregular profiles jump randomly. Either way the access is an L2
    /// miss; `streaming` only shapes the address pattern.
    fn cold_offset(&mut self, region_bytes: u64) -> u64 {
        if self.coin(self.coins.streaming) {
            self.cold_cursor = (self.cold_cursor + 64) % region_bytes;
            self.cold_cursor
        } else {
            let lines = (region_bytes / 64).max(1);
            self.rng.gen_range(0..lines) * 64
        }
    }

    /// Generates the next dynamic instruction of the stream: the record
    /// a [`ThreadTrace`](crate::ThreadTrace) replays for it.
    pub fn next_inst(&mut self) -> TraceRecord {
        let (packed, payload) = self.next_packed();
        TraceRecord::new(packed, payload)
    }

    /// [`Self::next_inst`] as the trace store writes it: the packed
    /// record, whose sidecar index is 0, and its payload.
    pub(crate) fn next_packed(&mut self) -> Packed {
        self.generate::<true>()
            .1
            .expect("the full stream builds every record")
    }

    /// The part of the next instruction functional warm-up reads: its
    /// fetch pc and, for loads and stores, the data address and whether it
    /// is a store. Advances the generator exactly as [`Self::next_inst`]
    /// does — same random draws, same state afterwards — so the two calls
    /// can be interleaved freely; it skips only the dependence-distance
    /// lookup and the record's packing.
    pub fn next_access(&mut self) -> (u64, Option<(u64, bool)>) {
        self.generate::<false>().0
    }

    /// The one generator body behind [`Self::next_inst`] and
    /// [`Self::next_access`]. `FULL` selects whether dependence distances
    /// are resolved and the record packed; every random draw happens either
    /// way, so both streams stay in lockstep.
    #[inline(always)]
    fn generate<const FULL: bool>(&mut self) -> (Access, Option<Packed>) {
        let class = self.sample_class();
        let pc = self.pc;
        // Every site and branch target lies inside the footprint, so the
        // offset is below `code_bytes` and one conditional subtract wraps
        // it (`% code_bytes` without the division).
        let next = pc - self.code_base + 4;
        debug_assert!(next - 4 < self.code_bytes, "pc left the code footprint");
        self.pc = self.code_base
            + if next >= self.code_bytes {
                next - self.code_bytes
            } else {
                next
            };

        let out = match class {
            InstClass::Load => self.gen_load::<FULL>(pc),
            InstClass::Store => self.gen_store::<FULL>(pc),
            InstClass::Branch => self.gen_branch::<FULL>(pc),
            c => self.gen_alu::<FULL>(pc, c),
        };

        self.seq += 1;
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.advance_phase();
        }
        out
    }

    fn gen_load<const FULL: bool>(&mut self, pc: u64) -> (Access, Option<Packed>) {
        let (addr, is_cold) = self.sample_address();
        let dest = if self.coins.fp_load > 0 && self.coin(self.coins.fp_load) {
            RegClass::Fp
        } else {
            RegClass::Int
        };
        // 0 = no dependence.
        let mut dep = 0;
        if is_cold {
            // Pointer chasing: the address of this cold load depends on the
            // data of the previous cold load, serialising the misses.
            if let Some(prev) = self.last_cold_load_seq {
                if self.coin(self.coins.pointer_chase) {
                    dep = (self.seq - prev).clamp(1, 512) as u16;
                }
            }
            self.last_cold_load_seq = Some(self.seq);
        } else {
            dep = self.dep_distance::<FULL>();
        }
        let inst = FULL.then(|| {
            let packed = PackedInst::new(pc, InstClass::Load, Some(dest), [dep, 0], None);
            (packed, addr)
        });
        ((pc, Some((addr, false))), inst)
    }

    fn gen_store<const FULL: bool>(&mut self, pc: u64) -> (Access, Option<Packed>) {
        let (addr, _) = self.sample_address();
        let d1 = self.dep_distance::<FULL>();
        let d2 = self.dep_distance::<FULL>();
        let inst = FULL.then(|| {
            (
                PackedInst::new(pc, InstClass::Store, None, [d1, d2], None),
                addr,
            )
        });
        ((pc, Some((addr, true))), inst)
    }

    fn gen_branch<const FULL: bool>(&mut self, pc: u64) -> (Access, Option<Packed>) {
        // Returns match outstanding calls; calls occur with call_frac.
        if self.call_depth > 0 && self.coin(HALF) {
            self.call_depth -= 1;
            let target = self.code_base + self.rng.gen_range(0..64) * 4;
            let inst = FULL.then(|| {
                let kind = Some((BranchKind::Return, true));
                (
                    PackedInst::new(pc, InstClass::Branch, None, [0; 2], kind),
                    target,
                )
            });
            return ((pc, None), inst);
        }
        if self.coin(self.coins.call) {
            self.call_depth = (self.call_depth + 1).min(64);
            let site = self.pick_site();
            let inst = FULL.then(|| {
                let kind = Some((BranchKind::Call, true));
                (
                    PackedInst::new(site.pc, InstClass::Branch, None, [0; 2], kind),
                    site.target,
                )
            });
            return ((site.pc, None), inst);
        }
        let site = self.pick_site();
        let taken = self.coin(site.taken);
        let d = self.dep_distance::<FULL>();
        if taken {
            self.pc = site.target;
        }
        let inst = FULL.then(|| {
            let kind = Some((BranchKind::Conditional, taken));
            (
                PackedInst::new(site.pc, InstClass::Branch, None, [d, 0], kind),
                site.target,
            )
        });
        ((site.pc, None), inst)
    }

    fn pick_site(&mut self) -> BranchSite {
        // Biased sites are hot (loop branches execute often): weight them
        // by the profile's biased fraction of *dynamic* branches. Biased
        // sites occupy `..biased_count`, the data-dependent ones the rest;
        // the ranges are fixed, so this draws the same random sequence the
        // old index-vector implementation did without rebuilding (and
        // heap-allocating) those vectors on every branch.
        let biased_len = self.biased_count;
        let random_len = self.sites.len() - biased_len;
        let use_biased = biased_len > 0 && (random_len == 0 || self.coin(self.coins.biased));
        let (first, len) = if use_biased {
            (0, biased_len)
        } else {
            (biased_len, random_len)
        };
        let idx = first + self.rng.gen_range(0..len);
        self.sites[idx]
    }

    fn gen_alu<const FULL: bool>(&mut self, pc: u64, class: InstClass) -> (Access, Option<Packed>) {
        let dest = if class.is_fp() {
            RegClass::Fp
        } else {
            RegClass::Int
        };
        let d1 = self.dep_distance::<FULL>();
        // 0 = no second dependence.
        let d2 = if self.coin(QUARTER) {
            self.dep_distance::<FULL>()
        } else {
            0
        };
        let inst = FULL.then(|| (PackedInst::new(pc, class, Some(dest), [d1, d2], None), 0));
        ((pc, None), inst)
    }
}

/// `ln(1 - 1/mean)`, the denominator of the geometric sampler (`NaN` for
/// `mean < 1` and `-inf` for `mean == 1`, where the samplers short-circuit
/// before using it).
fn ln_one_minus_inv(mean: f64) -> f64 {
    let p = 1.0 / mean;
    (1.0 - p).ln()
}

/// `⌈ln(u)/L⌉`, at least 1: the geometric draw for a uniform `u` in
/// `(0, 1)` and `L = ln(1 - 1/mean)`.
fn geometric(u: f64, l: f64) -> u64 {
    (u.ln() / l).ceil().max(1.0) as u64
}

/// Samples a geometric-like positive integer with the given mean (the
/// phase lengths).
fn sample_geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    geometric(rng.gen_range(f64::EPSILON..1.0), ln_one_minus_inv(mean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::collections::BTreeMap;

    #[test]
    fn deterministic_for_same_seed() {
        let p = spec::profile("gcc").unwrap();
        let mut a = TraceGenerator::new(p, 123, 1);
        let mut b = TraceGenerator::new(p, 123, 1);
        for _ in 0..5_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    /// The table-driven dependence-distance sampler must agree with the
    /// direct `ceil(ln(u)/ln(1-p))` expression draw for draw — the rng
    /// stream and the sampled values are both pinned.
    #[test]
    fn table_sampler_matches_ln_expression() {
        for bench in ["gcc", "mcf", "art", "gzip", "swim"] {
            let p = spec::profile(bench).unwrap();
            let mut g = TraceGenerator::new(p, 123, 0);
            let mut reference_rng = g.rng.clone();
            for i in 0..200_000 {
                let expect = sample_geometric(&mut reference_rng, p.dep_mean).clamp(1, 512) as u16;
                let got = g.dep_distance::<true>();
                assert_eq!(got, expect, "{bench}: draw {i} diverged");
            }
        }
    }

    /// Every registry `dep_mean` and a dozen off-grid ones: the integer
    /// sampler equals the `ln` expression for every draw within 4096 of
    /// each bound `B_k`, where rounding could split them, and for a
    /// million random draws.
    #[test]
    fn integer_sampler_matches_ln_around_every_bound() {
        const OFF_GRID: [f64; 12] = [
            1.5371, 2.2914, 3.7306, 4.8632, 6.0737, 7.7392, 9.3275, 11.1366, 13.2812, 17.4309,
            23.1917, 29.6803,
        ];
        let mut means: Vec<f64> = spec::names()
            .iter()
            .map(|n| spec::profile(n).unwrap().dep_mean)
            .collect();
        let registry = means.len();
        let off_grid: Vec<f64> = OFF_GRID
            .into_iter()
            .filter(|m| !means.contains(m))
            .collect();
        means.extend(off_grid);
        assert_eq!(means.len(), registry + 12, "need a dozen off-grid means");
        means.sort_by(f64::total_cmp);
        means.dedup();
        let mut rng = SmallRng::seed_from_u64(0xd15);
        for mean in means {
            let l = ln_one_minus_inv(mean);
            let table = DepTable::new(l);
            assert_eq!(table.bounds.len(), DEP_CLAMP as usize - 1);
            assert!(table.bounds.windows(2).all(|w| w[0] >= w[1]));
            // The windows around every bound, merged where they overlap.
            let mut windows: Vec<(u64, u64)> = Vec::new();
            for &b in table.bounds.iter().rev() {
                let (lo, hi) = (b.saturating_sub(4096), (b + 4096).min(ONE - 1));
                match windows.last_mut() {
                    Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
                    _ => windows.push((lo, hi)),
                }
            }
            for (lo, hi) in windows {
                for m in lo..=hi {
                    let got = u64::from(table.distance(m));
                    assert_eq!(got, dep_reference(m, l), "dep_mean {mean}: m = {m}");
                }
            }
            for _ in 0..1_000_000 {
                let m = rng.next_u64() >> 11;
                let got = u64::from(table.distance(m));
                assert_eq!(got, dep_reference(m, l), "dep_mean {mean}: m = {m}");
            }
        }
    }

    /// The class, coin and address thresholds: `⌊t·2⁵³⌋ < m` ⟺
    /// `t < m·2⁻⁵³` and `m < below(x)` ⟺ `m·2⁻⁵³ < x`, checked at the
    /// draws adjacent to each threshold of every registry profile; the
    /// class guide at every bucket's ends as well.
    #[test]
    fn integer_thresholds_match_float_tests() {
        let near = |cut: u64| cut.saturating_sub(2)..=(cut + 2).min(ONE - 1);
        for name in spec::names() {
            let p = spec::profile(name).unwrap();
            let g = TraceGenerator::new(p, 1, 0);
            let total = p.mix.total();
            let mut acc = 0.0;
            let weights = [
                p.mix.load,
                p.mix.store,
                p.mix.branch,
                p.mix.int_alu,
                p.mix.int_mul,
                p.mix.fp_alu,
                p.mix.fp_mul,
                p.mix.fp_div,
            ];
            let mut cdf = [0.0; 8];
            for (c, w) in cdf.iter_mut().zip(weights) {
                acc += w / total;
                *c = acc;
            }
            let float_index = |m: u64| cdf.iter().filter(|&&t| t < m as f64 * UNIT).count();
            let bucket_ends = (0..256u64).flat_map(|b| {
                let first = b << CLASS_GUIDE_SHIFT;
                [first, first + (1 << CLASS_GUIDE_SHIFT) - 1]
            });
            let draws = g.class_cuts.iter().flat_map(|&cut| near(cut));
            for m in draws.chain(bucket_ends) {
                assert_eq!(g.class_index(m), float_index(m), "{name}: class at {m}");
            }
            let mut tests: Vec<(u64, f64)> = [
                p.fp_load_frac,
                p.mem.pointer_chase,
                p.mem.streaming,
                p.branches.call_frac,
                p.branches.biased_frac,
                p.branches.random_taken_rate,
                0.985,
                0.5,
                0.25,
            ]
            .map(|prob| (below(prob), prob))
            .into();
            for (phase, boost) in [(0, p.phases.compute_damp), (1, p.phases.mem_boost)] {
                let warm = (p.mem.warm_frac * boost).min(0.9);
                let cold = (p.mem.cold_frac * boost).min(0.9 - warm.min(0.89));
                let (cold_cut, warm_cut) = g.addr_cuts[phase];
                tests.extend([(cold_cut, cold), (warm_cut, cold + warm)]);
            }
            for (cut, x) in tests {
                for m in near(cut) {
                    assert_eq!(m < cut, m as f64 * UNIT < x, "{name}: cut-off {x} at {m}");
                }
            }
        }
    }

    /// The address-only stream that prewarm reads is the full stream seen
    /// through `(pc, mem addr, class == Store)`, for every registry
    /// profile, and it leaves the generator where `next_inst` would.
    #[test]
    fn access_stream_matches_next_inst() {
        for name in spec::names() {
            let p = spec::profile(name).unwrap();
            for (seed, slot) in [(1, 0), (42, 3), (0x5eed, 7)] {
                let base = TraceGenerator::new(p, seed, slot);
                let mut full = base.decorrelated(0xCAFE);
                let mut lean = base.decorrelated(0xCAFE);
                for i in 0..200_000 {
                    let inst = full.next_inst();
                    let is_store = inst.packed.class() == InstClass::Store;
                    let mem = inst.mem.map(|m| (m.addr, is_store));
                    assert_eq!(
                        lean.next_access(),
                        (inst.packed.pc, mem),
                        "{name} seed {seed} slot {slot}: inst {i}"
                    );
                }
                assert_eq!(full.seq(), lean.seq());
                assert_eq!(full.next_inst(), lean.next_inst(), "{name}: state after");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let p = spec::profile("gcc").unwrap();
        let mut a = TraceGenerator::new(p, 1, 0);
        let mut b = TraceGenerator::new(p, 2, 0);
        let differs = (0..1000).any(|_| a.next_inst() != b.next_inst());
        assert!(differs);
    }

    #[test]
    fn mix_roughly_matches_profile() {
        let p = spec::profile("gzip").unwrap();
        let mut g = TraceGenerator::new(p, 42, 0);
        let mut counts: BTreeMap<InstClass, u64> = BTreeMap::new();
        let n = 200_000;
        for _ in 0..n {
            *counts.entry(g.next_inst().packed.class()).or_default() += 1;
        }
        let total = p.mix.total();
        let load_frac = *counts.get(&InstClass::Load).unwrap_or(&0) as f64 / n as f64;
        assert!(
            (load_frac - p.mix.load / total).abs() < 0.02,
            "load fraction {load_frac} vs profile {}",
            p.mix.load / total
        );
        let br_frac = *counts.get(&InstClass::Branch).unwrap_or(&0) as f64 / n as f64;
        assert!((br_frac - p.mix.branch / total).abs() < 0.02);
    }

    #[test]
    fn integer_profile_emits_no_fp() {
        let p = spec::profile("mcf").unwrap();
        let mut g = TraceGenerator::new(p, 9, 0);
        for _ in 0..50_000 {
            let i = g.next_inst().packed;
            assert!(
                !i.class().is_fp(),
                "integer benchmark emitted {}",
                i.class()
            );
            if let Some(dest) = i.dest() {
                assert_ne!(dest, RegClass::Fp);
            }
        }
    }

    #[test]
    fn fp_profile_emits_fp_work() {
        let p = spec::profile("swim").unwrap();
        let mut g = TraceGenerator::new(p, 9, 0);
        let fp = (0..50_000)
            .filter(|_| g.next_inst().packed.class().is_fp())
            .count();
        assert!(fp > 5_000, "FP benchmark generated only {fp} FP ops");
    }

    #[test]
    fn phases_alternate() {
        let p = spec::profile("mcf").unwrap();
        let mut g = TraceGenerator::new(p, 3, 0);
        let mut mem_insts = 0u64;
        let n = 100_000;
        for _ in 0..n {
            g.next_inst();
            if g.in_memory_phase() {
                mem_insts += 1;
            }
        }
        assert!(mem_insts > 0, "never entered a memory phase");
        assert!(mem_insts < n, "never left the memory phase");
    }

    #[test]
    fn memory_instructions_carry_addresses() {
        let p = spec::profile("art").unwrap();
        let mut g = TraceGenerator::new(p, 5, 2);
        for _ in 0..20_000 {
            let i = g.next_inst();
            if i.packed.class().is_mem() {
                let m = i.mem.expect("memory inst without address");
                assert!(m.addr >= 0x1000_0000, "address below data base");
            }
            if i.packed.class() == InstClass::Branch {
                assert!(i.branch.is_some());
            }
        }
    }

    #[test]
    fn thread_slots_do_not_overlap() {
        let p = spec::profile("art").unwrap();
        let mut a = TraceGenerator::new(p, 5, 0);
        let mut b = TraceGenerator::new(p, 5, 1);
        let addr_of = |g: &mut TraceGenerator| loop {
            let i = g.next_inst();
            if let Some(m) = i.mem {
                return m.addr;
            }
        };
        for _ in 0..100 {
            let (x, y) = (addr_of(&mut a), addr_of(&mut b));
            assert_ne!(x >> 36, y >> 36, "thread footprints must be disjoint");
        }
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| sample_geometric(&mut rng, 8.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "geometric mean off: {mean}");
    }
}
