//! Deterministic statistical trace generation.

use crate::profile::BenchmarkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smt_isa::{BranchKind, DecodedInst, InstClass, RegClass};
use std::sync::{Arc, Mutex, OnceLock};

/// Execution phase of the generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compute,
    Memory,
}

#[derive(Debug, Clone, Copy)]
struct BranchSite {
    pc: u64,
    target: u64,
    taken_prob: f64,
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
    /// `ln(1 - 1/dep_mean)` — the geometric sampler's denominator for
    /// dependence distances, precomputed because it is drawn for almost
    /// every instruction (`ln` twice per sample was a measurable share of
    /// generation time). `NaN` when `dep_mean <= 1`.
    dep_ln_one_minus_p: f64,
    /// The thresholds and guide behind the `ln`-free dependence-distance
    /// fast path (see [`TraceGenerator::dep_distance`]), shared across
    /// generators with the same `dep_mean`.
    dep_table: Arc<DepTable>,
    /// Cumulative mix thresholds for sampling instruction classes.
    mix_cdf: [(f64, InstClass); 8],
}

/// What [`TraceGenerator::next_access`] yields for one instruction: its
/// fetch pc, and for loads and stores `(data address, is_store)`.
type Access = (u64, Option<(u64, bool)>);

/// Upper clamp of sampled dependence distances (instructions).
const DEP_CLAMP: u64 = 512;

/// Buckets of [`DepTable::guide`]: a power of two, so `u · DEP_GUIDE`
/// and the bucket bounds `(b + 1) / DEP_GUIDE` are exact in floating point.
const DEP_GUIDE: usize = 1024;

/// The dependence-distance sampler's tables for one `dep_mean`.
#[derive(Debug)]
struct DepTable {
    /// Descending geometric thresholds `exp(k · ln(1-p))` for
    /// `k = 1..=DEP_CLAMP`.
    thresholds: Vec<f64>,
    /// `guide[b]` = number of thresholds `>= (b + 1) / DEP_GUIDE`. Every
    /// one of them exceeds any `u` in bucket `b`, so counting the
    /// thresholds above `u` can start there.
    guide: Vec<u16>,
}

/// The per-`dep_mean` tables for the dependence-distance sampler,
/// built once per distinct mean and shared (generators are rebuilt for
/// every sweep run; rebuilding 512 `exp` calls each time would eat the
/// session-reuse savings). Keyed by the bit pattern of `ln(1 - 1/mean)`;
/// a non-finite key (mean ≤ 1) yields no thresholds, and the tables are
/// never consulted because the sampler short-circuits first.
fn dep_threshold_table(ln_one_minus_p: f64) -> Arc<DepTable> {
    type TableCache = Mutex<Vec<(u64, Arc<DepTable>)>>;
    static CACHE: OnceLock<TableCache> = OnceLock::new();
    let key = ln_one_minus_p.to_bits();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("dep-table cache poisoned");
    if let Some((_, table)) = cache.iter().find(|(k, _)| *k == key) {
        return Arc::clone(table);
    }
    let thresholds: Vec<f64> = if ln_one_minus_p.is_finite() {
        (1..=DEP_CLAMP)
            .map(|k| (ln_one_minus_p * k as f64).exp())
            .collect()
    } else {
        Vec::new()
    };
    let guide = (1..=DEP_GUIDE)
        .map(|b| {
            let bound = b as f64 / DEP_GUIDE as f64;
            let count = thresholds.partition_point(|&t| t >= bound);
            u16::try_from(count).expect("at most DEP_CLAMP thresholds")
        })
        .collect();
    let table = Arc::new(DepTable { thresholds, guide });
    cache.push((key, Arc::clone(&table)));
    table
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
                        taken_prob: 0.985,
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
                        taken_prob: profile.branches.random_taken_rate,
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
        let mix_cdf = entries.map(|(w, c)| {
            acc += w / total;
            (acc, c)
        });

        let mut this = TraceGenerator {
            profile: profile.clone(),
            seed,
            thread_slot,
            rng,
            seq: 0,
            pc: code_base,
            code_base,
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
            dep_ln_one_minus_p: ln_one_minus_inv(profile.dep_mean),
            dep_table: dep_threshold_table(ln_one_minus_inv(profile.dep_mean)),
            mix_cdf,
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

    fn sample_class(&mut self) -> InstClass {
        let u: f64 = self.rng.gen();
        // Branchless equivalent of "first entry with `u <= threshold`":
        // the index is the number of thresholds strictly below `u`. Eight
        // predicate sums vectorise; the early-exit scan it replaces was a
        // data-dependent branch per instruction.
        let idx = self
            .mix_cdf
            .iter()
            .map(|&(threshold, _)| usize::from(threshold < u))
            .sum::<usize>();
        match self.mix_cdf.get(idx) {
            Some(&(_, class)) => class,
            None => InstClass::IntAlu,
        }
    }

    /// Samples a dependence distance: the clamped geometric draw
    /// `ceil(ln(u) / ln(1-p)).clamp(1, 512)`, computed through the
    /// precomputed threshold table instead of a per-sample `ln`.
    ///
    /// Bit-identical to the direct expression: the distance is `k` exactly
    /// when `u` falls in `[exp(k·L), exp((k-1)·L))`, so a binary search
    /// over the `exp(k·L)` table reproduces the `ln`-based result — except
    /// possibly within a few ULPs of a threshold, where the two float
    /// computations could round apart. A relative guard band of `1e-9`
    /// around each interior threshold (four orders of magnitude wider than
    /// the actual error bound of either expression, and crossed by ~1e-6
    /// of draws) falls back to the original expression, which settles
    /// those draws by definition. The clamp collapses the `k = 512/513`
    /// boundary, so the table's tail needs no guard.
    ///
    /// Without `FULL` it only draws `u`, keeping the stream in step, and
    /// returns 0: the address-only stream never reads the distance.
    fn dep_distance<const FULL: bool>(&mut self) -> u32 {
        if self.profile.dep_mean <= 1.0 {
            return 1;
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        if !FULL {
            return 0;
        }
        let DepTable {
            thresholds: table,
            guide,
        } = &*self.dep_table;
        // Thresholds are descending; count how many exceed `u`. The guide
        // skips every threshold at or above `u`'s bucket, and a bucket
        // holds few more except in the deep tail (`u` well below
        // `dep_mean / DEP_GUIDE`): step over a few, and only binary-search
        // the rest when they run out — a data-dependent binary search over
        // 512 entries costs ~9 branch mispredictions, as slow as the `ln`
        // it replaces.
        const STEPS: usize = 4;
        let start = usize::from(guide[(u * DEP_GUIDE as f64) as usize]);
        let rest = &table[start..];
        let above = start
            + match rest.iter().take(STEPS).position(|&t| t <= u) {
                Some(n) => n,
                None => rest.partition_point(|&t| t > u),
            };
        if above >= table.len() {
            return DEP_CLAMP as u32; // k > DEP_CLAMP, clamped
        }
        let k = above + 1; // smallest k with u >= exp(k·L)
        let lower = table[k - 1];
        let near_lower = u - lower < lower * 1e-9;
        let near_upper = k >= 2 && {
            let upper = table[k - 2];
            upper - u < upper * 1e-9
        };
        if near_lower || near_upper {
            // Guard band: defer to the exact expression (same `u`).
            let exact = (u.ln() / self.dep_ln_one_minus_p).ceil().max(1.0) as u64;
            return exact.clamp(1, DEP_CLAMP) as u32;
        }
        k as u32
    }

    /// Samples a data address from the nested-working-set model. Returns
    /// `(address, is_cold)`.
    fn sample_address(&mut self) -> (u64, bool) {
        let mem = self.profile.mem;
        let boost = match self.phase {
            Phase::Memory => self.profile.phases.mem_boost,
            Phase::Compute => self.profile.phases.compute_damp,
        };
        let warm = (mem.warm_frac * boost).min(0.9);
        let cold = (mem.cold_frac * boost).min(0.9 - warm.min(0.89));
        let u: f64 = self.rng.gen();
        if u < cold {
            let off = self.cold_offset(mem.cold_bytes);
            (self.data_base + 0x4000_0000 + off, true)
        } else if u < cold + warm {
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
            let j = if self.rng.gen_bool(0.5) {
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
        if self.rng.gen_bool(self.profile.mem.streaming) {
            self.cold_cursor = (self.cold_cursor + 64) % region_bytes;
            self.cold_cursor
        } else {
            let lines = (region_bytes / 64).max(1);
            self.rng.gen_range(0..lines) * 64
        }
    }

    /// Generates the next dynamic instruction of the stream.
    pub fn next_inst(&mut self) -> DecodedInst {
        self.generate::<true>()
            .1
            .expect("the full stream builds every record")
    }

    /// The part of the next instruction functional warm-up reads: its
    /// fetch pc and, for loads and stores, the data address and whether it
    /// is a store. Advances the generator exactly as [`Self::next_inst`]
    /// does — same random draws, same state afterwards — so the two calls
    /// can be interleaved freely; it skips only the dependence-distance
    /// search and the record build.
    pub fn next_access(&mut self) -> (u64, Option<(u64, bool)>) {
        self.generate::<false>().0
    }

    /// The one generator body behind [`Self::next_inst`] and
    /// [`Self::next_access`]. `FULL` selects whether dependence distances
    /// are resolved and the record built; every random draw happens either
    /// way, so both streams stay in lockstep.
    #[inline(always)]
    fn generate<const FULL: bool>(&mut self) -> (Access, Option<DecodedInst>) {
        let class = self.sample_class();
        let pc = self.pc;
        self.pc = self.code_base
            + ((self.pc - self.code_base + 4) % self.profile.branches.code_bytes.max(256));

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

    fn gen_load<const FULL: bool>(&mut self, pc: u64) -> (Access, Option<DecodedInst>) {
        let (addr, is_cold) = self.sample_address();
        let dest =
            if self.profile.fp_load_frac > 0.0 && self.rng.gen_bool(self.profile.fp_load_frac) {
                RegClass::Fp
            } else {
                RegClass::Int
            };
        // 0 = no dependence (`dep` ignores it).
        let mut dep = 0;
        if is_cold {
            // Pointer chasing: the address of this cold load depends on the
            // data of the previous cold load, serialising the misses.
            if let Some(prev) = self.last_cold_load_seq {
                if self.rng.gen_bool(self.profile.mem.pointer_chase) {
                    dep = (self.seq - prev).clamp(1, 512) as u32;
                }
            }
            self.last_cold_load_seq = Some(self.seq);
        } else {
            dep = self.dep_distance::<FULL>();
        }
        let inst = FULL.then(|| {
            DecodedInst::builder(InstClass::Load, pc)
                .dest(dest)
                .mem(addr, 8)
                .dep(dep)
                .build()
        });
        ((pc, Some((addr, false))), inst)
    }

    fn gen_store<const FULL: bool>(&mut self, pc: u64) -> (Access, Option<DecodedInst>) {
        let (addr, _) = self.sample_address();
        let d1 = self.dep_distance::<FULL>();
        let d2 = self.dep_distance::<FULL>();
        let inst = FULL.then(|| {
            DecodedInst::builder(InstClass::Store, pc)
                .mem(addr, 8)
                .dep(d1)
                .dep(d2)
                .build()
        });
        ((pc, Some((addr, true))), inst)
    }

    fn gen_branch<const FULL: bool>(&mut self, pc: u64) -> (Access, Option<DecodedInst>) {
        // Returns match outstanding calls; calls occur with call_frac.
        if self.call_depth > 0 && self.rng.gen_bool(0.5) {
            self.call_depth -= 1;
            let target = self.code_base + self.rng.gen_range(0..64) * 4;
            let inst = FULL.then(|| {
                DecodedInst::builder(InstClass::Branch, pc)
                    .branch(BranchKind::Return, true, target)
                    .build()
            });
            return ((pc, None), inst);
        }
        if self.rng.gen_bool(self.profile.branches.call_frac) {
            self.call_depth = (self.call_depth + 1).min(64);
            let site = self.pick_site();
            let inst = FULL.then(|| {
                DecodedInst::builder(InstClass::Branch, site.pc)
                    .branch(BranchKind::Call, true, site.target)
                    .build()
            });
            return ((site.pc, None), inst);
        }
        let site = self.pick_site();
        let taken = self.rng.gen_bool(site.taken_prob);
        let d = self.dep_distance::<FULL>();
        if taken {
            self.pc = site.target;
        }
        let inst = FULL.then(|| {
            DecodedInst::builder(InstClass::Branch, site.pc)
                .branch(BranchKind::Conditional, taken, site.target)
                .dep(d)
                .build()
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
        let use_biased = biased_len > 0
            && (random_len == 0 || self.rng.gen_bool(self.profile.branches.biased_frac));
        let (first, len) = if use_biased {
            (0, biased_len)
        } else {
            (biased_len, random_len)
        };
        let idx = first + self.rng.gen_range(0..len);
        self.sites[idx]
    }

    fn gen_alu<const FULL: bool>(
        &mut self,
        pc: u64,
        class: InstClass,
    ) -> (Access, Option<DecodedInst>) {
        let dest = if class.is_fp() {
            RegClass::Fp
        } else {
            RegClass::Int
        };
        let d1 = self.dep_distance::<FULL>();
        // 0 = no second dependence (`dep` ignores it).
        let d2 = if self.rng.gen_bool(0.25) {
            self.dep_distance::<FULL>()
        } else {
            0
        };
        let inst = FULL.then(|| {
            DecodedInst::builder(class, pc)
                .dest(dest)
                .dep(d1)
                .dep(d2)
                .build()
        });
        ((pc, None), inst)
    }
}

/// `ln(1 - 1/mean)`, the denominator of the geometric sampler (`NaN` for
/// `mean <= 1`, where the sampler short-circuits before using it).
fn ln_one_minus_inv(mean: f64) -> f64 {
    let p = 1.0 / mean;
    (1.0 - p).ln()
}

/// Samples a geometric-like positive integer with the given mean.
fn sample_geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    sample_geometric_with(rng, mean, ln_one_minus_inv(mean))
}

/// [`sample_geometric`] with the `ln(1 - 1/mean)` denominator precomputed
/// by the caller — bit-identical to recomputing it (same expression, same
/// division), minus one `ln` per sample on the per-instruction hot path.
fn sample_geometric_with(rng: &mut SmallRng, mean: f64, ln_one_minus_p: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (u.ln() / ln_one_minus_p).ceil().max(1.0) as u64
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

    /// The table-driven dependence-distance fast path must agree with the
    /// direct `ceil(ln(u)/ln(1-p))` expression draw for draw — the rng
    /// stream and the sampled values are both pinned.
    #[test]
    fn table_sampler_matches_ln_expression() {
        for bench in ["gcc", "mcf", "art", "gzip", "swim"] {
            let p = spec::profile(bench).unwrap();
            let mut g = TraceGenerator::new(p, 123, 0);
            let mut reference_rng = g.rng.clone();
            let l = g.dep_ln_one_minus_p;
            for i in 0..200_000 {
                let expect =
                    sample_geometric_with(&mut reference_rng, p.dep_mean, l).clamp(1, 512) as u32;
                let got = g.dep_distance::<true>();
                assert_eq!(got, expect, "{bench}: draw {i} diverged");
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
                    let mem = inst.mem.map(|m| (m.addr, inst.class == InstClass::Store));
                    assert_eq!(
                        lean.next_access(),
                        (inst.pc, mem),
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
            *counts.entry(g.next_inst().class).or_default() += 1;
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
            let i = g.next_inst();
            assert!(!i.class.is_fp(), "integer benchmark emitted {}", i.class);
            if let Some(dest) = i.dest {
                assert_ne!(dest, RegClass::Fp);
            }
        }
    }

    #[test]
    fn fp_profile_emits_fp_work() {
        let p = spec::profile("swim").unwrap();
        let mut g = TraceGenerator::new(p, 9, 0);
        let fp = (0..50_000).filter(|_| g.next_inst().class.is_fp()).count();
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
            if i.class.is_mem() {
                let m = i.mem.expect("memory inst without address");
                assert!(m.addr >= 0x1000_0000, "address below data base");
            }
            if i.class == InstClass::Branch {
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
