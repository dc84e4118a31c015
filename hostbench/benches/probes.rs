//! Component probes, the bottom layer: the trace store, the trace
//! generator and the data-cache path, each timed in a tight loop on
//! inputs derived from the benchmark seed.

use crate::report::median;
use smt_isa::ThreadId;
use smt_mem::MemoryHierarchy;
use smt_sim::SimConfig;
use smt_workloads::{BenchmarkProfile, ThreadTrace, TraceGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Instructions per trace probe: inside the store's retained prefix
/// (`MAX_PREFIX_BLOCKS * TRACE_BLOCK`), so a rebind replays all of them.
const TRACE_INSTS: u64 = 200_000;
/// Data accesses per memory probe.
const ACCESSES: usize = 1 << 20;
/// Each probe is repeated; its metric is the median.
const REPEATS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `ThreadTrace::new` + `entry`: generating the stream into blocks.
    pub gen_ns_per_inst: f64,
    /// Same-key `ThreadTrace::rebind` + `entry`: replaying the blocks.
    pub replay_ns_per_inst: f64,
    /// `TraceGenerator::next_inst`: the stream prewarm consumes.
    pub next_inst_ns: f64,
    /// `MemoryHierarchy::access_data` on the baseline hierarchy.
    pub access_data_ns: f64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A data address stream: seven accesses in eight fall in a 32 KiB hot
/// set (L1 hits), the rest spread over 16 MiB (L2 and memory misses).
fn addresses(seed: u64) -> Vec<u64> {
    let mut s = seed;
    (0..ACCESSES)
        .map(|_| {
            let r = splitmix64(&mut s);
            let span = if r & 7 == 0 { 16 << 20 } else { 32 << 10 };
            0x1000_0000 + (((r >> 3) % span) & !7)
        })
        .collect()
}

fn ns_per(n: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe. Fails if a same-key rebind does not reuse the
/// store's blocks, which would make the replay probe a generation probe.
pub fn run(profile: &BenchmarkProfile, seed: u64) -> Result<Probes, String> {
    let mut store = ThreadTrace::new(profile, seed, 0, 512);
    let gen_ns_per_inst = ns_per(TRACE_INSTS, || {
        store = ThreadTrace::new(profile, seed, 0, 512);
        for s in 0..TRACE_INSTS {
            black_box(store.entry(s));
        }
    });
    let mut reused = true;
    let replay_ns_per_inst = ns_per(TRACE_INSTS, || {
        reused &= store.rebind(profile, seed, 0);
        for s in 0..TRACE_INSTS {
            black_box(store.entry(s));
        }
    });
    if !reused {
        return Err("same-key ThreadTrace::rebind regenerated its blocks".into());
    }
    let next_inst_ns = ns_per(TRACE_INSTS, || {
        let mut gen = TraceGenerator::new(profile, seed, 0);
        for _ in 0..TRACE_INSTS {
            black_box(gen.next_inst());
        }
    });
    let addrs = addresses(seed);
    let config = SimConfig::baseline(1).mem;
    let t = ThreadId::new(0);
    let access_data_ns = ns_per(ACCESSES as u64, || {
        let mut mem = MemoryHierarchy::new(&config, 1);
        for (now, &a) in (0u64..).zip(&addrs) {
            black_box(mem.access_data(t, a, now & 3 == 0, now));
            if now & 63 == 0 {
                mem.collect_expired_fills(now);
            }
        }
    });
    Ok(Probes {
        gen_ns_per_inst,
        replay_ns_per_inst,
        next_inst_ns,
        access_data_ns,
    })
}
