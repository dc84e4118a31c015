//! Property-based tests of the memory substrate's invariants.

use proptest::prelude::*;
use smt_isa::ThreadId;
use smt_mem::{Cache, CacheConfig, MemoryConfig, MemoryHierarchy, MshrFile, Tlb};

fn tiny_cache() -> Cache {
    Cache::new(&CacheConfig {
        size_bytes: 1024,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    })
}

proptest! {
    /// A line is always resident immediately after being accessed.
    #[test]
    fn access_installs_line(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = tiny_cache();
        for a in addrs {
            c.access(a, false);
            prop_assert!(c.probe(a), "line for {a:#x} must be resident after access");
        }
    }

    /// Misses never exceed accesses, and re-accessing the same address
    /// twice in a row always hits the second time.
    #[test]
    fn miss_accounting_is_sane(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut c = tiny_cache();
        for a in &addrs {
            c.access(*a, false);
            let misses_before = c.stats().misses;
            prop_assert!(c.access(*a, false), "immediate re-access must hit");
            prop_assert_eq!(c.stats().misses, misses_before);
        }
        prop_assert!(c.stats().misses <= c.stats().accesses);
    }

    /// The TLB covers at least as many consecutive bytes as one page.
    #[test]
    fn tlb_page_granularity(base in 0u64..u64::MAX / 2, off in 0u64..8192) {
        let mut t = Tlb::new(8, 8192);
        let page_start = base & !8191;
        t.access(page_start);
        prop_assert!(t.access(page_start + off), "same page must hit");
    }

    /// MSHR remaining-time monotonically decreases and expires exactly at
    /// the deadline.
    #[test]
    fn mshr_remaining_counts_down(ready in 1u64..1000, step in 1u64..100) {
        let mut m = MshrFile::new();
        m.allocate(1, ThreadId::new(0), smt_mem::HitLevel::Memory, ready);
        let mut last = u32::MAX;
        let mut now = 0;
        while now < ready {
            if let Some(r) = m.remaining(1, now) {
                prop_assert!(r <= last);
                prop_assert_eq!(u64::from(r), ready - now);
                last = r;
            } else {
                prop_assert!(false, "entry disappeared early at {now}");
            }
            now += step;
        }
        prop_assert_eq!(m.remaining(1, ready), None);
    }

    /// No data access exceeds `MemoryConfig::max_data_latency`, however it
    /// overlaps in-flight fills or misses the TLB: the simulator's event
    /// wheel is sized from that bound. Sixteen pages of four lines each
    /// against a four-entry TLB make both common.
    #[test]
    fn data_latency_stays_within_the_configured_maximum(
        dl1 in 1u32..500,
        ops in proptest::collection::vec((0u64..16, 0u64..256, 0u64..4), 1..300),
    ) {
        let mut cfg = MemoryConfig { dtlb_entries: 4, ..MemoryConfig::default() };
        cfg.dl1.latency = dl1;
        let max = cfg.max_data_latency();
        let mut mem = MemoryHierarchy::new(&cfg, 1);
        let mut now = 0;
        for (page, offset, step) in ops {
            let out = mem.access_data(ThreadId::new(0), page * cfg.page_bytes + offset, false, now);
            prop_assert!(u64::from(out.latency) <= max, "latency {} above {max}", out.latency);
            now += step;
        }
    }

    /// Hierarchy latencies are bounded by the full miss path and at least
    /// the L1 latency; levels are consistent with latencies.
    #[test]
    fn hierarchy_latency_bounds(addrs in proptest::collection::vec(0u64..10_000_000, 1..100)) {
        let cfg = MemoryConfig::default();
        let max = cfg.dl1.latency + cfg.l2.latency + cfg.memory_latency + cfg.tlb_miss_penalty;
        let mut mem = MemoryHierarchy::new(&cfg, 1);
        let mut now = 0;
        for a in addrs {
            let out = mem.access_data(ThreadId::new(0), a, false, now);
            prop_assert!(out.latency >= cfg.dl1.latency);
            prop_assert!(out.latency <= max, "latency {} above path maximum", out.latency);
            now = out.ready_at();
        }
    }
}
