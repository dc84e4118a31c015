//! Bit-for-bit pins of the generated instruction streams, independent of
//! the simulator goldens.
//!
//! Each test folds a stream into an FNV-1a digest and compares it with a
//! constant captured from the generator's reference implementation (the
//! `ln`-based dependence sampler with float class and coin draws). Any
//! change to a random draw, its order or its rounding moves a digest, so
//! a faster generator must leave every constant here untouched.

use smt_isa::{BranchKind, DecodedInst, InstClass, RegClass};
use smt_workloads::{
    spec, BenchmarkProfile, ThreadTrace, TraceGenerator, MAX_PREFIX_BLOCKS, TRACE_BLOCK,
};

/// Instructions digested per (profile, seed, slot).
const STREAM_LEN: usize = 200_000;

/// The `(seed, slot)` pairs every profile is digested at.
const KEYS: [(u64, u64); 3] = [(1, 0), (42, 3), (0x5eed, 7)];

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn inst(&mut self, d: &DecodedInst) {
        self.word(d.pc);
        self.word(u64::from(d.class.code()));
        self.word(match d.dest {
            None => 0,
            Some(RegClass::Int) => 1,
            Some(RegClass::Fp) => 2,
        });
        for dep in d.deps() {
            self.word(u64::from(dep.unwrap_or(0)));
        }
        match d.mem {
            Some(m) => {
                self.word(m.addr);
                self.word(u64::from(m.size));
            }
            None => self.word(u64::MAX),
        }
        match d.branch {
            Some(b) => {
                self.word(match b.kind {
                    BranchKind::Conditional => 0,
                    BranchKind::Jump => 1,
                    BranchKind::Call => 2,
                    BranchKind::Return => 3,
                });
                self.word(u64::from(b.taken));
                self.word(b.target);
            }
            None => self.word(u64::MAX),
        }
    }

    fn access(&mut self, (pc, mem): (u64, Option<(u64, bool)>)) {
        self.word(pc);
        match mem {
            Some((addr, is_store)) => {
                self.word(addr);
                self.word(u64::from(is_store));
            }
            None => self.word(u64::MAX),
        }
    }
}

/// Every registry profile plus two registry clones moved off the grid:
/// their dependence mean, memory mix, branch bias and phase lengths are
/// jittered, so each gets a dependence table of its own.
fn profiles() -> Vec<(String, BenchmarkProfile)> {
    let registry = |name: &str| spec::profile(name).expect("registry").clone();
    let mut out: Vec<_> = spec::names()
        .iter()
        .map(|&n| (n.to_string(), registry(n)))
        .collect();

    let mut p = registry("wupwise");
    p.dep_mean = 13.281193905405837;
    p.mem.warm_frac = 0.07121015916903782;
    p.mem.cold_frac = 0.0005781668916497232;
    p.mem.pointer_chase = 0.048740747195047715;
    p.mem.streaming = 0.8354531774751128;
    p.branches.biased_frac = 0.9503692292520094;
    p.phases.compute_len = 2764.1179774429456;
    p.phases.mem_len = 444.1427781687379;
    out.push(("jitter0-wupwise".to_string(), p));

    let mut p = registry("gzip");
    p.dep_mean = 9.231607399197543;
    p.mem.warm_frac = 0.07162935791568292;
    p.mem.cold_frac = 0.0001444306976272551;
    p.mem.pointer_chase = 0.10698814709388527;
    p.mem.streaming = 0.5821698100576458;
    p.branches.biased_frac = 0.9523533386177425;
    p.phases.compute_len = 4782.048570199303;
    p.phases.mem_len = 179.65442006077095;
    out.push(("jitter1-gzip".to_string(), p));
    out
}

/// Compares `(name, digest)` pairs with the pinned table, reporting every
/// mismatch at once.
fn check(what: &str, got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((gn, gd), (pn, pd))| gn != pn || gd != pd)
        .map(|((gn, gd), (pn, pd))| format!("{gn}: {gd:#018x} (pinned {pn}: {pd:#018x})"))
        .collect();
    assert_eq!(got.len(), pinned.len(), "{what}: profile count changed");
    assert!(
        mismatches.is_empty(),
        "{what} digests moved:\n{}",
        mismatches.join("\n")
    );
}

/// `next_inst` digests, one per profile over its three `KEYS`.
const NEXT_INST: [(&str, u64); 22] = [
    ("mcf", 0x85526731b1c46c8f),
    ("art", 0xc9d4cd60eccfedff),
    ("swim", 0x4986539535f8cd2e),
    ("lucas", 0x7cdd9cf213f9ecf0),
    ("equake", 0x68244c43c37cfee7),
    ("twolf", 0xc5a21bd105f6aaf4),
    ("vpr", 0xa67ac4d8885c667f),
    ("parser", 0x8aa79bf5f7f087d6),
    ("gap", 0xd47972ccf6a2ac77),
    ("vortex", 0x922b432c525fdd7b),
    ("gcc", 0x426676e8c5bb5b98),
    ("perl", 0x7fbee1a5b84131a8),
    ("bzip2", 0x0a1c8c24f0c1feca),
    ("crafty", 0x69b8125519b28062),
    ("gzip", 0xb845c6d7286331d5),
    ("eon", 0x7fa39c0a63c36fa6),
    ("apsi", 0xd0df17dd73036004),
    ("wupwise", 0x7031bd98924e5766),
    ("mesa", 0x720d4534195ea710),
    ("fma3d", 0xfadf639764be5b07),
    ("jitter0-wupwise", 0x87b03397fcc25763),
    ("jitter1-gzip", 0x6138a686ef72f943),
];

/// `next_access` digests, one per profile over its three `KEYS`.
const NEXT_ACCESS: [(&str, u64); 22] = [
    ("mcf", 0xa25ea0704812af05),
    ("art", 0xe85cbcbe56ce3c66),
    ("swim", 0x0375fc54e06831cc),
    ("lucas", 0xc336bb7dcc89cb0a),
    ("equake", 0xbcfdfce169485be6),
    ("twolf", 0xaa947700e3f1cb3e),
    ("vpr", 0x4cf8dfde69472833),
    ("parser", 0xf5ab08a334e8c7d8),
    ("gap", 0x66b3a04dbde9ce17),
    ("vortex", 0xec6a5aeffbcde50c),
    ("gcc", 0x27aefa9f28cc4e44),
    ("perl", 0x7f22c6e91f0a24be),
    ("bzip2", 0x958992ac5d76cb62),
    ("crafty", 0x04a31df3bf25cff3),
    ("gzip", 0x3ce1704e9f2276f2),
    ("eon", 0xd5c50bc6748462d9),
    ("apsi", 0x525336b71e1063d7),
    ("wupwise", 0x1416e0ef2af057ba),
    ("mesa", 0xb458008f4ddcf7f8),
    ("fma3d", 0xccd2600aa1c24590),
    ("jitter0-wupwise", 0x9e853cc36399b644),
    ("jitter1-gzip", 0x2188e83e37b8c244),
];

#[test]
fn next_inst_stream_digests_are_pinned() {
    let got: Vec<_> = profiles()
        .into_iter()
        .map(|(name, p)| {
            let mut h = Fnv::new();
            for (seed, slot) in KEYS {
                let mut g = TraceGenerator::new(&p, seed, slot);
                for _ in 0..STREAM_LEN {
                    h.inst(&g.next_inst());
                }
            }
            (name, h.0)
        })
        .collect();
    check("next_inst", &got, &NEXT_INST);
}

#[test]
fn next_access_stream_digests_are_pinned() {
    let got: Vec<_> = profiles()
        .into_iter()
        .map(|(name, p)| {
            let mut h = Fnv::new();
            for (seed, slot) in KEYS {
                let mut g = TraceGenerator::new(&p, seed, slot);
                for _ in 0..STREAM_LEN {
                    h.access(g.next_access());
                }
            }
            (name, h.0)
        })
        .collect();
    check("next_access", &got, &NEXT_ACCESS);
}

/// One store rebound A (past the prefix cap) → B (short) → A (past the
/// cap again, on recycled blocks) → C: every record replays the streamed
/// generator, and the whole sequence folds to one pinned digest.
#[test]
fn store_replay_through_rebinds_is_pinned() {
    let long = (MAX_PREFIX_BLOCKS * TRACE_BLOCK + 3 * TRACE_BLOCK + 17) as u64;
    let gzip = spec::profile("gzip").unwrap();
    let mcf = spec::profile("mcf").unwrap();
    let art = spec::profile("art").unwrap();
    let runs: [(&BenchmarkProfile, u64, u64, u64); 4] = [
        (gzip, 42, 0, long),
        (mcf, 7, 1, 5_000),
        (gzip, 42, 0, long),
        (art, 42, 2, 40_000),
    ];
    let mut store = ThreadTrace::new(gzip, 42, 0, 512);
    let mut h = Fnv::new();
    for (i, &(p, seed, slot, len)) in runs.iter().enumerate() {
        if i > 0 {
            assert!(!store.rebind(p, seed, slot), "run {i}: key changed");
        }
        let mut gen = TraceGenerator::new(p, seed, slot);
        for seq in 0..len {
            let r = store.record(seq);
            let d = r.unpack();
            assert_eq!(d, gen.next_inst(), "run {i} ({}): seq {seq}", p.name);
            if d.class == InstClass::Branch {
                assert_eq!(store.branch_payload(seq, r.packed.aux()), r.branch.unwrap());
            }
            h.inst(&d);
        }
    }
    assert_eq!(
        h.0, 0x7825_0581_1e99_ea6b,
        "store replay digest moved: {:#018x}",
        h.0
    );
}
