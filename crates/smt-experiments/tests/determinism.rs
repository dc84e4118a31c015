//! Golden-value determinism regression: every canonical policy, run for a
//! fixed cycle count at a fixed seed, must reproduce the exact simulation
//! output captured before the event-driven wakeup rewrite of the core.
//!
//! The wakeup scoreboard, the zero-allocation cycle loop, the
//! enum-dispatched `AnyPolicy` layer and the session-reusing runner are
//! pure performance work — they must change *speed*, never *behaviour*.
//! These summaries pin down committed/fetched/squashed counts, miss
//! counters, MLP accounting, per-thread blocking counters and the derived
//! IPC for all nine policies, so any semantic drift in the core fails
//! loudly. `PolicyKind::build` now yields statically-dispatched
//! [`AnyPolicy`] values, so passing these goldens is also the proof that
//! devirtualisation left every policy bit-identical; the session tests
//! below pin the same property for the reset-reuse path.
//!
//! To regenerate after an *intentional* model change, run with
//! `BLESS_GOLDENS=1 cargo test -p smt-experiments --test determinism -- --nocapture`
//! and paste the printed table over `GOLDEN`.

use smt_experiments::{PolicyKind, RunSpec, Runner, SimSession};
use smt_sim::policy::AnyPolicy;
use smt_sim::{SimConfig, Simulator};
use smt_workloads::spec;

const CYCLES: u64 = 50_000;
const SEED: u64 = 42;
const BENCHES: [&str; 4] = ["gzip", "mcf", "art", "gcc"];

/// The nine canonical policies of the paper's evaluation.
fn canonical_policies() -> Vec<PolicyKind> {
    [
        "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
    ]
    .iter()
    .map(|n| PolicyKind::from_name(n).expect("canonical policy"))
    .collect()
}

/// One-line digest of a run's full `SimResult`, stable across platforms
/// (integer counters plus a fixed-precision IPC).
fn summary(kind: &PolicyKind) -> String {
    let profiles: Vec<_> = BENCHES
        .iter()
        .map(|b| spec::profile(b).expect("known benchmark"))
        .collect();
    let mut sim = Simulator::new(
        SimConfig::baseline(BENCHES.len()),
        &profiles,
        kind.build(),
        SEED,
    );
    sim.run_cycles(CYCLES);
    let r = sim.result();
    let per = |f: &dyn Fn(&smt_sim::ThreadStats) -> u64| {
        r.threads
            .iter()
            .map(|t| f(t).to_string())
            .collect::<Vec<_>>()
            .join("/")
    };
    format!(
        "{} committed={} fetched={} squashed={} mispred={} loads={} l1d={} l2={} \
         gated={} mlp={}:{} blocked={}:{}:{}:{} ipc={:.6}",
        kind.name(),
        per(&|t| t.committed),
        per(&|t| t.fetched),
        per(&|t| t.squashed),
        per(&|t| t.mispredicts),
        per(&|t| t.loads),
        per(&|t| t.l1d_misses),
        per(&|t| t.l2_misses),
        per(&|t| t.gated_cycles),
        per(&|t| t.mlp_sum),
        per(&|t| t.mlp_cycles),
        per(&|t| t.blocked_rob),
        per(&|t| t.blocked_iq),
        per(&|t| t.blocked_regs),
        per(&|t| t.blocked_policy),
        r.throughput(),
    )
}

/// Captured on the pre-rewrite scan-based core (seed 42, 50k cycles,
/// gzip+mcf+art+gcc on the baseline 4-thread machine).
const GOLDEN: [&str; 9] = [
    "RR committed=9761/4647/6802/5056 fetched=16017/10948/11526/8729 squashed=6240/6178/4458/3673 mispred=619/539/275/462 loads=2613/1351/2080/1408 l1d=280/333/515/168 l2=192/245/281/126 gated=0/0/0/0 mlp=79608/106520/115409/59706:29750/40994/37288/25329 blocked=0/0/0/0:7355/8672/6143/7085:2323/1918/1844/1466:0/0/0/0 ipc=0.525320",
    "ICOUNT committed=13360/4552/7479/7959 fetched=22033/10729/12274/14382 squashed=8653/6085/4715/6236 mispred=793/581/296/628 loads=3594/1298/2320/2213 l1d=308/326/566/200 l2=191/239/298/143 gated=0/0/0/0 mlp=80892/105173/118143/64212:29311/41434/37791/27349 blocked=0/0/0/0:5909/7358/5098/4152:1857/1905/2062/925:0/0/0/0 ipc=0.667000",
    "STALL committed=9188/2788/3885/8168 fetched=14988/6336/5625/14380 squashed=5735/3513/1715/6144 mispred=575/404/134/593 loads=2404/766/1184/2224 l1d=259/248/326/199 l2=180/206/226/146 gated=95/642/1925/216 mlp=75271/89383/98547/67511:29969/38968/35773/29248 blocked=0/0/0/0:927/656/189/574:0/0/0/0:0/0/0/0 ipc=0.480580",
    "FLUSH committed=9260/2913/4204/8021 fetched=18236/10851/9693/15337 squashed=8975/7910/5488/7289 mispred=645/482/187/556 loads=2835/1011/1728/2387 l1d=270/257/356/195 l2=183/210/232/138 gated=56/84/77/59 mlp=76322/92770/100721/64521:29765/39066/37170/30232 blocked=0/0/0/0:5/44/6/75:0/0/0/0:0/0/0/0 ipc=0.487960",
    "FLUSH++ committed=9397/2843/4141/7959 fetched=17900/10229/8873/15472 squashed=8502/7385/4731/7512 mispred=624/489/171/566 loads=2803/983/1651/2361 l1d=288/249/340/188 l2=196/203/232/136 gated=82/86/241/56 mlp=78712/90919/100070/63240:30526/39004/37368/29397 blocked=0/0/0/0:17/16/0/6:0/0/0/0:0/0/0/0 ipc=0.486800",
    "DG committed=4397/1492/2389/4915 fetched=7373/2536/3021/8321 squashed=2918/1025/632/3406 mispred=366/202/79/401 loads=1160/405/707/1346 l1d=160/170/235/151 l2=138/154/193/122 gated=13987/19437/16669/8090 mlp=59385/69506/82858/59706:31046/36667/33950/28476 blocked=0/0/0/0:0/0/0/0:0/0/0/0:0/0/0/0 ipc=0.263860",
    "PDG committed=2293/1190/2044/3674 fetched=3693/1815/2363/5921 squashed=1400/618/319/2247 mispred=239/153/69/325 loads=621/310/588/1012 l1d=156/150/215/143 l2=137/138/181/125 gated=17756/21679/19702/11652 mlp=57780/61953/78748/58743:30368/34348/34022/29101 blocked=0/0/0/0:0/0/0/0:0/0/0/0:0/0/0/0 ipc=0.184020",
    "SRA committed=15715/3183/6520/8201 fetched=24849/6909/10773/14336 squashed=9048/3678/4128/6077 mispred=808/424/267/605 loads=4146/889/2011/2243 l1d=339/271/500/198 l2=201/216/282/149 gated=0/0/0/0 mlp=80913/96589/111378/68093:29813/41782/36297/29265 blocked=0/0/0/0:146/141/172/168:0/0/0/0:7389/14135/7837/4931 ipc=0.672380",
    "DCRA committed=15715/3376/7347/8806 fetched=24936/7712/12074/15856 squashed=9131/4264/4607/7031 mispred=828/476/293/688 loads=4172/979/2284/2407 l1d=340/300/574/212 l2=203/239/302/151 gated=5841/10511/5432/3588 mlp=81051/99608/117593/69657:29843/41331/37845/29358 blocked=0/0/0/0:817/412/369/666:45/0/79/7:0/0/0/0 ipc=0.704880",
];

/// The same goldens must hold when the nine policies run through the
/// boxed escape hatch — `AnyPolicy::Boxed` is dynamic dispatch over the
/// identical policy state, so static vs dynamic dispatch is observable
/// only in speed.
#[test]
fn boxed_escape_hatch_matches_goldens_for_spot_checks() {
    for (name, golden) in [("ICOUNT", GOLDEN[1]), ("DCRA", GOLDEN[8])] {
        let kind = PolicyKind::from_name(name).expect("canonical policy");
        let profiles: Vec<_> = BENCHES
            .iter()
            .map(|b| spec::profile(b).expect("known benchmark"))
            .collect();
        let boxed = AnyPolicy::Boxed(Box::new(kind.build()));
        let mut sim = Simulator::new(SimConfig::baseline(BENCHES.len()), &profiles, boxed, SEED);
        sim.run_cycles(CYCLES);
        let r = sim.result();
        let golden_ipc: f64 = golden
            .rsplit("ipc=")
            .next()
            .expect("golden has ipc")
            .parse()
            .expect("golden ipc parses");
        assert!(
            (r.throughput() - golden_ipc).abs() < 5e-7,
            "{name} through the boxed escape hatch drifted: {} vs {golden_ipc}",
            r.throughput()
        );
    }
}

/// Session reuse (one `SimSession`, and the engine's per-worker sessions
/// through `run_isolated` and `run_all_with_workers`) must equal
/// fresh-`Simulator` sequential runs outcome for outcome.
#[test]
fn session_runner_matches_fresh_sequential_runs() {
    let specs: Vec<RunSpec> = ["ICOUNT", "FLUSH", "SRA", "DCRA"]
        .iter()
        .map(|n| {
            let mut s = RunSpec::new(
                &["gzip", "mcf"],
                PolicyKind::from_name(n).expect("canonical policy"),
            );
            s.prewarm_insts = 30_000;
            s.warmup_cycles = 2_000;
            s.measure_cycles = 15_000;
            s
        })
        .collect();

    // Reference: a fresh simulator per spec, sequentially.
    let fresh: Vec<_> = specs
        .iter()
        .map(|spec| {
            let profiles: Vec<_> = spec
                .benches
                .iter()
                .map(|b| spec::profile(b).expect("known benchmark"))
                .collect();
            let mut sim = Simulator::new(
                spec.config.clone(),
                &profiles,
                spec.policy.build(),
                spec.seed,
            );
            sim.prewarm(spec.prewarm_insts);
            sim.run_cycles(spec.warmup_cycles);
            sim.reset_stats();
            sim.run_cycles(spec.measure_cycles);
            sim.result()
        })
        .collect();

    // One session running the whole queue back to back.
    let mut session = SimSession::new();
    for (spec, want) in specs.iter().zip(&fresh) {
        let got = session.run(spec).expect("known bench");
        assert_eq!(
            &got.result, want,
            "session reuse drifted on {}",
            want.policy
        );
    }

    // The parallel work-queue paths (per-worker sessions).
    let runner = Runner::new();
    let all = runner.run_all_with_workers(&specs, 2);
    for (out, want) in all.iter().zip(&fresh) {
        let stats = out.stats().expect("run completed");
        assert_eq!(
            &stats.result, want,
            "run_all_with_workers drifted on {}",
            want.policy
        );
    }
    let mut streamed: Vec<Option<smt_experiments::RunOutcome>> =
        specs.iter().map(|_| None).collect();
    runner.run_isolated(&specs, 2, |i, out| streamed[i] = Some(out));
    for (out, want) in streamed.iter().zip(&fresh) {
        let stats = out
            .as_ref()
            .expect("sink covered every spec")
            .stats()
            .expect("run completed");
        assert_eq!(
            &stats.result, want,
            "run_isolated drifted on {}",
            want.policy
        );
    }
}

#[test]
fn simulation_output_matches_pre_rewrite_goldens() {
    let bless = std::env::var_os("BLESS_GOLDENS").is_some();
    let mut failures = Vec::new();
    for (kind, golden) in canonical_policies().iter().zip(GOLDEN) {
        let actual = summary(kind);
        if bless {
            println!("    \"{actual}\",");
        } else if actual != golden {
            failures.push(format!("golden : {golden}\nactual : {actual}"));
        }
    }
    assert!(
        failures.is_empty(),
        "simulation output drifted from the pre-rewrite goldens \
         (BLESS_GOLDENS=1 to regenerate after an intentional model change):\n{}",
        failures.join("\n---\n")
    );
}

/// The runner's prewarm memo: two policies swept on one `Runner`, the
/// second sweep's every prewarm restored from the first's, must give the
/// class rows that fresh serial sessions (which always prewarm) give,
/// bit for bit; and the memo's counters must show that it served them.
#[test]
fn memoised_prewarm_sweeps_match_fresh_serial_sessions() {
    use smt_experiments::sweep::{sweep_lengths, sweep_policy_threads};
    use smt_metrics::{hmean, workload_mlp};
    use smt_workloads::{table4_workloads, WorkloadType};

    let mut lengths = sweep_lengths();
    lengths.prewarm_insts = 10_000;
    lengths.warmup_cycles = 500;
    lengths.measure_cycles = 3_000;
    let config = SimConfig::baseline(2);
    let workloads: Vec<_> = table4_workloads()
        .into_iter()
        .filter(|w| w.threads() == 2)
        .collect();
    let mut benches: Vec<&str> = workloads
        .iter()
        .flat_map(|w| w.benchmarks.iter().map(String::as_str))
        .collect();
    benches.sort_unstable();
    benches.dedup();

    let runner = Runner::new();
    let serial = Runner::new();
    for (i, name) in ["ICOUNT", "DCRA"].iter().enumerate() {
        let policy = PolicyKind::from_name(name).expect("canonical policy");
        let sweep = sweep_policy_threads(&runner, &policy, &config, &lengths, &[2])
            .expect("baselines must measure");
        assert!(sweep.failures.is_empty());
        let (hits, misses, bytes) = runner.prewarm_memo_stats();
        let workload_runs = workloads.len() as u64;
        assert_eq!(hits, i as u64 * workload_runs, "{name}: memo hits");
        assert_eq!(
            misses,
            workload_runs + benches.len() as u64,
            "{name}: one prewarm per workload and per baseline"
        );
        assert!(bytes > 0);

        let mut expected = Vec::new();
        for kind in WorkloadType::ALL {
            let group: Vec<[f64; 4]> = workloads
                .iter()
                .filter(|w| w.kind == kind)
                .map(|w| {
                    let mut spec =
                        RunSpec::for_workload(w, policy.clone()).with_config(config.clone());
                    spec.prewarm_insts = lengths.prewarm_insts;
                    spec.warmup_cycles = lengths.warmup_cycles;
                    spec.measure_cycles = lengths.measure_cycles;
                    let out = SimSession::new().run(&spec).expect("registry benchmarks");
                    let singles = serial
                        .single_ipcs(w, &config, &lengths)
                        .expect("registry benchmarks");
                    [
                        out.throughput(),
                        hmean(&out.ipcs(), &singles),
                        out.result.total_fetched() as f64
                            / out.result.total_committed().max(1) as f64,
                        workload_mlp(&out.result),
                    ]
                })
                .collect();
            let n = group.len() as f64;
            let mean = |f: usize| (group.iter().map(|m| m[f]).sum::<f64>() / n).to_bits();
            expected.push((2, kind, [mean(0), mean(1), mean(2), mean(3)]));
        }
        let got: Vec<_> = sweep
            .classes
            .iter()
            .map(|&(t, k, m)| {
                let row = [m.throughput, m.hmean, m.fetch_per_commit, m.mlp];
                (t, k, row.map(f64::to_bits))
            })
            .collect();
        assert_eq!(got, expected, "{name}: memoised sweep drifted");
    }
    assert_eq!(
        serial.prewarm_memo_stats(),
        (0, 0, 0),
        "one-shot runs skip the memo"
    );
}
