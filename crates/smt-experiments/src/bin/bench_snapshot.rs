//! Records simulator throughput (simulated cycles per wall-clock second)
//! for every policy on the standard 4-thread sweep configuration, and
//! appends the snapshot to a JSON trajectory file (`BENCH_core.json`).
//!
//! This is the number that determines how long paper-scale sweeps take;
//! tracking it per PR keeps performance regressions visible. Usage:
//!
//! ```text
//! cargo run --release -p smt-experiments --bin bench_snapshot -- \
//!     [--smoke] [--label NAME] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the measured run for CI smoke coverage; `--out`
//! defaults to `BENCH_core.json` in the current directory. The file keeps
//! one snapshot per line inside a `"snapshots"` array, so successive runs
//! append without a JSON parser. `--check PATH` validates that a file is
//! well-formed JSON and exits (used by `scripts/bench_snapshot.sh` to
//! refuse to append to a corrupt trajectory file), and every normal run
//! performs the same validation on an existing `--out` before rewriting
//! it.
//!
//! Besides per-policy simulated-cycles/sec, each snapshot records the
//! sweep setup cost: how many short same-configuration runs per second a
//! reused [`SimSession`] sustains versus building a fresh simulator per
//! run.

#![expect(
    clippy::disallowed_methods,
    reason = "host-time instrumentation: wall-clock readings are reported, never fed back into simulated state"
)]

use smt_experiments::scenarios::{policy_for_target, specs_for_family, ScenarioLengths};
use smt_experiments::{PolicyKind, RunSpec, SimSession};
use smt_sim::{SimConfig, Simulator, StageProfile};
use smt_workloads::{spec, workloads_of, FamilySpec, PolicyTarget, ScenarioFamily, WorkloadType};
use std::time::Instant;

/// The 4-thread mix the `policies` Criterion bench and this snapshot share.
const BENCHES: [&str; 4] = ["art", "gcc", "twolf", "swim"];

/// A 4-thread MEM-class mix (every thread memory-bound): the workload
/// family where stalled cycles dominate and the multi-cycle fast-forward
/// path carries the run, tracked separately so its trajectory is visible.
const MEM_BENCHES: [&str; 4] = ["mcf", "art", "swim", "twolf"];

fn policies() -> Vec<PolicyKind> {
    [
        "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
    ]
    .iter()
    .map(|n| PolicyKind::from_name(n).expect("canonical policy"))
    .collect()
}

fn prepared_mix(policy: &PolicyKind, benches: &[&str]) -> Simulator {
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("known benchmark"))
        .collect();
    let mut sim = Simulator::new(
        SimConfig::baseline(benches.len()),
        &profiles,
        policy.build(),
        42,
    );
    sim.prewarm(100_000);
    sim.run_cycles(5_000);
    sim.reset_stats();
    sim
}

/// Median wall-clock cycles/second over `reps` chunks of `cycles` each.
fn measure_mix(policy: &PolicyKind, benches: &[&str], cycles: u64, reps: usize) -> f64 {
    let mut sim = prepared_mix(policy, benches);
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            sim.run_cycles(cycles);
            cycles as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    rates[rates.len() / 2]
}

fn measure(policy: &PolicyKind, cycles: u64, reps: usize) -> f64 {
    measure_mix(policy, &BENCHES, cycles, reps)
}

/// Per-stage cycle-cost breakdown: runs every policy for `cycles` cycles
/// through [`Simulator::run_cycles_profiled`] (the fast-forwarding loop,
/// i.e. exactly what `run_cycles` executes) and accumulates one aggregate
/// [`StageProfile`], so the snapshot records where the cycle loop spends
/// its time (and future PRs can see which stage an optimisation moved).
/// `skipped` counts the cycles covered by fast-forward jumps.
///
/// Measured in the shape production sweeps run — one simulator reset
/// across all nine policies over the same workload (since PR 8 that shape
/// replays the trace store's retained blocks instead of regenerating, so a
/// per-policy fresh simulator would misattribute generation cost that the
/// fig4–fig7 sweeps never pay).
fn measure_stage_breakdown(cycles: u64) -> StageProfile {
    let profiles: Vec<_> = BENCHES
        .iter()
        .map(|b| spec::profile(b).expect("known benchmark"))
        .collect();
    let mut profile = StageProfile::default();
    let mut sim = Simulator::new(
        SimConfig::baseline(profiles.len()),
        &profiles,
        policies()[0].build(),
        42,
    );
    for policy in policies() {
        sim.reset(&profiles, policy.build(), 42);
        sim.prewarm(20_000);
        sim.run_cycles(2_000);
        sim.run_cycles_profiled(cycles, &mut profile);
    }
    profile
}

/// Mean sweep throughput over the 12 four-thread Table-4 mixes (ILP4,
/// MIX4, MEM4): per mix, one simulator is reset across all nine policies —
/// the fig4–fig7 pattern, and the pattern the trace store's block reuse
/// targets — and the simulated-cycles-per-second over the whole sweep is
/// averaged across mixes. This is the paired-A/B protocol PR 8's
/// acceptance was measured with (`ab_table4`).
fn measure_table4_sweep(cycles: u64) -> f64 {
    let mixes: Vec<_> = WorkloadType::ALL
        .into_iter()
        .flat_map(|kind| workloads_of(kind, 4))
        .collect();
    let mut sum = 0.0;
    for w in &mixes {
        let profiles: Vec<_> = w
            .benchmarks
            .iter()
            .map(|b| spec::profile(b).expect("known benchmark"))
            .collect();
        let mut sim = Simulator::new(
            SimConfig::baseline(profiles.len()),
            &profiles,
            policies()[0].build(),
            42,
        );
        let mut simulated = 0u64;
        let mut elapsed = 0.0f64;
        for policy in policies() {
            sim.reset(&profiles, policy.build(), 42);
            sim.prewarm(20_000);
            sim.run_cycles(2_000);
            let t0 = Instant::now();
            sim.run_cycles(cycles);
            elapsed += t0.elapsed().as_secs_f64();
            simulated += cycles;
        }
        sum += simulated as f64 / elapsed;
    }
    sum / mixes.len() as f64
}

/// Measures sweep setup cost: `runs`-run queues of *very short*
/// same-config simulations (so per-run setup dominates, which is the
/// quantity of interest), once through a reused [`SimSession`] and once
/// through a fresh session (= fresh `Simulator`) per run. Both modes are
/// sampled three times and the best rate kept, the usual guard against
/// one-off scheduler noise. Returns `(session_runs_per_sec,
/// fresh_runs_per_sec)`.
fn measure_sweep_setup(runs: usize) -> (f64, f64) {
    let specs: Vec<RunSpec> = (0..runs)
        .map(|i| {
            let names = [
                "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
            ];
            let mut s = RunSpec::new(
                &["art", "gcc", "twolf", "swim"],
                PolicyKind::from_name(names[i % names.len()]).expect("canonical policy"),
            );
            s.seed = 42 + i as u64;
            s.prewarm_insts = 1_000;
            s.warmup_cycles = 100;
            s.measure_cycles = 500;
            s
        })
        .collect();

    let mut session_rate = 0.0f64;
    let mut fresh_rate = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut session = SimSession::new();
        for spec in &specs {
            let _ = session.run(spec);
        }
        session_rate = session_rate.max(specs.len() as f64 / t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for spec in &specs {
            let _ = SimSession::new().run(spec);
        }
        fresh_rate = fresh_rate.max(specs.len() as f64 / t0.elapsed().as_secs_f64());
    }
    (session_rate, fresh_rate)
}

/// Seed the scenario-family section always benches at, so the rates are
/// comparable across snapshots.
const SCENARIO_SEED: u64 = 42;

/// Scenario-family sweep rates: one small family per profile (expected,
/// stress, adversarial-DCRA), swept under DCRA through a reused
/// [`SimSession`] queue, reported as simulated cycles per wall-clock
/// second. Generated mixes exercise the `profile_overrides` path the
/// registry benchmarks never touch, so their trajectory is tracked
/// separately. Returns `(family_name, mean sim-cycles/s)` per profile.
fn measure_scenario_families(mixes: usize, lengths: ScenarioLengths) -> Vec<(String, f64)> {
    let policy = policy_for_target(PolicyTarget::Dcra);
    [
        FamilySpec::expected(mixes),
        FamilySpec::stress(mixes),
        FamilySpec::adversarial(PolicyTarget::Dcra, mixes),
    ]
    .iter()
    .map(|spec| {
        let family = ScenarioFamily::generate(spec, SCENARIO_SEED).expect("valid family spec");
        let run_specs = specs_for_family(&family, &policy, lengths);
        let mut session = SimSession::new();
        let timed_cycles = (lengths.warmup_cycles + lengths.measure_cycles) * mixes as u64;
        let t0 = Instant::now();
        for run_spec in &run_specs {
            let _ = session.run(run_spec);
        }
        (
            spec.name.clone(),
            timed_cycles as f64 / t0.elapsed().as_secs_f64(),
        )
    })
    .collect()
}

/// Minimal strict JSON well-formedness check (the build has no JSON crate;
/// the trajectory file is precious, so appending to a corrupt one must
/// fail loudly rather than silently salvage lines).
fn validate_json(text: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected byte {}", self.i)),
            }
        }
        fn lit(&mut self, word: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(&c))
            {
                self.i += 1;
            }
            if self.i == start {
                return Err(format!("empty number at byte {start}"));
            }
            Ok(())
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        self.i += 1; // skip the escaped byte
                    }
                    _ => {}
                }
            }
            Err("unterminated string".to_string())
        }
        fn array(&mut self) -> Result<(), String> {
            self.eat(b'[')?;
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("bad array at byte {}", self.i)),
                }
            }
        }
        fn object(&mut self) -> Result<(), String> {
            self.eat(b'{')?;
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("bad object at byte {}", self.i)),
                }
            }
        }
    }
    let mut p = P {
        b: text.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(())
}

/// The stage-attribution keys every *freshly measured* snapshot's
/// `stage_pct` map must carry (mirrors `StageProfile::shares`). A missing
/// key means the tool dropped a stage — the before/after comparisons this
/// file exists for would silently misattribute time, so both `--check`
/// and the append path fail loudly instead.
const STAGE_KEYS: [&str; 8] = [
    "policy", "events", "commit", "issue", "dispatch", "fetch", "forward", "other",
];

/// The keys required of *historical* snapshots: stage attribution shipped
/// in PR 4, but `forward` only exists since PR 5's fast-forward stage, so
/// the PR 4-era entry legitimately lacks it.
const STAGE_KEYS_HISTORIC: [&str; 7] = [
    "policy", "events", "commit", "issue", "dispatch", "fetch", "other",
];

/// Validates that a snapshot line carrying a `stage_pct` object has all
/// of `required` present (lines without `stage_pct` predate stage
/// attribution and pass).
fn validate_stage_keys(snapshot: &str, required: &[&str]) -> Result<(), String> {
    let Some(start) = snapshot.find("\"stage_pct\"") else {
        return Ok(()); // pre-PR-4 snapshots have no stage attribution
    };
    let rest = &snapshot[start..];
    let open = rest
        .find('{')
        .ok_or_else(|| "stage_pct is not an object".to_string())?;
    // The map holds flat numeric values, so the first `}` closes it.
    let close = rest[open..]
        .find('}')
        .ok_or_else(|| "unterminated stage_pct object".to_string())?;
    let body = &rest[open..open + close + 1];
    let missing: Vec<&str> = required
        .iter()
        .filter(|k| !body.contains(&format!("\"{k}\":")))
        .copied()
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "stage_pct is missing key(s): {}",
            missing.join(", ")
        ))
    }
}

/// Strips characters that would need JSON escaping; host strings are
/// embedded in hand-built JSON lines.
fn json_safe(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
        .collect::<String>()
        .trim()
        .to_string()
}

/// Host fingerprint `(cpu_model, governor)`: enough to attribute
/// cross-host baseline drift (PR 4 saw ~3% between hosts) when comparing
/// snapshot entries. Both degrade to `"unknown"` off Linux or in
/// containers that hide the files.
fn host_fingerprint() -> (String, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(json_safe)
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map(|s| json_safe(&s))
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    (cpu, governor)
}

/// Existing snapshot lines of `path` (one JSON object per line, as written
/// by this tool). Unknown or absent files yield no lines.
fn existing_snapshots(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{ \"label\""))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(path) = flag("--check") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
        if let Err(e) = validate_json(&text) {
            eprintln!("{path} is not valid JSON: {e}");
            std::process::exit(1);
        }
        for line in existing_snapshots(&path) {
            if let Err(e) = validate_stage_keys(&line, &STAGE_KEYS_HISTORIC) {
                let label = line.split('"').nth(3).unwrap_or("<unlabelled>").to_string();
                eprintln!("{path}: snapshot \"{label}\": {e}");
                std::process::exit(1);
            }
        }
        println!("{path}: valid JSON, stage_pct keys complete");
        return;
    }
    let label = flag("--label").unwrap_or_else(|| "current".to_string());
    let out = flag("--out").unwrap_or_else(|| "BENCH_core.json".to_string());
    // Refuse to rewrite a trajectory file that is no longer valid JSON —
    // appending to it would bake the corruption in.
    if let Ok(existing) = std::fs::read_to_string(&out) {
        if !existing.trim().is_empty() {
            if let Err(e) = validate_json(&existing) {
                eprintln!("refusing to append: {out} is not valid JSON ({e})");
                std::process::exit(1);
            }
        }
    }
    let (cycles, reps) = if smoke { (5_000, 1) } else { (100_000, 3) };

    let mut fields = Vec::new();
    let mut sum = 0.0;
    for policy in policies() {
        let rate = measure(&policy, cycles, reps);
        eprintln!("{:>8}: {:>12.0} cycles/s", policy.name(), rate);
        fields.push(format!("\"{}\": {:.0}", policy.name(), rate));
        sum += rate;
    }
    let mean = sum / fields.len() as f64;
    eprintln!("{:>8}: {:>12.0} cycles/s", "mean", mean);
    let mut mem_fields = Vec::new();
    let mut mem_sum = 0.0;
    for policy in policies() {
        let rate = measure_mix(&policy, &MEM_BENCHES, cycles, reps);
        eprintln!("{:>8}: {:>12.0} cycles/s (MEM mix)", policy.name(), rate);
        mem_fields.push(format!("\"{}\": {:.0}", policy.name(), rate));
        mem_sum += rate;
    }
    let mem_mean = mem_sum / mem_fields.len() as f64;
    eprintln!("{:>8}: {:>12.0} cycles/s (MEM mix)", "mem mean", mem_mean);
    let (session_rate, fresh_rate) = measure_sweep_setup(if smoke { 9 } else { 27 });
    eprintln!(
        "{:>8}: {session_rate:>12.1} runs/s reused session, {fresh_rate:.1} fresh",
        "sweep"
    );
    let table4_rate = measure_table4_sweep(if smoke { 5_000 } else { 100_000 });
    eprintln!(
        "{:>8}: {table4_rate:>12.0} cycles/s (Table-4 4-thread sweep)",
        "table4"
    );
    let profile = measure_stage_breakdown(if smoke { 2_000 } else { 30_000 });
    // `stage_pct` stays a pure share map (sums to ~100); the skipped-cycle
    // fraction is a sibling top-level field.
    let stage_fields: Vec<String> = profile
        .shares()
        .iter()
        .map(|(name, share)| format!("\"{name}\": {:.1}", share * 100.0))
        .collect();
    let skipped_pct = 100.0 * profile.skipped as f64 / profile.cycles.max(1) as f64;
    eprintln!(
        "{:>8}: {}",
        "stages",
        profile
            .shares()
            .iter()
            .map(|(n, s)| format!("{n} {:.0}%", s * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let scenario_mixes = if smoke { 2 } else { 4 };
    let scenario_lengths = if smoke {
        ScenarioLengths {
            prewarm_insts: 20_000,
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
        }
    } else {
        ScenarioLengths::measure()
    };
    let scenario = measure_scenario_families(scenario_mixes, scenario_lengths);
    for (name, rate) in &scenario {
        eprintln!("{:>8}: {rate:>12.0} cycles/s (scenario {name})", "family");
    }
    let scenario_fields: Vec<String> = scenario
        .iter()
        .map(|(name, rate)| format!("\"{name}\": {rate:.0}"))
        .collect();

    let (host_cpu, host_governor) = host_fingerprint();
    eprintln!("{:>8}: {host_cpu} (governor {host_governor})", "host");
    let snapshot = format!(
        "{{ \"label\": \"{label}\", \"smoke\": {smoke}, \"measured_cycles\": {cycles}, \
         \"host\": {{ \"cpu\": \"{host_cpu}\", \"governor\": \"{host_governor}\" }}, \
         \"mean_cycles_per_sec\": {mean:.0}, \
         \"mem_mean_cycles_per_sec\": {mem_mean:.0}, \
         \"table4_sweep_cycles_per_sec\": {table4_rate:.0}, \
         \"sweep_session_runs_per_sec\": {session_rate:.1}, \
         \"sweep_fresh_runs_per_sec\": {fresh_rate:.1}, \
         \"skipped_cycles_pct\": {skipped_pct:.1}, \
         \"scenario_families\": {{ \"seed\": {SCENARIO_SEED}, \"mixes\": {scenario_mixes}, \
         \"policy\": \"DCRA\", \"cycles_per_sec\": {{ {} }} }}, \
         \"stage_pct\": {{ {} }}, \
         \"cycles_per_sec\": {{ {} }}, \
         \"mem_cycles_per_sec\": {{ {} }} }}",
        scenario_fields.join(", "),
        stage_fields.join(", "),
        fields.join(", "),
        mem_fields.join(", ")
    );
    // Self-check the freshly built snapshot before it touches the file:
    // a stage renamed or dropped upstream must fail here, not corrupt the
    // trajectory.
    if let Err(e) = validate_stage_keys(&snapshot, &STAGE_KEYS) {
        eprintln!("refusing to record snapshot: {e}");
        std::process::exit(1);
    }
    let mut lines = existing_snapshots(&out);
    lines.retain(|l| !l.contains(&format!("\"label\": \"{label}\"")));
    lines.push(snapshot);

    let body = lines
        .iter()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{ \"schema\": \"bench_core.v1\",\n  \"bench\": \"policies/mix4 {}\",\n  \
         \"note\": \"simulated cycles per wall-clock second, median of {reps} x {cycles}-cycle runs per policy; maintained by scripts/bench_snapshot.sh\",\n  \
         \"snapshots\": [\n{body}\n] }}\n",
        BENCHES.join("+"),
    );
    std::fs::write(&out, json).expect("write snapshot file");
    println!(
        "recorded {} policies into {out} (label \"{label}\")",
        fields.len()
    );
}
