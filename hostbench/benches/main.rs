//! Host-time benchmark for the DCRA reproduction.
//!
//! ```text
//! hostbench --workload <fig5-sweep|kernel-ilp4|kernel-mem4>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload in this process. With `--trace 0` it repeats the
//! whole workload for `S` seconds and prints the end-to-end metrics; with
//! `--trace 1` it replays the workload with a span around every phase,
//! checks each run against the untraced program, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Each layer is
//! measured from outside, through the crates' public functions; nothing
//! in the program is instrumented. See `README.md` for the metrics.

mod calib;
mod host;
mod plan;
mod probes;
mod report;
mod traced;
mod untraced;

use plan::{Plan, Workload, WORKLOADS};
use report::json_str;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where every printed number comes from: the workload and its inputs,
/// the machine configurations, the code revision and the host.
fn provenance(args: &Args, plan: &Plan, samples: &str) -> String {
    let l = &plan.lengths;
    let paper: Vec<String> = traced::PAPER_FIG5
        .iter()
        .map(|(base, hmean, tput)| {
            format!(
                "{}: {{\"hmean\": {hmean}, \"tput\": {tput}}}",
                json_str(&format!("DCRA vs {base}"))
            )
        })
        .collect();
    let paper = format!("{{{}}}", paper.join(", "));
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \
         \"lengths\": {{\"prewarm_insts\": {}, \"warmup_cycles\": {}, \"measure_cycles\": {}}}, \
         \"config_fingerprint\": \"{:016x}\", \"workers\": {}, \"git_revision\": {}, \
         \"cpu\": {}, \"nproc\": {}, \"samples\": {samples}, \"paper_fig5_pct\": {paper}}}}}",
        json_str(plan.workload.name()),
        args.seed,
        u8::from(args.trace),
        l.prewarm_insts,
        l.warmup_cycles,
        l.measure_cycles,
        plan.config_fingerprint(),
        plan.workers,
        json_str(&host::git_revision()),
        json_str(&host::cpu_model()),
        host::nproc(),
    )
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("hostbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
            eprintln!(
                "hostbench: {e}\nusage: hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let singles = match plan.workload {
        Workload::Fig5Sweep => Ok(BTreeMap::new()),
        _ => untraced::kernel_singles(&plan),
    };
    let singles = match singles {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hostbench: single-thread baselines failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (outcome, samples) = if args.trace {
        (
            traced::measure(&plan, &singles),
            "{\"repetitions\": 1}".to_string(),
        )
    } else {
        untraced::measure(&plan, args.seconds, &singles)
    };
    for p in &outcome.problems {
        eprintln!("hostbench: {p}");
    }
    println!("{}", provenance(&args, &plan, &samples));
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
