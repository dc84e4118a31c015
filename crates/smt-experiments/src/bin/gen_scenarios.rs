//! Generates a scenario family and emits its JSON manifest.
//!
//! Usage:
//!
//! ```text
//! gen_scenarios [--family NAME] [--seed N] [--mixes N] [--workers N] [--out PATH]
//! ```
//!
//! `NAME` is `expected`, `stress`, or `adversarial-<POLICY>` with POLICY
//! one of RR, ICOUNT, STALL, FLUSH, FLUSH++ (also FLUSHPP/FLUSH_PP), DG,
//! PDG, SRA, DCRA. Defaults: `--family expected --seed 42 --mixes 60
//! --workers 1`, manifest to stdout. The output is byte-stable: the same
//! family, seed and mix count produce identical bytes for any worker
//! count — CI generates the expected family twice and diffs the files.

use smt_workloads::{FamilyManifest, FamilySpec, PolicyTarget};

fn usage() -> ! {
    eprintln!(
        "usage: gen_scenarios [--family expected|stress|adversarial-<POLICY>] \
         [--seed N] [--mixes N] [--workers N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_family(name: &str, mixes: usize) -> Option<FamilySpec> {
    match name {
        "expected" => Some(FamilySpec::expected(mixes)),
        "stress" => Some(FamilySpec::stress(mixes)),
        _ => {
            let policy = name.strip_prefix("adversarial-")?;
            Some(FamilySpec::adversarial(
                PolicyTarget::from_name(policy)?,
                mixes,
            ))
        }
    }
}

fn main() {
    let mut family = "expected".to_string();
    let mut seed: u64 = 42;
    let mut mixes: usize = 60;
    let mut workers: usize = 1;
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--family" => family = value(),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--mixes" => mixes = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(value()),
            _ => usage(),
        }
    }

    let spec = parse_family(&family, mixes).unwrap_or_else(|| {
        eprintln!("unknown family `{family}`");
        usage();
    });
    let manifest =
        FamilyManifest::generate_with_workers(&spec, seed, workers).unwrap_or_else(|e| {
            eprintln!("invalid family spec: {e}");
            std::process::exit(2);
        });
    let json = manifest.to_json();
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "wrote {} ({} mixes, fingerprint {:016x})",
                path,
                manifest.mixes.len(),
                manifest.fingerprint()
            );
        }
        None => print!("{json}"),
    }
}
