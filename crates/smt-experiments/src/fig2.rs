//! Paper Figure 2: average single-thread IPC as the share of one resource
//! class shrinks, with a perfect data L1.
//!
//! The paper's setup: 160 rename registers, 32-entry issue queues, perfect
//! DL1; each benchmark runs alone but may only use X% of one resource class
//! (12.5%..100%). The result motivates DCRA: threads without misses reach
//! ~90% of full speed with only ~37.5% of the resources.

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunSpec, Runner};
use crate::tables::TextTable;
use smt_isa::{PerResource, ResourceKind};
use smt_sim::SimConfig;
use smt_workloads::spec;

/// The resource shares the paper sweeps (fractions of the total).
pub const FRACTIONS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// Result: for each resource class, the average relative IPC at each
/// fraction (1.0 = full-resource speed).
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Swept resource.
    pub resource: ResourceKind,
    /// `(fraction, average relative IPC)` series.
    pub series: Vec<(f64, f64)>,
}

/// The machine of the Figure-2 experiment: baseline with 32-entry queues,
/// 160 rename registers (192 physical at 1 thread) and a perfect DL1.
pub fn fig2_config() -> SimConfig {
    let mut c = SimConfig::baseline(1);
    c.iq_entries = 32;
    c.phys_regs = 160 + c.arch_regs_per_thread;
    c.mem.perfect_dl1 = true;
    c
}

fn benches_for(resource: ResourceKind) -> Vec<&'static str> {
    // The paper averages FP resources over FP benchmarks only (footnote 1).
    // For the integer resources we use a representative half of the suite
    // (4 MEM + 4 ILP) — the sweep is 8 fractions x benchmarks x 5
    // resources and the average is insensitive to the exact subset.
    if resource.is_fp() {
        spec::names()
            .into_iter()
            .filter(|n| spec::profile(n).map(|p| p.mix.uses_fp()).unwrap_or(false))
            .collect()
    } else {
        vec![
            "mcf", "art", "twolf", "equake", "gzip", "gcc", "gap", "crafty",
        ]
    }
}

/// Runs the sweep for every resource class, all of it in one engine call.
/// `measure_cycles` trades precision for time (the paper's full sweep is
/// hundreds of runs). Fails on the first run error (the specs are built
/// from the trusted registry, so only a broken machine configuration can
/// do that).
pub fn run(runner: &Runner, measure_cycles: u64) -> Result<Vec<Fig2Result>, RunError> {
    let config = fig2_config();
    let groups: Vec<(ResourceKind, Vec<&str>)> = ResourceKind::ALL
        .into_iter()
        .map(|resource| (resource, benches_for(resource)))
        .collect();
    // Per resource: one run per fraction and benchmark, fraction-major,
    // so the last fraction (100%) holds the full-speed baselines.
    let mut specs: Vec<RunSpec> = Vec::new();
    for (resource, benches) in &groups {
        let total = config.resource_totals()[*resource];
        for frac in FRACTIONS {
            for b in benches {
                let cap = ((f64::from(total) * frac).round() as u32).max(1);
                let mut caps = PerResource::<Option<u32>>::default();
                caps[*resource] = Some(cap);
                let mut s =
                    RunSpec::new(&[b], PolicyKind::SraCapped(caps)).with_config(config.clone());
                s.measure_cycles = measure_cycles;
                s.prewarm_insts = 150_000;
                s.warmup_cycles = 10_000;
                specs.push(s);
            }
        }
    }
    let ipcs = runner
        .run_all_with_workers(&specs, default_workers())
        .into_iter()
        .map(|o| o.into_stats().map(|stats| stats.throughput()))
        .collect::<Result<Vec<f64>, _>>()?;
    let mut rest = ipcs.as_slice();
    Ok(groups
        .into_iter()
        .map(|(resource, benches)| {
            let per_frac = benches.len();
            let (group, tail) = rest.split_at(FRACTIONS.len() * per_frac);
            rest = tail;
            let (_, full_speed) = group.split_at(group.len() - per_frac);
            let series = FRACTIONS
                .iter()
                .zip(group.chunks(per_frac))
                .map(|(&frac, row)| {
                    let rel: f64 = row
                        .iter()
                        .zip(full_speed)
                        .map(|(&ipc, &full)| if full > 0.0 { ipc / full } else { 0.0 })
                        .sum::<f64>()
                        / per_frac as f64;
                    (frac, rel)
                })
                .collect();
            Fig2Result { resource, series }
        })
        .collect())
}

/// Formats the sweep like the paper's figure (rows = % resources, columns =
/// resource class).
pub fn report(results: &[Fig2Result]) -> TextTable {
    let mut header = vec!["% of resource".to_string()];
    header.extend(results.iter().map(|r| r.resource.to_string()));
    let headers: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TextTable::new(&headers);
    for (i, &frac) in FRACTIONS.iter().enumerate() {
        let mut row = vec![format!("{:.1}", frac * 100.0)];
        for r in results {
            #[expect(
                clippy::indexing_slicing,
                reason = "all series are built over the same fraction list that drives the loop index"
            )]
            row.push(format!("{:.3}", r.series[i].1));
        }
        t.row_owned(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_matches_paper_setup() {
        let c = fig2_config();
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.rename_pool(), 160);
        assert!(c.mem.perfect_dl1);
    }

    #[test]
    fn fp_sweeps_use_fp_benchmarks_only() {
        let b = benches_for(ResourceKind::FpQueue);
        assert!(b.contains(&"swim"));
        assert!(!b.contains(&"gzip"));
        let ints = benches_for(ResourceKind::IntQueue);
        assert_eq!(ints.len(), 8);
    }

    /// Tiny-scale behavioural check: a thread with 12.5% of the LS queue
    /// must be slower than with 100%, and 100% equals itself.
    #[test]
    fn shrinking_a_resource_costs_ipc() {
        let runner = Runner::new();
        let config = fig2_config();
        let make = |cap: Option<u32>| {
            let mut caps = PerResource::<Option<u32>>::default();
            caps[ResourceKind::LsQueue] = cap.map(|c| c.max(1));
            let mut s =
                RunSpec::new(&["gzip"], PolicyKind::SraCapped(caps)).with_config(config.clone());
            s.prewarm_insts = 50_000;
            s.warmup_cycles = 5_000;
            s.measure_cycles = 40_000;
            s
        };
        let small = runner.run(&make(Some(4))).expect("valid spec").throughput();
        let full = runner
            .run(&make(Some(32)))
            .expect("valid spec")
            .throughput();
        assert!(
            small < full,
            "4-entry LSQ ({small:.2}) should be slower than 32-entry ({full:.2})"
        );
    }
}
