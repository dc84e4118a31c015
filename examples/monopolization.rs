//! Resource monopolization, observed: run a MIX workload under ICOUNT and
//! under DCRA and compare who holds the shared resources — the paper's
//! central argument (Sections 1–2) made visible.
//!
//! Run with: `cargo run --release --example monopolization`

use dcra_smt::dcra::Dcra;
use dcra_smt::isa::{PerResource, ResourceKind, ThreadId};
use dcra_smt::policies::Icount;
use dcra_smt::sim::{policy::AnyPolicy, SimConfig, Simulator};
use dcra_smt::workloads::spec;

fn measure(policy: AnyPolicy, label: &str) {
    let benches = ["art", "gzip"];
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("built-in profile"))
        .collect();
    let mut sim = Simulator::new(SimConfig::baseline(2), &profiles, policy, 42);
    sim.prewarm(400_000);
    sim.run_cycles(30_000);
    sim.reset_stats();

    // Step the measured cycles, summing each thread's resource occupancy
    // and keeping its peak.
    let cycles = 150_000u64;
    let mut sums = [PerResource::<u64>::default(); 2];
    let mut peaks = [PerResource::<u32>::default(); 2];
    for _ in 0..cycles {
        sim.step();
        for (t, (sum, peak)) in sums.iter_mut().zip(&mut peaks).enumerate() {
            let usage = sim.thread_usage(ThreadId::new(t));
            for kind in ResourceKind::ALL {
                sum[kind] += u64::from(usage[kind]);
                peak[kind] = peak[kind].max(usage[kind]);
            }
        }
    }
    // Mean share (0..1) of `total` entries of `kind` held by thread `t`.
    let share =
        |t: usize, kind, total: u32| sums[t][kind] as f64 / cycles as f64 / f64::from(total);
    let result = sim.result();

    println!("== {label}");
    println!("   throughput {:.3} IPC", result.throughput());
    for (i, b) in benches.iter().enumerate() {
        println!(
            "   {b:5} ipc={:.2}  mean share of LSQ {:>5.1}%  int-regs {:>5.1}%  peak LSQ {:>2}",
            result.threads[i].ipc(result.cycles),
            share(i, ResourceKind::LsQueue, 80) * 100.0,
            share(i, ResourceKind::IntRegs, 288) * 100.0,
            peaks[i][ResourceKind::LsQueue],
        );
    }
}

fn main() {
    println!("art (memory-bound) + gzip (high ILP) on the baseline machine\n");
    measure(Icount.into(), "ICOUNT — no direct resource control");
    measure(Dcra::default().into(), "DCRA — usage-capped slow threads");
    println!("\nUnder ICOUNT the missing thread piles entries up in the shared");
    println!("queues; DCRA bounds it to its computed entitlement and returns the");
    println!("slack to the fast thread.");
}
