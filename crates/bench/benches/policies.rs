//! Whole-simulator throughput benchmarks: cycles simulated per second for
//! each policy on a representative MIX workload. These are the numbers
//! that determine how long the paper-scale experiment sweeps take.

use bench::prepared_sim;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dcra::Dcra;
use smt_experiments::PolicyKind;

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_cycles");
    g.throughput(Throughput::Elements(2_000));
    for name in [
        "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
    ] {
        g.bench_function(format!("mix2/{name}"), |b| {
            b.iter_batched(
                || {
                    let policy = PolicyKind::from_name(name).expect("known policy").build();
                    prepared_sim(&["gzip", "mcf"], policy)
                },
                |mut sim| {
                    sim.run_cycles(2_000);
                    sim
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// The acceptance benchmark of the event-driven-wakeup PR: the standard
/// 4-thread mix for 100k measured cycles per iteration, per policy.
fn bench_mix4_100k(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_sweep");
    g.sample_size(3);
    g.throughput(Throughput::Elements(100_000));
    for name in ["ICOUNT", "DCRA"] {
        g.bench_function(format!("mix4_100k/{name}"), |b| {
            b.iter_batched(
                || {
                    let policy = PolicyKind::from_name(name).expect("known policy").build();
                    prepared_sim(&["art", "gcc", "twolf", "swim"], policy)
                },
                |mut sim| {
                    sim.run_cycles(100_000);
                    sim
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_scaling");
    g.throughput(Throughput::Elements(2_000));
    for (label, benches) in [
        ("1thread", vec!["art"]),
        ("2threads", vec!["art", "gcc"]),
        ("4threads", vec!["art", "gcc", "twolf", "swim"]),
    ] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || prepared_sim(&benches, Dcra::default()),
                |mut sim| {
                    sim.run_cycles(2_000);
                    sim
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_mix4_100k,
    bench_thread_scaling
);
criterion_main!(benches);
