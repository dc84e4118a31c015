//! Host-speed calibration. The benchmark runs on shared machines whose
//! speed drifts by tens of percent over minutes (other tenants on the
//! same cores), far more than the changes it must detect. A fixed piece
//! of work that calls no code of the program, timed between the segments
//! of every repetition, measures the host's speed as the repetition
//! runs; scaling the repetition's times by it removes most of the drift
//! and leaves the program's own changes.
//!
//! The calibration runs on one thread, also for the two-worker
//! `fig5-sweep`: two threads calibrating at once on a 2-vCPU host read
//! each other's interference more than the host's speed.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the table: 1 MiB of `u64`, so the loop mixes cache hits
/// and misses as the simulator does.
const TABLE: usize = 1 << 17;
/// Loop iterations per calibration: about a millisecond.
const STEPS: u64 = 100_000;
/// The calibration's time on the host the bounds were set on (a 2-vCPU
/// Intel Xeon @ 2.10GHz VM in a quiet period). Normalised times are in
/// seconds of that host: `time × REFERENCE_S / calibration`.
pub const REFERENCE_S: f64 = 0.0009;

/// The calibration's table, allocated once so that calibrating neither
/// faults in pages nor moves the process's peak RSS again.
pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut c = Calibration {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        };
        c.run();
        c
    }

    /// Wall time of one pass of the calibration loop: xorshift-driven
    /// loads, data-dependent branches and occasional stores over the
    /// table.
    pub fn run(&mut self) -> Duration {
        let t0 = Instant::now();
        let table = &mut self.table;
        let mask = table.len() - 1;
        let mut x: u64 = 0x1234_5678;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            let v = table[j];
            if v & 3 == 0 {
                acc = acc.wrapping_add(v >> 3);
            } else if v & 7 == 1 {
                acc ^= v;
            } else {
                acc = acc.rotate_left(5).wrapping_add(i);
            }
            if i & 15 == 0 {
                table[(j + 1) & mask] = acc;
            }
        }
        black_box(acc);
        t0.elapsed()
    }
}
