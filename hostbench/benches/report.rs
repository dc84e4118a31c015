//! Output side of the benchmark: run digests, order statistics and the
//! JSON lines it prints.

use smt_experiments::RunStats;
use std::fmt::Write as _;

/// FNV-1a, 64-bit: a fixed, dependency-free hash, so a digest printed
/// by one build compares with one printed by another.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every field of a run's `SimResult` and per-thread
/// `ThreadMemStats`: two runs digest equal exactly when the simulator
/// produced the same statistics.
pub fn run_digest(stats: &RunStats) -> u64 {
    let mut d = Digest::default();
    let r = &stats.result;
    d.bytes(r.policy.as_bytes());
    d.u64(r.cycles);
    for t in &r.threads {
        for v in [
            t.committed,
            t.fetched,
            t.squashed,
            t.mispredicts,
            t.loads,
            t.l1d_misses,
            t.l2_misses,
            t.gated_cycles,
            t.mlp_sum,
            t.mlp_cycles,
            t.blocked_rob,
            t.blocked_iq,
            t.blocked_regs,
            t.blocked_policy,
        ] {
            d.u64(v);
        }
    }
    for m in &stats.mem {
        for v in [
            m.accesses,
            m.l1_misses,
            m.l2_accesses,
            m.l2_misses,
            m.tlb_misses,
        ] {
            d.u64(v);
        }
    }
    d.finish()
}

/// Folds per-run digests, in spec order, into one workload digest.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    for v in digests {
        d.u64(v);
    }
    d.finish()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one invocation measured, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Diagnostics printed to stderr (why `correct` is false, mostly).
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value cannot be written as JSON; it is
    /// written as 0 and the result marked incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_four_keys_and_no_nan() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a", 1.5, "s"), metric("b", f64::NAN, "ms")],
            problems: Vec::new(),
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
