//! Simulator configuration (the paper's Table 2).

use serde::{Deserialize, Serialize};
use smt_bpred::PredictorConfig;
use smt_isa::{PerResource, QueueKind, RegClass, ResourceKind};
use smt_mem::MemoryConfig;

/// Full configuration of the simulated SMT processor.
///
/// Defaults reproduce the paper's baseline (Table 2): 8-wide
/// fetch/issue/commit, 80-entry issue queues, 6/3/4 execution units, 352
/// physical registers per file, a 512-entry shared ROB, gshare/BTB/RAS
/// front end and the 64KB/512KB/300-cycle memory system.
///
/// The pipeline depth is not Table 2's. The machine is not modelled stage
/// by stage; two delays stand for its depth, and their defaults are
/// shallower than Table 2's 12-stage pipeline with a two-cycle register
/// read: 4 cycles from fetch to the earliest rename
/// ([`SimConfig::frontend_delay`]) and 1 cycle of register read before
/// execution ([`SimConfig::regread_delay`]).
///
/// # Examples
///
/// ```
/// use smt_sim::SimConfig;
///
/// let cfg = SimConfig::baseline(2);
/// assert_eq!(cfg.threads, 2);
/// assert_eq!(cfg.phys_regs, 352);
/// assert_eq!(cfg.rename_pool(), 352 - 32 * 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of hardware threads for this run.
    pub threads: usize,
    /// Instructions fetched per cycle (total across threads).
    pub fetch_width: u32,
    /// Maximum threads fetched from per cycle (2 = ICOUNT-2.8 style).
    pub fetch_threads: u32,
    /// Instructions decoded/renamed per cycle (total).
    pub decode_width: u32,
    /// Instructions committed per cycle (total).
    pub commit_width: u32,
    /// Entries in each of the three issue queues.
    pub iq_entries: u32,
    /// Integer execution units.
    pub int_units: u32,
    /// FP execution units.
    pub fp_units: u32,
    /// Load/store units.
    pub ls_units: u32,
    /// Physical registers per register file (int and fp each).
    pub phys_regs: u32,
    /// Architectural registers reserved per thread per file.
    pub arch_regs_per_thread: u32,
    /// Shared reorder-buffer entries.
    pub rob_entries: u32,
    /// Per-thread fetch-queue entries.
    pub fetch_queue: u32,
    /// Cycles from fetch to the earliest rename: an instruction fetched on
    /// cycle `t` may dispatch from cycle `t + frontend_delay` on. It stands
    /// for every front-end stage between fetch and rename; the default is
    /// 4. The instruction holds its thread's fetch-queue slot until it
    /// dispatches, so one thread's front end passes at most
    /// `fetch_queue / frontend_delay` instructions a cycle: 16 / 4 = 4 on
    /// the defaults.
    pub frontend_delay: u32,
    /// Register-read cycles added to every execution latency: an
    /// instruction issued on cycle `t` completes `regread_delay` cycles
    /// after `t` plus its execution (or, for a load, its memory-access)
    /// latency. The default is 1, one cycle of register read, where
    /// Table 2 assumes two.
    pub regread_delay: u32,
    /// Branch predictor configuration.
    pub bpred: PredictorConfig,
    /// Memory system configuration.
    pub mem: MemoryConfig,
}

impl SimConfig {
    /// The paper's baseline machine with `threads` contexts.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`smt_isa::ThreadId::MAX_THREADS`].
    pub fn baseline(threads: usize) -> Self {
        assert!(
            (1..=smt_isa::ThreadId::MAX_THREADS).contains(&threads),
            "thread count {threads} unsupported"
        );
        SimConfig {
            threads,
            fetch_width: 8,
            fetch_threads: 2,
            decode_width: 8,
            commit_width: 8,
            iq_entries: 80,
            int_units: 6,
            fp_units: 3,
            ls_units: 4,
            phys_regs: 352,
            arch_regs_per_thread: 32,
            rob_entries: 512,
            fetch_queue: 16,
            frontend_delay: 4,
            regread_delay: 1,
            bpred: PredictorConfig::default(),
            mem: MemoryConfig::default(),
        }
    }

    /// Shared rename-register pool per file: physical registers minus the
    /// architectural registers of every running thread (Section 4 of the
    /// paper: 352 − 32·T).
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves no rename registers.
    pub fn rename_pool(&self) -> u32 {
        let reserved = self.arch_regs_per_thread * self.threads as u32;
        assert!(
            self.phys_regs > reserved,
            "no rename registers left: {} physical, {} reserved",
            self.phys_regs,
            reserved
        );
        self.phys_regs - reserved
    }

    /// Cycles after issue at which a load that has missed the L2 is
    /// *detected* and reported to the policy — the L2 hit latency. Loads
    /// that resolve faster (L1 hits, L1-miss/L2-hit warm accesses) never
    /// reach the STALL/FLUSH trigger.
    pub fn l2_detect_delay(&self) -> u32 {
        self.mem.l2.latency
    }

    /// Total entries of each controlled resource, as seen by allocation
    /// policies (issue queues and the two rename pools).
    pub fn resource_totals(&self) -> PerResource<u32> {
        let mut t = PerResource::default();
        t[ResourceKind::IntQueue] = self.iq_entries;
        t[ResourceKind::FpQueue] = self.iq_entries;
        t[ResourceKind::LsQueue] = self.iq_entries;
        t[ResourceKind::IntRegs] = self.rename_pool();
        t[ResourceKind::FpRegs] = self.rename_pool();
        t
    }

    /// Execution units available for a queue.
    pub fn units(&self, q: QueueKind) -> u32 {
        match q {
            QueueKind::Int => self.int_units,
            QueueKind::Fp => self.fp_units,
            QueueKind::LoadStore => self.ls_units,
        }
    }

    /// Rename pool of one register class (both files are sized equally).
    pub fn pool_of(&self, _class: RegClass) -> u32 {
        self.rename_pool()
    }

    /// Largest window span (ROB + fetch-queue entries) a configuration may
    /// request. The per-thread rings are power-of-two sized from this sum;
    /// the cap keeps them addressable and guards against absurd
    /// deserialized configurations allocating gigabytes per thread.
    pub const MAX_WINDOW_SPAN: u32 = 1 << 24;

    /// Validates cross-field consistency. A *hard* check (plain `Result`,
    /// no `debug_assert`): it runs identically in release builds, where it
    /// backstops invariants the hot path only `debug_assert`s — most
    /// importantly the `threads <= ThreadId::MAX_THREADS` bound that the
    /// `seq << 3 | tid` packing of ready-list and event-wheel entries and
    /// the fast-forward thread bitmasks rely on. [`Simulator::new`] and the
    /// experiment session layer both call it before running.
    ///
    /// [`Simulator::new`]: crate::Simulator::new
    ///
    /// # Errors
    ///
    /// Returns a message if the thread count is out of range, widths are
    /// zero, queues/windows are zero-sized or too large for the ring
    /// storage, resources are too small to make forward progress, or the
    /// memory or predictor geometry fails [`MemoryConfig::validate`] or
    /// [`PredictorConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("need at least one hardware thread".into());
        }
        if self.threads > smt_isa::ThreadId::MAX_THREADS {
            return Err(format!(
                "thread count {} exceeds the supported maximum {}",
                self.threads,
                smt_isa::ThreadId::MAX_THREADS
            ));
        }
        if self.fetch_width == 0 || self.decode_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be non-zero".into());
        }
        if self.fetch_threads == 0 {
            return Err("must fetch from at least one thread".into());
        }
        if self.iq_entries == 0 || self.rob_entries == 0 || self.fetch_queue == 0 {
            return Err("queues must be non-empty".into());
        }
        match self.rob_entries.checked_add(self.fetch_queue) {
            None => return Err("ROB + fetch queue overflows the window span".into()),
            Some(span) if span > Self::MAX_WINDOW_SPAN => {
                return Err(format!(
                    "window span {span} (ROB + fetch queue) exceeds the ring \
                     capacity limit {}",
                    Self::MAX_WINDOW_SPAN
                ));
            }
            Some(_) => {}
        }
        if self.int_units == 0 || self.ls_units == 0 {
            return Err("need at least one int and one ls unit".into());
        }
        let reserved = self.arch_regs_per_thread * self.threads as u32;
        if self.phys_regs <= reserved {
            return Err(format!(
                "physical registers ({}) do not cover architectural state ({reserved})",
                self.phys_regs
            ));
        }
        self.mem
            .validate()
            .map_err(|why| format!("memory: {why}"))?;
        self.bpred
            .validate()
            .map_err(|why| format!("branch predictor: {why}"))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::baseline(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SimConfig::baseline(4);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.iq_entries, 80);
        assert_eq!(c.int_units, 6);
        assert_eq!(c.fp_units, 3);
        assert_eq!(c.ls_units, 4);
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.phys_regs, 352);
        assert_eq!(c.mem.memory_latency, 300);
        assert_eq!(c.mem.l2.latency, 20);
        // STALL and FLUSH trigger at Table 2's L2 latency.
        assert_eq!(c.l2_detect_delay(), 20);
        assert_eq!(c.bpred.gshare_entries, 16 * 1024);
        c.validate().unwrap();
    }

    #[test]
    fn rename_pool_follows_paper_formula() {
        // Paper Section 4, with 352 physical registers: P − 32·T.
        for (threads, expect) in [(4usize, 224u32), (3, 256), (2, 288)] {
            let c = SimConfig::baseline(threads);
            assert_eq!(c.rename_pool(), expect);
        }
        // With 320 registers the paper quotes 224/256 rename registers at
        // 3/2 threads, matching P − 32·T. (Its "160" for 4 threads is an
        // arithmetic typo: 320 − 128 = 192.)
        let mut c = SimConfig::baseline(4);
        c.phys_regs = 320;
        assert_eq!(c.rename_pool(), 192);
    }

    #[test]
    fn resource_totals_cover_all_kinds() {
        let c = SimConfig::baseline(2);
        let t = c.resource_totals();
        for (kind, v) in t.iter() {
            assert!(*v > 0, "{kind} has zero entries");
        }
        assert_eq!(t[ResourceKind::IntQueue], 80);
        assert_eq!(t[ResourceKind::IntRegs], c.rename_pool());
    }

    #[test]
    fn validate_catches_register_underflow() {
        let mut c = SimConfig::baseline(4);
        c.phys_regs = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn zero_threads_rejected() {
        let _ = SimConfig::baseline(0);
    }

    #[test]
    fn validate_rejects_thread_counts_out_of_range() {
        // `baseline` asserts its argument, but a deserialized or mutated
        // config can carry any `threads` value; `validate` must reject it
        // with a plain error (release builds included) before the issue
        // stage's `seq << 3 | tid` key packing could silently corrupt
        // ordering for tid >= 8.
        let mut c = SimConfig::baseline(4);
        c.threads = 0;
        assert!(c.validate().unwrap_err().contains("at least one"));
        c.threads = smt_isa::ThreadId::MAX_THREADS + 1;
        assert!(c.validate().unwrap_err().contains("exceeds"));
        // Give the out-of-range config enough registers so the thread
        // bound is really what trips, not the register check.
        c.phys_regs = u32::MAX;
        assert!(c.validate().unwrap_err().contains("exceeds"));
        c.threads = smt_isa::ThreadId::MAX_THREADS;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_sized_windows_and_queues() {
        for field in ["fetch_width", "decode_width", "commit_width"] {
            let mut c = SimConfig::baseline(2);
            match field {
                "fetch_width" => c.fetch_width = 0,
                "decode_width" => c.decode_width = 0,
                _ => c.commit_width = 0,
            }
            assert!(c.validate().is_err(), "{field} = 0 must be rejected");
        }
        for field in ["iq_entries", "rob_entries", "fetch_queue"] {
            let mut c = SimConfig::baseline(2);
            match field {
                "iq_entries" => c.iq_entries = 0,
                "rob_entries" => c.rob_entries = 0,
                _ => c.fetch_queue = 0,
            }
            assert!(c.validate().is_err(), "{field} = 0 must be rejected");
        }
        let mut c = SimConfig::baseline(2);
        c.fetch_threads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_caps_ring_capacities() {
        let mut c = SimConfig::baseline(2);
        c.rob_entries = u32::MAX;
        c.fetch_queue = 2;
        assert!(
            c.validate().unwrap_err().contains("overflow"),
            "u32 overflow of the window span must be rejected"
        );
        c.rob_entries = SimConfig::MAX_WINDOW_SPAN;
        c.fetch_queue = 1;
        assert!(c.validate().unwrap_err().contains("ring capacity"));
        c.rob_entries = SimConfig::MAX_WINDOW_SPAN - 1;
        assert!(c.validate().is_ok());
    }
}
