//! Policy-timing knobs shared across the workspace.
//!
//! Each value is defined once here and read by the crate that implements
//! the mechanism (`dcra`, `smt-policies`, `smt-mem`) and by the
//! adversarial scenario generator in `smt-workloads`, which times its
//! antagonists against them: loads stalling just under the STALL/FLUSH
//! trigger latency, phase flips paced at FLUSH++'s pressure window, FP
//! bursts spaced past DCRA's activity window.

/// Cycles DCRA's per-thread FP activity counter decays from after each FP
/// allocation: the window within which a thread is considered FP-active
/// (Section 3.4, chosen from a 64–8192 sweep).
pub const DCRA_ACTIVITY_WINDOW: u32 = 256;

/// Cycle period at which FLUSH++ re-evaluates its memory-pressure
/// classification.
pub const FLUSHPP_PRESSURE_WINDOW: u64 = 4096;

/// Baseline unified-L2 hit latency in cycles (Table 2): the delay after
/// issue at which a load that missed the L2 is detected and reported to
/// the policy, i.e. the trigger threshold of the STALL/FLUSH family.
pub const L2_DETECT_DELAY: u32 = 20;
