//! Synthetic workload substrate for the DCRA-SMT reproduction.
//!
//! The paper drives its simulator with Alpha traces of the SPEC2000 suite
//! (300M-instruction representative segments). Those traces are proprietary,
//! so this crate substitutes **statistical trace generators**: each of the
//! paper's 20 benchmarks is described by a [`BenchmarkProfile`] (instruction
//! mix, dependence-distance distribution, nested working sets, branch-site
//! behaviour, memory/compute phase alternation) and a [`TraceGenerator`]
//! expands a profile into a deterministic, infinite stream of
//! [`smt_isa::DecodedInst`]. The generated address and branch streams drive
//! the *real* cache and predictor substrates, so miss rates and
//! mispredictions are produced by the modelled hardware, not sampled.
//!
//! # Calibration methodology
//!
//! Profiles are calibrated so single-threaded runs reproduce the paper's
//! Table 3 (the L2 miss rate and the MEM/ILP split). The memory model that
//! makes this calibration *direct* has three parts:
//!
//! * a **hot** region that stays L1-resident (the bulk of accesses),
//! * a **warm** region built as an L1 *conflict set* — 4 tags per L1 set,
//!   so every warm access misses the 2-way L1 by construction and hits the
//!   L2 once warm; its touches mix short and long reuse distances so L2
//!   residency degrades gradually under co-runner pressure,
//! * a **cold** region far larger than the L2, whose accesses miss both
//!   levels (streamed or pointer-chased per benchmark).
//!
//! With this structure the profile's `warm_frac`/`cold_frac` map almost
//! one-to-one onto the measured L1 miss rate and L2 miss rate, and the
//! `pointer_chase` knob controls memory-level parallelism (mcf's serial
//! misses vs art/swim's independent ones). Phase alternation concentrates
//! the misses into memory phases so the paper's fast/slow classification
//! has something to classify (Table 5).
//!
//! # Examples
//!
//! ```
//! use smt_workloads::{spec, TraceGenerator};
//!
//! let profile = spec::profile("mcf").expect("known benchmark");
//! let mut generator = TraceGenerator::new(profile, 42, 0);
//! let inst = generator.next_inst();
//! assert!(inst.pc > 0);
//! ```

#![warn(missing_docs)]

mod generator;
mod profile;
pub mod spec;
mod store;
mod workload;

pub use generator::TraceGenerator;
pub use profile::{
    BenchmarkProfile, BenchmarkProfileBuilder, BranchBehavior, InstMix, MemBehavior, PhaseBehavior,
    ProfileError, Suite,
};
pub use store::{ThreadTrace, TraceRecord, MAX_PREFIX_BLOCKS, TRACE_BLOCK};
pub use workload::{table4_workloads, workloads_of, Workload, WorkloadType};
