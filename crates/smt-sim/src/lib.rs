//! Cycle-level SMT processor simulator for the DCRA reproduction.
//!
//! This crate models the machine of the paper's Table 2: an 8-wide SMT
//! processor with three shared 80-entry issue queues, shared physical
//! register files, a shared 512-entry ROB, a gshare front end and a
//! two-level cache hierarchy. Resource arbitration between threads is
//! delegated to a [`policy::Policy`] — the extension point where the
//! paper's fetch policies (ICOUNT, STALL, FLUSH, FLUSH++, DG, PDG) and
//! allocation policies (SRA, DCRA) plug in.
//!
//! # Architecture
//!
//! * [`SimConfig`] — machine description (Table 2 defaults).
//! * [`Simulator`] — the staged cycle loop: fetch → decode/rename → issue
//!   → execute → commit, with squash/replay on branch mispredictions and
//!   policy-initiated flushes. Each stage lives in its own module of the
//!   `core/` tree and processes per-thread bursts (see `ARCHITECTURE.md`
//!   at the repository root for the module map and batching invariants).
//! * [`policy`] — the policy interface and per-cycle machine view.
//! * [`SimResult`]/[`ThreadStats`] — per-run statistics (IPC, front-end
//!   activity, memory-level parallelism, the slow/fast phase mix, ...).
//! * [`StageProfile`] — per-stage wall-clock attribution for perf
//!   tracking.
//!
//! # Examples
//!
//! ```
//! use smt_sim::{SimConfig, Simulator};
//! use smt_sim::policy::RoundRobin;
//! use smt_workloads::spec;
//!
//! let profiles = [spec::profile("gzip").unwrap(), spec::profile("mcf").unwrap()];
//! let mut sim = Simulator::new(
//!     SimConfig::baseline(2),
//!     &profiles,
//!     RoundRobin::default(),
//!     1,
//! );
//! sim.run_cycles(10_000);
//! println!("throughput = {:.2} IPC", sim.result().throughput());
//! ```

#![warn(missing_docs)]

mod config;
mod core;
mod inst;
pub mod policy;
mod stats;
mod thread;

pub use config::SimConfig;
pub use core::{Simulator, StageProfile};
pub use stats::{SimResult, ThreadStats};
