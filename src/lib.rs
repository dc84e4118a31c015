//! **dcra-smt** — a reproduction of *"Dynamically Controlled Resource
//! Allocation in SMT Processors"* (Cazorla, Ramirez, Valero & Fernández,
//! MICRO-37, 2004) as a Rust workspace: a cycle-level SMT simulator, the
//! DCRA allocation policy, every baseline fetch policy the paper compares
//! against, synthetic SPEC2000-like workloads, and experiment drivers that
//! regenerate every table and figure of the paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`isa`] — instruction/register/resource vocabulary.
//! * [`bpred`] — gshare + BTB + RAS front end.
//! * [`mem`] — cache hierarchy, MSHRs, TLBs.
//! * [`workloads`] — benchmark profiles, trace generators, Table-4
//!   workloads.
//! * [`policy_core`] — the `Policy` trait and per-cycle machine views.
//! * [`sim`] — the cycle-level SMT pipeline and the statically-dispatched
//!   `AnyPolicy` it runs.
//! * [`policies`] — ICOUNT, STALL, FLUSH, FLUSH++, DG, PDG, SRA.
//! * [`dcra`] — the paper's contribution.
//! * [`metrics`] — IPC throughput, Hmean, MLP, front-end activity.
//! * [`experiments`] — per-figure/table experiment drivers.
//!
//! # Quickstart
//!
//! ```
//! use dcra_smt::dcra::Dcra;
//! use dcra_smt::sim::{SimConfig, Simulator};
//! use dcra_smt::workloads::spec;
//!
//! // Run gzip (high-ILP) and mcf (memory-bound) together under DCRA.
//! let profiles = [spec::profile("gzip").unwrap(), spec::profile("mcf").unwrap()];
//! let mut sim = Simulator::new(
//!     SimConfig::baseline(2),
//!     &profiles,
//!     Dcra::default(), // statically dispatched via AnyPolicy
//!     42,
//! );
//! sim.run_cycles(20_000);
//! let result = sim.result();
//! println!("throughput = {:.2} IPC", result.throughput());
//! assert!(result.total_committed() > 0);
//! ```

#![warn(missing_docs)]

pub use dcra;
pub use smt_bpred as bpred;
pub use smt_experiments as experiments;
pub use smt_isa as isa;
pub use smt_mem as mem;
pub use smt_metrics as metrics;
pub use smt_policies as policies;
pub use smt_policy_core as policy_core;
pub use smt_sim as sim;
pub use smt_workloads as workloads;

/// The Rust blocks of `README.md`, compiled and run as doctests so the
/// library snippet there cannot go stale.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
