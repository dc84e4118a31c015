//! **DCRA — Dynamically Controlled Resource Allocation** for SMT
//! processors, the contribution of Cazorla, Ramirez, Valero & Fernández
//! (MICRO-37, 2004).
//!
//! DCRA is an *allocation* policy: instead of inferring resource abuse from
//! indirect indicators and stalling/flushing threads (as fetch policies
//! do), it directly monitors per-thread resource usage and computes, every
//! cycle, how many entries of each shared resource every thread is entitled
//! to:
//!
//! 1. **Thread phase classification** (§3.1.1): a thread with pending L1
//!    data misses is *slow* (it will hold resources for a long time and
//!    needs more of them to expose memory parallelism); otherwise it is
//!    *fast* (it can run on a small, rapidly-cycling set of entries).
//! 2. **Resource usage classification** (§3.1.2): a thread that has not
//!    used a floating-point resource for 256 cycles is *inactive* for it
//!    and donates its entire share.
//! 3. **Sharing model** (§3.2): each slow-active thread may occupy
//!    `E_slow = R/(FA+SA) · (1 + C·FA)` entries of resource `R`, borrowing
//!    from the fast threads via the sharing factor `C`.
//! 4. **Enforcement** (§3.4): a slow thread exceeding its allocation is
//!    fetch-stalled until it drains below it; fast threads are
//!    unrestricted.
//!
//! §3.4 offers two hardware forms of the sharing model, a combinational
//! circuit and a read-only table. [`Dcra`] computes the circuit's values
//! ([`slow_share`]); [`allocation_table`] regenerates the table's contents
//! (the paper's Table 1). [`Dcra::with_degenerate_detection`] adds the
//! paper's future-work degenerate-case detection as a mask over the same
//! model.
//!
//! # Examples
//!
//! ```
//! use dcra::Dcra;
//! use smt_sim::{SimConfig, Simulator};
//! use smt_workloads::spec;
//!
//! let profiles = [spec::profile("gzip").unwrap(), spec::profile("mcf").unwrap()];
//! let mut sim = Simulator::new(SimConfig::baseline(2), &profiles,
//!                              Dcra::default(), 1);
//! sim.run_cycles(10_000);
//! assert_eq!(sim.policy_name(), "DCRA");
//! ```

#![warn(missing_docs)]

mod classify;
mod policy;
mod sharing;

pub use classify::{ActivityTracker, ThreadPhase};
pub use policy::{Dcra, DcraConfig};
pub use sharing::{allocation_table, slow_share, SharingConfig, SharingFactor, TableEntry};
