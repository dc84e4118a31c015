//! The paper's baseline SMT fetch and allocation policies.
//!
//! Every policy the evaluation compares DCRA against (Sections 2 and 5):
//!
//! | Policy | Kind | Input information | Response action |
//! |--------|------|-------------------|-----------------|
//! | [`Icount`] | fetch | pre-issue instruction counts | fetch priority |
//! | [`Stall`] | fetch | detected L2 misses | fetch stall |
//! | [`Flush`] | fetch | detected L2 misses | squash + stall |
//! | [`FlushPlusPlus`] | fetch | L2 miss *rates* | STALL↔FLUSH switch |
//! | [`DataGating`] | fetch | pending L1 data misses | fetch stall |
//! | [`PredictiveDataGating`] | fetch | *predicted* L1 misses | fetch stall |
//! | [`StaticAllocation`] | allocation | per-thread usage counters | hard partition |
//!
//! (`ROUND-ROBIN` lives in [`smt_policy_core::RoundRobin`]; the paper's
//! contribution, DCRA, lives in the `dcra` crate.)
//!
//! # Examples
//!
//! ```
//! use smt_policies::Icount;
//! use smt_sim::{SimConfig, Simulator};
//! use smt_workloads::spec;
//!
//! let profiles = [spec::profile("gzip").unwrap(), spec::profile("twolf").unwrap()];
//! let mut sim = Simulator::new(SimConfig::baseline(2), &profiles,
//!                              Icount, 1);
//! sim.run_cycles(5_000);
//! ```

#![warn(missing_docs)]

mod dg;
mod flush;
mod flushpp;
mod icount;
mod pdg;
mod sra;
mod stall;

pub use dg::DataGating;
pub use flush::Flush;
pub use flushpp::FlushPlusPlus;
pub use icount::{icount_order, icount_order_into, Icount};
pub use pdg::PredictiveDataGating;
pub use sra::StaticAllocation;
pub use stall::Stall;
