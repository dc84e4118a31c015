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

use smt_policy_core::Policy;

/// Builds a boxed policy by its paper name (`"RR"`, `"ICOUNT"`, `"STALL"`,
/// `"FLUSH"`, `"FLUSH++"`, `"DG"`, `"PDG"`, `"SRA"`). Returns `None` for
/// unknown names ("DCRA" is constructed from the `dcra` crate).
pub fn by_name(name: &str) -> Option<Box<dyn Policy>> {
    Some(match name {
        "RR" => Box::new(smt_policy_core::RoundRobin::default()),
        "ICOUNT" => Box::new(Icount),
        "STALL" => Box::new(Stall),
        "FLUSH" => Box::new(Flush),
        "FLUSH++" => Box::new(FlushPlusPlus::default()),
        "DG" => Box::new(DataGating),
        "PDG" => Box::new(PredictiveDataGating::default()),
        "SRA" => Box::new(StaticAllocation::default()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_builds_each_policy() {
        for n in [
            "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA",
        ] {
            let p = by_name(n).unwrap_or_else(|| panic!("missing {n}"));
            assert_eq!(p.name(), n);
        }
        assert!(by_name("NOPE").is_none());
    }
}
