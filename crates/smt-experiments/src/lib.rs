//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section 5), plus the calibration tables of Section 4.
//!
//! Each paper artefact has a module with a `run(...)` entry point returning
//! a structured result and a formatted text table; the `bin/` targets print
//! them. The two studies ([`ablation`], [`partitioning`]) are lists of
//! labelled policies that [`sweep::run_study`] runs.
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`fig2`] | Fig. 2 — single-thread speed vs resource share (perfect DL1) |
//! | [`table1`] | Table 1 — pre-computed DCRA allocations |
//! | [`table3`] | Table 3 — per-benchmark L2 miss rates (calibration) |
//! | `table4` (bin) | Table 4 — the 36 multiprogrammed workloads |
//! | [`table5`] | Table 5 — phase distribution of 2-thread workloads |
//! | [`fig4`] | Fig. 4 — DCRA vs static allocation (throughput/Hmean) |
//! | [`fig5`] | Fig. 5 — DCRA vs ICOUNT/DG/FLUSH++ |
//! | [`fig6`] | Fig. 6 — register-file size sensitivity |
//! | [`fig7`] | Fig. 7 — memory-latency sensitivity |
//! | [`extra`] | §5.2 — front-end activity and memory parallelism |
//! | [`ablation`] | design-choice ablations (activity window, sharing factor, DCRA-DC) |
//! | [`partitioning`] | §5.1 partial static partitioning vs dynamic allocation |

#![warn(missing_docs)]
#![deny(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

pub mod ablation;
pub mod chaos;
pub mod extra;
pub mod fault;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod partitioning;
pub mod runner;
pub mod sweep;
pub mod table1;
pub mod table3;
pub mod table5;
pub mod tables;

pub use fault::{EngineReport, InjectedFault, RunError};
pub use runner::{PolicyKind, RunOutcome, RunSpec, RunStats, Runner, SimSession};
