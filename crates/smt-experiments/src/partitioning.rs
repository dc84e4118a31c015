//! Partial-partitioning study (the Section-5.1 discussion).
//!
//! The paper engages with Raasch & Reinhardt's finding that statically
//! partitioning the issue queues barely matters, and argues the win comes
//! from *dynamic, phase-aware* non-uniform allocation. This experiment
//! makes that discussion concrete: it statically partitions each subset of
//! the resource classes (none, queues only, registers only, both) and
//! compares against DCRA's dynamic allocation on the same workloads. Run
//! the list with [`crate::sweep::run_study`].

use crate::runner::PolicyKind;
use crate::sweep::STUDY_THREADS;
use smt_isa::{PerResource, ResourceKind};
use smt_sim::SimConfig;

/// Which resource classes a variant statically partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Nothing partitioned: fully shared pool under ICOUNT.
    None,
    /// Issue queues split `R/T`, registers shared.
    QueuesOnly,
    /// Registers split `R/T`, queues shared.
    RegistersOnly,
    /// Everything split `R/T` (the paper's SRA).
    All,
    /// DCRA's dynamic allocation, for reference.
    Dynamic,
}

impl Partition {
    /// All variants, in presentation order.
    pub const ALL: [Partition; 5] = [
        Partition::None,
        Partition::QueuesOnly,
        Partition::RegistersOnly,
        Partition::All,
        Partition::Dynamic,
    ];

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Partition::None => "shared (ICOUNT)",
            Partition::QueuesOnly => "partition IQs",
            Partition::RegistersOnly => "partition regs",
            Partition::All => "partition all (SRA)",
            Partition::Dynamic => "dynamic (DCRA)",
        }
    }

    /// The policy realising this variant on `config`'s machine. A
    /// partial variant splits its resources `R/T` over the machine's `T`
    /// contexts and caps the rest at their full totals, which leaves them
    /// shared; DCRA is tuned for the machine's memory latency.
    pub fn policy(self, config: &SimConfig) -> PolicyKind {
        let threads = config.threads as u32;
        let totals = config.resource_totals();
        let caps_for = |split: &[ResourceKind]| {
            PerResource(ResourceKind::ALL.map(|k| {
                Some(if split.contains(&k) {
                    (totals[k] / threads).max(1)
                } else {
                    totals[k]
                })
            }))
        };
        match self {
            Partition::None => PolicyKind::Icount,
            Partition::QueuesOnly => PolicyKind::SraCapped(caps_for(&[
                ResourceKind::IntQueue,
                ResourceKind::FpQueue,
                ResourceKind::LsQueue,
            ])),
            Partition::RegistersOnly => {
                PolicyKind::SraCapped(caps_for(&[ResourceKind::IntRegs, ResourceKind::FpRegs]))
            }
            Partition::All => PolicyKind::Sra,
            Partition::Dynamic => PolicyKind::dcra_for_latency(config.mem.memory_latency),
        }
    }
}

/// The labelled variants, in presentation order, on the
/// [`STUDY_THREADS`]-context baseline machine.
pub fn variants() -> Vec<(String, PolicyKind)> {
    let config = SimConfig::baseline(STUDY_THREADS);
    Partition::ALL
        .iter()
        .map(|p| (p.label().to_string(), p.policy(&config)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::study_workloads;
    use smt_policies::StaticAllocation;
    use smt_sim::policy::{CycleView, ThreadView};
    use smt_workloads::WorkloadType;

    #[test]
    fn variants_produce_distinct_policies() {
        let config = SimConfig::baseline(2);
        let kinds: Vec<PolicyKind> = Partition::ALL.iter().map(|p| p.policy(&config)).collect();
        assert_eq!(kinds[0].name(), "ICOUNT");
        assert_eq!(kinds[3].name(), "SRA");
        assert_eq!(kinds[4].name(), "DCRA");
    }

    #[test]
    fn partial_variants_leave_the_rest_shared() {
        // A `None` cap means the even split to `StaticAllocation`, so the
        // shared resources must be capped at their totals explicitly.
        let config = SimConfig::baseline(2);
        let totals = config.resource_totals();
        let view = CycleView::new(0, totals, &vec![ThreadView::default(); 2]);
        let cap = |p: Partition, k: ResourceKind| match p.policy(&config) {
            PolicyKind::SraCapped(caps) => StaticAllocation::with_caps(caps).cap(k, &view),
            other => panic!("{p:?} must be capped SRA, got {}", other.name()),
        };
        assert_eq!(
            cap(Partition::QueuesOnly, ResourceKind::IntRegs),
            totals[ResourceKind::IntRegs]
        );
        assert_eq!(
            cap(Partition::QueuesOnly, ResourceKind::IntQueue),
            totals[ResourceKind::IntQueue] / 2
        );
        assert_eq!(
            cap(Partition::RegistersOnly, ResourceKind::LsQueue),
            totals[ResourceKind::LsQueue]
        );
        assert_eq!(
            cap(Partition::RegistersOnly, ResourceKind::FpRegs),
            totals[ResourceKind::FpRegs] / 2
        );
    }

    #[test]
    fn study_covers_mix_and_mem() {
        let w = study_workloads();
        assert_eq!(w.len(), 8);
        assert!(w.iter().any(|w| w.kind == WorkloadType::Mix));
        assert!(w.iter().any(|w| w.kind == WorkloadType::Mem));
    }
}
