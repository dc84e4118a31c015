//! Instruction, register and resource model shared by every crate of the
//! DCRA-SMT reproduction.
//!
//! This crate is the *vocabulary* of the simulator: hardware thread
//! identifiers ([`ThreadId`]), instruction classes ([`InstClass`]), the
//! issue-queue each class occupies ([`QueueKind`]), the register classes
//! ([`RegClass`]), the five shared resources controlled by allocation
//! policies ([`ResourceKind`]) and the decoded-instruction record produced by
//! the trace generators ([`DecodedInst`]), together with its 16-byte packed
//! hot-path form ([`PackedInst`]).
//!
//! # Examples
//!
//! ```
//! use smt_isa::{InstClass, QueueKind, ResourceKind};
//!
//! assert_eq!(InstClass::Load.queue(), QueueKind::LoadStore);
//! assert_eq!(QueueKind::LoadStore.resource(), ResourceKind::LsQueue);
//! ```

#![warn(missing_docs)]

mod inst;
mod packed;
mod thread;

pub use inst::{BranchInfo, BranchKind, DecodedInst, DecodedInstBuilder, InstClass, MemAccess};
pub use packed::PackedInst;
pub use thread::ThreadId;

use serde::{Deserialize, Serialize};

/// Register classes of the modelled machine (integer and floating point).
///
/// The simulated processor has two physical register files, one per class,
/// exactly as the evaluated machine in the paper (Table 2: "Physical
/// Registers 352 (shared)" per file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RegClass {
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

impl RegClass {
    /// All register classes, in a fixed order usable for indexed storage.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Fp];

    /// Dense index of this class (0 = integer, 1 = floating point).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The rename-register resource backed by this register file.
    #[inline]
    pub fn resource(self) -> ResourceKind {
        match self {
            RegClass::Int => ResourceKind::IntRegs,
            RegClass::Fp => ResourceKind::FpRegs,
        }
    }
}

impl std::fmt::Display for RegClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegClass::Int => f.write_str("int"),
            RegClass::Fp => f.write_str("fp"),
        }
    }
}

/// The three issue queues of the modelled machine.
///
/// The paper's baseline (Table 2) has 80-entry integer, floating-point and
/// load/store queues, all shared between threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QueueKind {
    /// Integer issue queue (ALU, multiply, branches).
    Int,
    /// Floating-point issue queue.
    Fp,
    /// Load/store issue queue.
    LoadStore,
}

impl QueueKind {
    /// All queue kinds, in a fixed order usable for indexed storage.
    pub const ALL: [QueueKind; 3] = [QueueKind::Int, QueueKind::Fp, QueueKind::LoadStore];

    /// Dense index of this queue (0 = int, 1 = fp, 2 = load/store).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The [`ResourceKind`] occupied by instructions sitting in this queue.
    #[inline]
    pub fn resource(self) -> ResourceKind {
        match self {
            QueueKind::Int => ResourceKind::IntQueue,
            QueueKind::Fp => ResourceKind::FpQueue,
            QueueKind::LoadStore => ResourceKind::LsQueue,
        }
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueKind::Int => f.write_str("intq"),
            QueueKind::Fp => f.write_str("fpq"),
            QueueKind::LoadStore => f.write_str("lsq"),
        }
    }
}

/// The five shared resources directly controlled by allocation policies.
///
/// Section 3.4 of the paper: DCRA keeps one usage counter per thread for each
/// of the three issue queues and the two physical register files (plus two
/// activity counters and a pending L1-miss counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Integer issue-queue entries.
    IntQueue,
    /// Floating-point issue-queue entries.
    FpQueue,
    /// Load/store issue-queue entries.
    LsQueue,
    /// Integer rename (physical) registers.
    IntRegs,
    /// Floating-point rename (physical) registers.
    FpRegs,
}

impl ResourceKind {
    /// All controlled resources, in a fixed order usable for indexed storage.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::IntQueue,
        ResourceKind::FpQueue,
        ResourceKind::LsQueue,
        ResourceKind::IntRegs,
        ResourceKind::FpRegs,
    ];

    /// Number of controlled resource kinds.
    pub const COUNT: usize = 5;

    /// Dense index of this resource, matching the order of [`Self::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// `true` if this is one of the floating-point resources, for which the
    /// paper tracks per-thread activity (Section 3.1.2: integer programs are
    /// *inactive* for FP resources and donate their share).
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, ResourceKind::FpQueue | ResourceKind::FpRegs)
    }

    /// `true` if this resource is an issue queue (as opposed to a register
    /// file). Section 5.3 of the paper uses different sharing factors for
    /// queues and registers at a 500-cycle memory latency.
    #[inline]
    pub fn is_queue(self) -> bool {
        matches!(
            self,
            ResourceKind::IntQueue | ResourceKind::FpQueue | ResourceKind::LsQueue
        )
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::IntQueue => f.write_str("int-iq"),
            ResourceKind::FpQueue => f.write_str("fp-iq"),
            ResourceKind::LsQueue => f.write_str("ls-iq"),
            ResourceKind::IntRegs => f.write_str("int-regs"),
            ResourceKind::FpRegs => f.write_str("fp-regs"),
        }
    }
}

/// A per-resource table indexed by [`ResourceKind`].
///
/// Small convenience container so policies can keep one value per controlled
/// resource without hash maps on the cycle-critical path.
///
/// # Examples
///
/// ```
/// use smt_isa::{PerResource, ResourceKind};
///
/// let mut usage = PerResource::<u32>::default();
/// usage[ResourceKind::IntQueue] += 3;
/// assert_eq!(usage[ResourceKind::IntQueue], 3);
/// assert_eq!(usage[ResourceKind::FpQueue], 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerResource<T>(pub [T; ResourceKind::COUNT]);

impl<T> PerResource<T> {
    /// Creates a table with every entry set to `value`.
    pub fn filled(value: T) -> Self
    where
        T: Copy,
    {
        PerResource([value; ResourceKind::COUNT])
    }

    /// Iterates over `(kind, &value)` pairs in [`ResourceKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, &T)> {
        ResourceKind::ALL.iter().copied().zip(self.0.iter())
    }
}

impl<T> std::ops::Index<ResourceKind> for PerResource<T> {
    type Output = T;

    #[inline]
    fn index(&self, kind: ResourceKind) -> &T {
        &self.0[kind.index()]
    }
}

impl<T> std::ops::IndexMut<ResourceKind> for PerResource<T> {
    #[inline]
    fn index_mut(&mut self, kind: ResourceKind) -> &mut T {
        &mut self.0[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_class_indices_are_dense() {
        for (i, c) in RegClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn queue_kind_indices_are_dense() {
        for (i, q) in QueueKind::ALL.iter().enumerate() {
            assert_eq!(q.index(), i);
        }
    }

    #[test]
    fn resource_kind_indices_are_dense() {
        for (i, r) in ResourceKind::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(ResourceKind::ALL.len(), ResourceKind::COUNT);
    }

    #[test]
    fn queue_maps_to_matching_resource() {
        assert_eq!(QueueKind::Int.resource(), ResourceKind::IntQueue);
        assert_eq!(QueueKind::Fp.resource(), ResourceKind::FpQueue);
        assert_eq!(QueueKind::LoadStore.resource(), ResourceKind::LsQueue);
    }

    #[test]
    fn reg_class_maps_to_matching_resource() {
        assert_eq!(RegClass::Int.resource(), ResourceKind::IntRegs);
        assert_eq!(RegClass::Fp.resource(), ResourceKind::FpRegs);
    }

    #[test]
    fn fp_resources_are_flagged() {
        assert!(ResourceKind::FpQueue.is_fp());
        assert!(ResourceKind::FpRegs.is_fp());
        assert!(!ResourceKind::IntQueue.is_fp());
        assert!(!ResourceKind::LsQueue.is_fp());
        assert!(!ResourceKind::IntRegs.is_fp());
    }

    #[test]
    fn queue_resources_are_flagged() {
        let queues: Vec<_> = ResourceKind::ALL.iter().filter(|r| r.is_queue()).collect();
        assert_eq!(queues.len(), 3);
        assert!(!ResourceKind::IntRegs.is_queue());
        assert!(!ResourceKind::FpRegs.is_queue());
    }

    #[test]
    fn per_resource_indexing_round_trips() {
        let mut t = PerResource::<u32>::default();
        for (i, r) in ResourceKind::ALL.iter().enumerate() {
            t[*r] = i as u32 + 1;
        }
        for (i, r) in ResourceKind::ALL.iter().enumerate() {
            assert_eq!(t[*r], i as u32 + 1);
        }
        let collected: Vec<_> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(collected, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn displays_are_nonempty_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for r in ResourceKind::ALL {
            let s = r.to_string();
            assert!(!s.is_empty());
            assert!(seen.insert(s));
        }
    }
}
