//! Instruction classes and the cold payloads of a trace record.

use crate::QueueKind;
use serde::{Deserialize, Serialize};

/// Functional class of an instruction.
///
/// The class determines the issue queue the instruction occupies, the
/// functional unit type it executes on and its execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstClass {
    /// Simple integer ALU operation (1-cycle).
    IntAlu,
    /// Integer multiply/divide-style long-latency operation.
    IntMul,
    /// Floating-point add/compare (pipelined).
    FpAlu,
    /// Floating-point multiply (pipelined).
    FpMul,
    /// Long-latency floating-point operation (divide/sqrt).
    FpDiv,
    /// Memory load; latency is determined by the cache hierarchy.
    Load,
    /// Memory store; address generation in the pipeline, data written at
    /// commit.
    Store,
    /// Control-flow instruction (conditional branch, call, return, jump).
    Branch,
}

impl InstClass {
    /// All instruction classes in a fixed order.
    pub const ALL: [InstClass; 8] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::FpAlu,
        InstClass::FpMul,
        InstClass::FpDiv,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
    ];

    /// The issue queue this class dispatches into.
    ///
    /// Integer operations and branches share the integer queue; FP operations
    /// use the FP queue; memory operations use the load/store queue. This
    /// mirrors the three 80-entry queues of the paper's baseline.
    #[inline]
    pub fn queue(self) -> QueueKind {
        match self {
            InstClass::IntAlu | InstClass::IntMul | InstClass::Branch => QueueKind::Int,
            InstClass::FpAlu | InstClass::FpMul | InstClass::FpDiv => QueueKind::Fp,
            InstClass::Load | InstClass::Store => QueueKind::LoadStore,
        }
    }

    /// Fixed execution latency in cycles for non-memory classes.
    ///
    /// Loads return their address-generation latency here; the cache
    /// hierarchy adds the access latency when the load issues.
    #[inline]
    pub fn exec_latency(self) -> u32 {
        match self {
            InstClass::IntAlu | InstClass::Branch | InstClass::Store => 1,
            InstClass::IntMul => 3,
            InstClass::FpAlu => 2,
            InstClass::FpMul => 4,
            InstClass::FpDiv => 12,
            InstClass::Load => 1,
        }
    }

    /// `true` for memory-accessing classes.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }

    /// `true` for floating-point classes.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, InstClass::FpAlu | InstClass::FpMul | InstClass::FpDiv)
    }
}

impl std::fmt::Display for InstClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InstClass::IntAlu => "int-alu",
            InstClass::IntMul => "int-mul",
            InstClass::FpAlu => "fp-alu",
            InstClass::FpMul => "fp-mul",
            InstClass::FpDiv => "fp-div",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Kind of control-flow transfer, used by the branch-prediction substrate to
/// choose between the direction predictor, the BTB and the RAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Conditional direct branch; direction predicted by gshare.
    Conditional,
    /// Unconditional direct jump; always taken, target from BTB.
    Jump,
    /// Function call; pushes the return address on the RAS.
    Call,
    /// Function return; target predicted by the RAS.
    Return,
}

/// Control-flow payload of an instruction of class
/// [`InstClass::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Kind of transfer.
    pub kind: BranchKind,
    /// Actual direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// Actual target address when taken.
    pub target: u64,
}

/// Memory payload of an instruction of class [`InstClass::Load`] or
/// [`InstClass::Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes (informational; the caches operate on lines).
    pub size: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_to_expected_queues() {
        assert_eq!(InstClass::IntAlu.queue(), QueueKind::Int);
        assert_eq!(InstClass::IntMul.queue(), QueueKind::Int);
        assert_eq!(InstClass::Branch.queue(), QueueKind::Int);
        assert_eq!(InstClass::FpAlu.queue(), QueueKind::Fp);
        assert_eq!(InstClass::FpMul.queue(), QueueKind::Fp);
        assert_eq!(InstClass::FpDiv.queue(), QueueKind::Fp);
        assert_eq!(InstClass::Load.queue(), QueueKind::LoadStore);
        assert_eq!(InstClass::Store.queue(), QueueKind::LoadStore);
    }

    #[test]
    fn latencies_are_positive() {
        for c in InstClass::ALL {
            assert!(c.exec_latency() >= 1, "{c} has zero latency");
        }
    }

    #[test]
    fn fp_and_mem_flags() {
        assert!(InstClass::FpDiv.is_fp());
        assert!(!InstClass::Load.is_fp());
        assert!(InstClass::Load.is_mem());
        assert!(InstClass::Store.is_mem());
        assert!(!InstClass::Branch.is_mem());
    }
}
