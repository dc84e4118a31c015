//! Decoded-instruction records produced by the trace generators.

use crate::{QueueKind, RegClass};
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

/// Control-flow information attached to a [`DecodedInst`] of class
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

/// Memory access information attached to a [`DecodedInst`] of class
/// [`InstClass::Load`] or [`InstClass::Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Effective virtual address.
    pub addr: u64,
    /// Access size in bytes (informational; the caches operate on lines).
    pub size: u8,
}

/// One dynamic instruction as produced by a trace generator.
///
/// Dependences are encoded as *distances*: `dep(d)` means "this instruction
/// reads the value produced by the instruction `d` positions earlier in the
/// same thread's dynamic stream". Distances express the ILP structure of the
/// workload — short distances mean long dependence chains (low ILP), long
/// distances mean independent work (high ILP).
///
/// # Examples
///
/// ```
/// use smt_isa::{DecodedInst, InstClass, RegClass};
///
/// let inst = DecodedInst::builder(InstClass::IntAlu, 0x1000)
///     .dest(RegClass::Int)
///     .dep(1)
///     .build();
/// assert_eq!(inst.class, InstClass::IntAlu);
/// assert_eq!(inst.deps(), [Some(1), None]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedInst {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Functional class.
    pub class: InstClass,
    /// Register class written by this instruction, if any. Loads may write
    /// either file (integer loads vs FP loads).
    pub dest: Option<RegClass>,
    /// Dependence distances to up to two producer instructions (0 = none).
    dep_dist: [u32; 2],
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Control-flow information, for branches.
    pub branch: Option<BranchInfo>,
}

impl DecodedInst {
    /// An inert filler for unoccupied replay-ring slots — never observable
    /// through the bounds-guarded ring interface.
    pub fn placeholder() -> Self {
        DecodedInst {
            pc: 0,
            class: InstClass::IntAlu,
            dest: None,
            dep_dist: [0; 2],
            mem: None,
            branch: None,
        }
    }

    /// Starts building a decoded instruction of the given class at `pc`.
    pub fn builder(class: InstClass, pc: u64) -> DecodedInstBuilder {
        DecodedInstBuilder {
            inst: DecodedInst {
                pc,
                class,
                dest: None,
                dep_dist: [0; 2],
                mem: None,
                branch: None,
            },
        }
    }

    /// Dependence distances as options (`None` = no dependence in that slot).
    #[inline]
    pub fn deps(&self) -> [Option<u32>; 2] {
        [
            (self.dep_dist[0] != 0).then_some(self.dep_dist[0]),
            (self.dep_dist[1] != 0).then_some(self.dep_dist[1]),
        ]
    }

    /// `true` if the instruction is a conditional branch.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(
            self.branch,
            Some(BranchInfo {
                kind: BranchKind::Conditional,
                ..
            })
        )
    }
}

/// Builder for [`DecodedInst`] (see [`DecodedInst::builder`]).
#[derive(Debug, Clone)]
pub struct DecodedInstBuilder {
    inst: DecodedInst,
}

impl DecodedInstBuilder {
    /// Sets the destination register class.
    pub fn dest(mut self, class: RegClass) -> Self {
        self.inst.dest = Some(class);
        self
    }

    /// Adds a dependence on the instruction `distance` positions earlier.
    ///
    /// At most two dependences are kept; additional calls overwrite the
    /// second slot. A distance of zero is ignored.
    pub fn dep(mut self, distance: u32) -> Self {
        if distance == 0 {
            return self;
        }
        if self.inst.dep_dist[0] == 0 {
            self.inst.dep_dist[0] = distance;
        } else {
            self.inst.dep_dist[1] = distance;
        }
        self
    }

    /// Attaches a memory access (loads and stores).
    pub fn mem(mut self, addr: u64, size: u8) -> Self {
        self.inst.mem = Some(MemAccess { addr, size });
        self
    }

    /// Attaches control-flow information (branches).
    pub fn branch(mut self, kind: BranchKind, taken: bool, target: u64) -> Self {
        self.inst.branch = Some(BranchInfo {
            kind,
            taken,
            target,
        });
        self
    }

    /// Finishes the instruction.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a memory class lacks a memory access or a
    /// branch class lacks branch info, which would indicate a generator bug.
    pub fn build(self) -> DecodedInst {
        debug_assert!(
            !self.inst.class.is_mem() || self.inst.mem.is_some(),
            "memory instruction without address"
        );
        debug_assert!(
            self.inst.class != InstClass::Branch || self.inst.branch.is_some(),
            "branch instruction without branch info"
        );
        self.inst
    }
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

    #[test]
    fn builder_collects_two_deps() {
        let i = DecodedInst::builder(InstClass::IntAlu, 0x40)
            .dest(RegClass::Int)
            .dep(3)
            .dep(7)
            .build();
        assert_eq!(i.deps(), [Some(3), Some(7)]);
    }

    #[test]
    fn builder_ignores_zero_dep() {
        let i = DecodedInst::builder(InstClass::IntAlu, 0x40).dep(0).build();
        assert_eq!(i.deps(), [None, None]);
    }

    #[test]
    fn builder_attaches_mem_and_branch() {
        let ld = DecodedInst::builder(InstClass::Load, 0x10)
            .dest(RegClass::Fp)
            .mem(0xdead_bee0, 8)
            .build();
        assert_eq!(ld.mem.unwrap().addr, 0xdead_bee0);
        assert_eq!(ld.dest, Some(RegClass::Fp));

        let br = DecodedInst::builder(InstClass::Branch, 0x20)
            .branch(BranchKind::Conditional, true, 0x80)
            .build();
        assert!(br.is_cond_branch());
        assert!(br.branch.unwrap().taken);
    }

    #[test]
    #[should_panic(expected = "memory instruction without address")]
    #[cfg(debug_assertions)]
    fn builder_rejects_addressless_load() {
        let _ = DecodedInst::builder(InstClass::Load, 0).build();
    }
}
