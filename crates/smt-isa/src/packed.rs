//! The 16-byte instruction record the trace store keeps and fetch reads.
//!
//! A trace record's hot core (pc, dependences, class/flags) is touched by
//! fetch, dispatch and every policy's fetch notification, while its cold
//! payload (a load/store address or a branch target) is read at most once
//! per instruction. [`PackedInst`] is that hot core; the payload lives in
//! a sidecar lane owned by the trace store, linked through the
//! [`PackedInst::aux`] index.

use crate::inst::{BranchKind, InstClass};
use crate::RegClass;

// Bit layout of `PackedInst::meta` (10 bits used).
const CLASS_MASK: u16 = 0b111; // bits 0..=2: InstClass::ALL index
const DEST_SHIFT: u16 = 3; // bits 3..=4: 0 none, 1 int, 2 fp
const DEST_MASK: u16 = 0b11;
const HAS_MEM: u16 = 1 << 5;
const HAS_BRANCH: u16 = 1 << 6;
const KIND_SHIFT: u16 = 7; // bits 7..=8: BranchKind code
const KIND_MASK: u16 = 0b11;
const TAKEN: u16 = 1 << 9;

impl InstClass {
    /// Dense code of this class: its index in [`InstClass::ALL`].
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            InstClass::IntAlu => 0,
            InstClass::IntMul => 1,
            InstClass::FpAlu => 2,
            InstClass::FpMul => 3,
            InstClass::FpDiv => 4,
            InstClass::Load => 5,
            InstClass::Store => 6,
            InstClass::Branch => 7,
        }
    }

    /// Inverse of [`InstClass::code`].
    ///
    /// # Panics
    ///
    /// Panics if `code >= 8`.
    #[inline]
    pub fn from_code(code: u8) -> InstClass {
        InstClass::ALL[usize::from(code)]
    }
}

#[inline]
fn kind_code(kind: BranchKind) -> u16 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
    }
}

#[inline]
fn kind_from_code(code: u16) -> BranchKind {
    match code & KIND_MASK {
        0 => BranchKind::Conditional,
        1 => BranchKind::Jump,
        2 => BranchKind::Call,
        _ => BranchKind::Return,
    }
}

/// One instruction of a generated trace: the 16-byte record the trace
/// store keeps and the fetch stage reads.
///
/// Dependences are *distances*: `d` in a slot means "this instruction
/// reads the value produced by the instruction `d` positions earlier in
/// the same thread's stream", and `0` means no dependence in that slot
/// (the first slot is filled first). Short distances mean long dependence
/// chains (low ILP), long ones independent work (high ILP). The `meta`
/// word bit-packs the class, the destination register class, the
/// mem/branch payload presence flags and, for branches, the kind and
/// actual direction, so the hot path answers "is this a taken call?"
/// without touching the payload. `aux` is the record's index into its
/// block's sidecar payload lane (a load/store address *or* a branch
/// target; no instruction carries both).
///
/// # Examples
///
/// ```
/// use smt_isa::{BranchKind, InstClass, PackedInst, RegClass};
///
/// let p = PackedInst::new(0x40, InstClass::IntAlu, Some(RegClass::Int), [3, 0], None);
/// assert_eq!(p.class(), InstClass::IntAlu);
/// assert_eq!(p.dep_dists(), [3, 0]);
/// assert!(!p.has_mem() && !p.has_branch());
///
/// let call = PackedInst::new(0x80, InstClass::Branch, None, [0; 2], Some((BranchKind::Call, true)));
/// assert!(call.touches_ras() && call.taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedInst {
    /// Program counter.
    pub pc: u64,
    /// Dependence distances (0 = no dependence in that slot).
    dep: [u16; 2],
    /// Bit-packed class / dest / presence flags / branch kind+direction.
    meta: u16,
    /// Index into the owning block's sidecar payload lane.
    aux: u16,
}

// The trace store's economics assume 16-byte records (hot replay-ring
// traffic); every build, release included, evaluates this pin.
const _: () = assert!(
    std::mem::size_of::<PackedInst>() <= 16,
    "PackedInst must stay a 16-byte record"
);

impl PackedInst {
    /// An inert filler for unoccupied ring slots — never observable
    /// through a bounds-guarded ring interface.
    pub fn placeholder() -> Self {
        PackedInst {
            pc: 0,
            dep: [0; 2],
            meta: 0,
            aux: 0,
        }
    }

    /// The record of one instruction at `pc`: its class, the register
    /// class it writes, its two dependence distances and, for a branch,
    /// its kind and actual direction. Loads and stores are flagged as
    /// carrying a memory payload and branches a branch payload; the
    /// payload itself goes in the trace store's sidecar lane, at the index
    /// [`PackedInst::with_aux`] sets (0 here).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `branch` is given for a non-branch class or
    /// missing for a branch, or if the second dependence slot is set while
    /// the first is empty.
    #[inline]
    pub fn new(
        pc: u64,
        class: InstClass,
        dest: Option<RegClass>,
        dep: [u16; 2],
        branch: Option<(BranchKind, bool)>,
    ) -> Self {
        debug_assert_eq!(
            branch.is_some(),
            class == InstClass::Branch,
            "branch bits on a {class} record"
        );
        debug_assert!(
            dep[0] != 0 || dep[1] == 0,
            "second dependence without a first"
        );
        let mut meta = u16::from(class.code());
        meta |= match dest {
            None => 0,
            Some(RegClass::Int) => 1 << DEST_SHIFT,
            Some(RegClass::Fp) => 2 << DEST_SHIFT,
        };
        if class.is_mem() {
            meta |= HAS_MEM;
        }
        if let Some((kind, taken)) = branch {
            meta |= HAS_BRANCH | (kind_code(kind) << KIND_SHIFT);
            if taken {
                meta |= TAKEN;
            }
        }
        PackedInst {
            pc,
            dep,
            meta,
            aux: 0,
        }
    }

    /// This record, pointing at entry `aux` of its block's sidecar lane.
    #[inline]
    pub fn with_aux(self, aux: u16) -> Self {
        PackedInst { aux, ..self }
    }

    /// Functional class.
    #[inline]
    pub fn class(&self) -> InstClass {
        InstClass::from_code((self.meta & CLASS_MASK) as u8)
    }

    /// Register class written by this instruction, if any.
    #[inline]
    pub fn dest(&self) -> Option<RegClass> {
        match (self.meta >> DEST_SHIFT) & DEST_MASK {
            0 => None,
            1 => Some(RegClass::Int),
            _ => Some(RegClass::Fp),
        }
    }

    /// Dependence distances (0 = no dependence in that slot).
    #[inline]
    pub fn dep_dists(&self) -> [u16; 2] {
        self.dep
    }

    /// `true` if the record carries a memory payload (a load or store
    /// address) in its sidecar lane.
    #[inline]
    pub fn has_mem(&self) -> bool {
        self.meta & HAS_MEM != 0
    }

    /// `true` if the record carries a branch payload (its target) in its
    /// sidecar lane.
    #[inline]
    pub fn has_branch(&self) -> bool {
        self.meta & HAS_BRANCH != 0
    }

    /// Kind of control-flow transfer, for branch records.
    #[inline]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        self.has_branch()
            .then(|| kind_from_code(self.meta >> KIND_SHIFT))
    }

    /// Actual branch direction (meaningless for non-branches).
    #[inline]
    pub fn taken(&self) -> bool {
        self.meta & TAKEN != 0
    }

    /// `true` if the instruction pushes or pops the return-address stack
    /// (calls and returns).
    #[inline]
    pub fn touches_ras(&self) -> bool {
        matches!(
            self.branch_kind(),
            Some(BranchKind::Call) | Some(BranchKind::Return)
        )
    }

    /// Index of this record's payload in its block's sidecar lane.
    #[inline]
    pub fn aux(&self) -> u16 {
        self.aux
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codes_round_trip() {
        for (i, c) in InstClass::ALL.iter().enumerate() {
            assert_eq!(usize::from(c.code()), i);
            assert_eq!(InstClass::from_code(c.code()), *c);
        }
    }

    #[test]
    fn packs_and_unpacks_an_alu_op() {
        let p = PackedInst::new(
            0x1234,
            InstClass::IntMul,
            Some(RegClass::Int),
            [7, 512],
            None,
        )
        .with_aux(9);
        assert_eq!(p.pc, 0x1234);
        assert_eq!(p.class(), InstClass::IntMul);
        assert_eq!(p.dest(), Some(RegClass::Int));
        assert_eq!(p.dep_dists(), [7, 512]);
        assert_eq!(p.aux(), 9);
        assert!(!p.has_mem() && !p.has_branch() && !p.taken());
    }

    #[test]
    fn packs_and_unpacks_a_load() {
        let p = PackedInst::new(0x40, InstClass::Load, Some(RegClass::Fp), [3, 0], None);
        assert!(p.has_mem() && !p.has_branch());
        assert_eq!(p.dest(), Some(RegClass::Fp));
        assert_eq!(p.dep_dists(), [3, 0]);
        assert_eq!(p.aux(), 0);
    }

    #[test]
    fn packs_and_unpacks_every_branch_kind() {
        for (kind, taken) in [
            (BranchKind::Conditional, false),
            (BranchKind::Conditional, true),
            (BranchKind::Jump, true),
            (BranchKind::Call, true),
            (BranchKind::Return, true),
        ] {
            let p = PackedInst::new(0x80, InstClass::Branch, None, [1, 0], Some((kind, taken)));
            assert!(p.has_branch() && !p.has_mem());
            assert_eq!(p.branch_kind(), Some(kind));
            assert_eq!(p.taken(), taken);
            assert_eq!(
                p.touches_ras(),
                matches!(kind, BranchKind::Call | BranchKind::Return)
            );
        }
    }

    #[test]
    fn placeholder_is_inert() {
        let p = PackedInst::placeholder();
        assert_eq!(p.class(), InstClass::IntAlu);
        assert_eq!(p.dest(), None);
        assert!(!p.has_mem() && !p.has_branch());
        assert_eq!(p.branch_kind(), None);
    }
}
