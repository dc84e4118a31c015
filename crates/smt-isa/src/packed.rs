//! Compact packed instruction records for the hot fetch/replay path.
//!
//! A [`DecodedInst`] is ~64 bytes: two `Option` payloads ([`MemAccess`],
//! [`BranchInfo`]) dominate it, yet they are cold — the pipeline reads
//! them at most once per instruction (address generation, branch
//! prediction) while the 16-byte hot core (pc, dependences, class/flags)
//! is touched by fetch, dispatch and every policy's fetch notification.
//! [`PackedInst`] keeps exactly that hot core; the cold payloads move to
//! sidecar struct-of-arrays lanes owned by the trace store, linked through
//! the [`PackedInst::aux`] index.

use crate::inst::{BranchInfo, BranchKind, DecodedInst, InstClass, MemAccess};
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

/// The 16-byte hot core of a [`DecodedInst`].
///
/// Dependence distances are stored as `u16` deltas (`0` = no dependence —
/// the same sentinel [`DecodedInst`] uses internally, and unreachable as a
/// real distance because the builder drops zero distances). The `meta`
/// word bit-packs the class, destination-register presence/class, the
/// mem/branch payload presence flags and — for branches — the kind and
/// actual direction, so the hot path answers "is this a taken call?"
/// without touching the sidecar. `aux` is the record's index into its
/// block's sidecar lane (mem *or* branch payload; an instruction never
/// carries both in generated streams).
///
/// # Examples
///
/// ```
/// use smt_isa::{DecodedInst, InstClass, PackedInst, RegClass};
///
/// let d = DecodedInst::builder(InstClass::IntAlu, 0x40)
///     .dest(RegClass::Int)
///     .dep(3)
///     .build();
/// let p = PackedInst::pack(&d, 0);
/// assert_eq!(p.pc, 0x40);
/// assert_eq!(p.class(), InstClass::IntAlu);
/// assert_eq!(p.dep_dists(), [3, 0]);
/// assert_eq!(p.unpack(None, None), d);
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

    /// Packs the hot core of `decoded`, tagging it with the caller's
    /// sidecar index `aux`. The cold payloads (`decoded.mem`,
    /// `decoded.branch`) are *not* stored — the caller owns them in its
    /// sidecar lanes; only their presence is recorded.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a dependence distance exceeds `u16::MAX`.
    /// The trace generators clamp distances at 512, far below the limit.
    #[inline]
    pub fn pack(decoded: &DecodedInst, aux: u16) -> Self {
        let deps = decoded.deps();
        let dep = deps.map(|d| {
            let d = d.unwrap_or(0);
            debug_assert!(d <= u32::from(u16::MAX), "dependence distance {d} > u16");
            d as u16
        });
        let mut meta = u16::from(decoded.class.code());
        meta |= match decoded.dest {
            None => 0,
            Some(RegClass::Int) => 1 << DEST_SHIFT,
            Some(RegClass::Fp) => 2 << DEST_SHIFT,
        };
        if decoded.mem.is_some() {
            meta |= HAS_MEM;
        }
        if let Some(b) = decoded.branch {
            meta |= HAS_BRANCH | (kind_code(b.kind) << KIND_SHIFT);
            if b.taken {
                meta |= TAKEN;
            }
        }
        PackedInst {
            pc: decoded.pc,
            dep,
            meta,
            aux,
        }
    }

    /// Reconstructs the full [`DecodedInst`], re-attaching the cold
    /// payloads the caller fetched from its sidecar lanes. Exact inverse
    /// of [`PackedInst::pack`] for every builder-constructible record.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the supplied payloads disagree with the
    /// packed presence flags.
    #[inline]
    pub fn unpack(&self, mem: Option<MemAccess>, branch: Option<BranchInfo>) -> DecodedInst {
        debug_assert_eq!(self.has_mem(), mem.is_some(), "mem payload mismatch");
        debug_assert_eq!(
            self.has_branch(),
            branch.is_some(),
            "branch payload mismatch"
        );
        let mut b = DecodedInst::builder(self.class(), self.pc);
        if let Some(dest) = self.dest() {
            b = b.dest(dest);
        }
        for d in self.dep {
            b = b.dep(u32::from(d));
        }
        if let Some(m) = mem {
            b = b.mem(m.addr, m.size);
        }
        if let Some(br) = branch {
            b = b.branch(br.kind, br.taken, br.target);
        }
        b.build()
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

    /// `true` if the record carries a [`MemAccess`] payload in its
    /// sidecar lane.
    #[inline]
    pub fn has_mem(&self) -> bool {
        self.meta & HAS_MEM != 0
    }

    /// `true` if the record carries a [`BranchInfo`] payload in its
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

    /// `true` if the instruction is a conditional branch.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.branch_kind() == Some(BranchKind::Conditional)
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
        let d = DecodedInst::builder(InstClass::IntMul, 0x1234)
            .dest(RegClass::Int)
            .dep(7)
            .dep(512)
            .build();
        let p = PackedInst::pack(&d, 9);
        assert_eq!(p.class(), InstClass::IntMul);
        assert_eq!(p.dest(), Some(RegClass::Int));
        assert_eq!(p.dep_dists(), [7, 512]);
        assert_eq!(p.aux(), 9);
        assert!(!p.has_mem() && !p.has_branch() && !p.taken());
        assert_eq!(p.unpack(None, None), d);
    }

    #[test]
    fn packs_and_unpacks_a_load() {
        let d = DecodedInst::builder(InstClass::Load, 0x40)
            .dest(RegClass::Fp)
            .mem(0xdead_bee0, 8)
            .dep(3)
            .build();
        let p = PackedInst::pack(&d, 2);
        assert!(p.has_mem() && !p.has_branch());
        assert_eq!(p.dest(), Some(RegClass::Fp));
        assert_eq!(p.unpack(d.mem, None), d);
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
            let d = DecodedInst::builder(InstClass::Branch, 0x80)
                .branch(kind, taken, 0x100)
                .dep(1)
                .build();
            let p = PackedInst::pack(&d, 0);
            assert_eq!(p.branch_kind(), Some(kind));
            assert_eq!(p.taken(), taken);
            assert_eq!(
                p.touches_ras(),
                matches!(kind, BranchKind::Call | BranchKind::Return)
            );
            assert_eq!(
                p.is_cond_branch(),
                kind == BranchKind::Conditional,
                "{kind:?}"
            );
            assert_eq!(p.unpack(None, d.branch), d);
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
