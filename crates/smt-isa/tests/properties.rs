//! Property-based tests of the instruction/resource vocabulary.

use proptest::prelude::*;
use smt_isa::{
    BranchKind, InstClass, PackedInst, PerResource, QueueKind, RegClass, ResourceKind, ThreadId,
};

fn any_class() -> impl Strategy<Value = InstClass> {
    (0..InstClass::ALL.len()).prop_map(|i| InstClass::ALL[i])
}

/// Every branch kind.
const KINDS: [BranchKind; 4] = [
    BranchKind::Conditional,
    BranchKind::Jump,
    BranchKind::Call,
    BranchKind::Return,
];

/// `PackedInst::meta` as its layout documents it, built from literal bit
/// positions: the class code in bits 0–2, the destination (0 none, 1 int,
/// 2 fp) in bits 3–4, the memory and branch payload flags in bits 5 and
/// 6, the branch kind code in bits 7–8 and the direction in bit 9.
fn documented_meta(
    class: InstClass,
    dest: Option<RegClass>,
    branch: Option<(BranchKind, bool)>,
) -> u16 {
    let dest = match dest {
        None => 0,
        Some(RegClass::Int) => 1,
        Some(RegClass::Fp) => 2,
    };
    let mut meta = u16::from(class.code()) | dest << 3 | u16::from(class.is_mem()) << 5;
    if let Some((kind, taken)) = branch {
        let code = match kind {
            BranchKind::Conditional => 0,
            BranchKind::Jump => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
        };
        meta |= 1 << 6 | code << 7 | u16::from(taken) << 9;
    }
    meta
}

/// The `Debug` form of a packed record with these private fields.
fn debug_fields(pc: u64, dep: [u16; 2], meta: u16, aux: u16) -> String {
    format!("PackedInst {{ pc: {pc}, dep: {dep:?}, meta: {meta}, aux: {aux} }}")
}

proptest! {
    /// Queue and resource mappings are total and consistent: every class
    /// maps to a queue whose resource is a queue resource.
    #[test]
    fn class_queue_resource_consistency(class in any_class()) {
        let q = class.queue();
        let r = q.resource();
        prop_assert!(r.is_queue());
        // FP classes go to the FP queue, memory classes to the LSQ.
        if class.is_fp() {
            prop_assert_eq!(q, QueueKind::Fp);
        }
        if class.is_mem() {
            prop_assert_eq!(q, QueueKind::LoadStore);
        }
    }

    /// PerResource is a faithful dense map over ResourceKind.
    #[test]
    fn per_resource_is_a_dense_map(vals in proptest::collection::vec(0u32..1000, 5)) {
        let mut t = PerResource::<u32>::default();
        for (kind, v) in ResourceKind::ALL.iter().zip(&vals) {
            t[*kind] = *v;
        }
        for (kind, v) in ResourceKind::ALL.iter().zip(&vals) {
            prop_assert_eq!(t[*kind], *v);
        }
        let collected: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        prop_assert_eq!(collected, vals);
    }

    /// ThreadId round trips through its index for the supported range.
    #[test]
    fn thread_id_round_trip(i in 0usize..ThreadId::MAX_THREADS) {
        prop_assert_eq!(ThreadId::new(i).index(), i);
    }

    /// The packed constructor and its accessors agree for every class,
    /// every destination, dependence pairs with and without a second slot
    /// (and none), every branch kind and both directions: each accessor
    /// returns what was packed, and the `meta` word holds the documented
    /// bit layout, which one fixed record pins by value.
    #[test]
    fn packed_constructor_round_trips_through_accessors(
        pc in 0u64..u64::MAX,
        d1 in 1u16..u16::MAX,
        d2 in 1u16..u16::MAX,
        aux: u16
    ) {
        // 7 (branch) | 1 << 6 (branch payload) | 3 << 7 (return) | 1 << 9 (taken)
        let ret = Some((BranchKind::Return, true));
        let fixed = PackedInst::new(0x1000, InstClass::Branch, None, [5, 0], ret).with_aux(3);
        prop_assert_eq!(format!("{fixed:?}"), debug_fields(0x1000, [5, 0], 967, 3));
        let dests = [None, Some(RegClass::Int), Some(RegClass::Fp)];
        for class in InstClass::ALL {
            let branches: Vec<Option<(BranchKind, bool)>> = if class == InstClass::Branch {
                KINDS.iter().flat_map(|&k| [Some((k, false)), Some((k, true))]).collect()
            } else {
                vec![None]
            };
            for (dest, branch) in dests.iter().flat_map(|&d| branches.iter().map(move |&b| (d, b))) {
                for dep in [[d1, d2], [d1, 0], [0, 0]] {
                    let p = PackedInst::new(pc, class, dest, dep, branch).with_aux(aux);
                    prop_assert_eq!(p.pc, pc);
                    prop_assert_eq!(p.class(), class);
                    prop_assert_eq!(p.dest(), dest);
                    prop_assert_eq!(p.dep_dists(), dep);
                    prop_assert_eq!(p.aux(), aux);
                    prop_assert_eq!(p.has_mem(), class.is_mem());
                    prop_assert_eq!(p.has_branch(), branch.is_some());
                    prop_assert_eq!(p.branch_kind(), branch.map(|(k, _)| k));
                    prop_assert_eq!(p.taken(), branch.is_some_and(|(_, t)| t));
                    prop_assert_eq!(
                        p.touches_ras(),
                        matches!(branch, Some((BranchKind::Call | BranchKind::Return, _)))
                    );
                    let meta = documented_meta(class, dest, branch);
                    prop_assert_eq!(format!("{p:?}"), debug_fields(pc, dep, meta, aux));
                }
            }
        }
    }
}
