//! Property-based tests of the DCRA sharing model's invariants.

use dcra::{allocation_table, slow_share, SharingFactor};
use proptest::prelude::*;

fn factors() -> impl Strategy<Value = SharingFactor> {
    prop_oneof![
        Just(SharingFactor::Inverse),
        Just(SharingFactor::InversePlus4),
        Just(SharingFactor::Zero),
    ]
}

proptest! {
    /// The slow share never exceeds the resource total and never drops
    /// below the even share of the active threads (slow threads *borrow*,
    /// they never lend).
    #[test]
    fn slow_share_is_bounded(
        total in 1u32..1024,
        fa in 0u32..8,
        sa in 1u32..8,
        factor in factors(),
    ) {
        let share = slow_share(total, fa, sa, factor);
        prop_assert!(share <= total);
        let even = total / (fa + sa);
        prop_assert!(
            share + 1 >= even,
            "share {share} below even split {even} (total={total}, FA={fa}, SA={sa})"
        );
    }

    /// With no fast threads the slow threads split the resource evenly
    /// (nobody can lend anything).
    #[test]
    fn no_fast_threads_means_even_split(total in 1u32..1024, sa in 1u32..8, factor in factors()) {
        let share = slow_share(total, 0, sa, factor);
        let even = (f64::from(total) / f64::from(sa)).round() as u32;
        prop_assert_eq!(share, even);
    }

    /// The total claimable by all slow threads plus one entry per fast
    /// thread never collapses to zero: fast threads always retain at least
    /// the leftovers, and E_slow·SA cannot exceed the total by more than
    /// rounding (paper's model leaves fast threads R − SA·E_slow).
    #[test]
    fn slow_claims_leave_room(total in 8u32..1024, fa in 1u32..5, sa in 1u32..5, factor in factors()) {
        let share = slow_share(total, fa, sa, factor);
        // rounding may slightly exceed the exact model; allow SA slack
        prop_assert!(share * sa <= total + sa, "slow threads claim {} of {total}", share * sa);
    }

    /// More fast active threads never *reduce* a slow thread's entitlement
    /// for `C = 1/A` at fixed total and SA... not monotone in general, but
    /// the entitlement always stays >= the even split of the same
    /// configuration — the property the paper's Table 1 illustrates.
    #[test]
    fn entitlement_at_least_even_share(total in 8u32..512, fa in 0u32..6, sa in 1u32..6) {
        let share = slow_share(total, fa, sa, SharingFactor::Inverse);
        let even = f64::from(total) / f64::from(fa + sa);
        prop_assert!(f64::from(share) + 1.0 >= even);
    }

    /// The allocation table enumerates exactly the (FA, SA) pairs with
    /// SA >= 1 and FA + SA <= T, each exactly once.
    #[test]
    fn allocation_table_is_complete(total in 8u32..256, threads in 1u32..6, factor in factors()) {
        let table = allocation_table(total, threads, factor);
        let expected: usize = (1..=threads).map(|a| a as usize).sum();
        prop_assert_eq!(table.len(), expected);
        let mut seen = std::collections::BTreeSet::new();
        for row in &table {
            prop_assert!(row.slow_active >= 1);
            prop_assert!(row.fast_active + row.slow_active <= threads);
            prop_assert!(seen.insert((row.fast_active, row.slow_active)));
            prop_assert_eq!(
                row.e_slow,
                slow_share(total, row.fast_active, row.slow_active, factor)
            );
        }
    }
}
