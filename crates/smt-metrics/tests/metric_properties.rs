//! Property-based tests of the metric definitions.

use proptest::prelude::*;
use smt_metrics::{hmean, improvement_pct, speedups, throughput};

proptest! {
    /// Scaling all multi-thread IPCs by k scales Hmean and throughput by k.
    #[test]
    fn metrics_are_homogeneous(
        pairs in proptest::collection::vec((0.01f64..8.0, 0.1f64..8.0), 1..6),
        k in 0.1f64..4.0,
    ) {
        let multi: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let scaled: Vec<f64> = multi.iter().map(|m| m * k).collect();
        let single: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        prop_assert!((hmean(&scaled, &single) - k * hmean(&multi, &single)).abs() < 1e-9);
        prop_assert!((throughput(&scaled) - k * throughput(&multi)).abs() < 1e-9);
    }

    /// Starving any single thread drives Hmean below a fifth of the fair
    /// value — the starvation the paper reports Hmean to expose
    /// (Section 5).
    #[test]
    fn hmean_is_starvation_sensitive(n in 2usize..5, victim in 0usize..5) {
        let victim = victim % n;
        let single = vec![2.0; n];
        let fair = vec![1.0; n];
        let mut starved = fair.clone();
        starved[victim] = 0.01;
        prop_assert!(hmean(&starved, &single) < hmean(&fair, &single) / 5.0);
    }

    /// Improvement percentages invert consistently: if A is x% better than
    /// B, B is worse than A.
    #[test]
    fn improvement_antisymmetry(a in 0.1f64..10.0, b in 0.1f64..10.0) {
        let ab = improvement_pct(a, b);
        let ba = improvement_pct(b, a);
        prop_assert_eq!(ab > 0.0, ba < 0.0);
        // Round trip: (1 + ab)(1 + ba) == 1.
        prop_assert!(((1.0 + ab / 100.0) * (1.0 + ba / 100.0) - 1.0).abs() < 1e-9);
    }

    /// Speedups are element-wise and order-preserving.
    #[test]
    fn speedups_elementwise(multi in proptest::collection::vec(0.0f64..8.0, 1..6)) {
        let single: Vec<f64> = multi.iter().map(|_| 2.0).collect();
        let sp = speedups(&multi, &single);
        for (s, m) in sp.iter().zip(&multi) {
            prop_assert!((s - m / 2.0).abs() < 1e-12);
        }
    }
}
