//! Property-based tests for the streaming primitives.

use pim_stream::{coloring::ColoringHash, misra_gries::MisraGries};
use proptest::prelude::*;

proptest! {
    #[test]
    fn coloring_is_total_and_stable(colors in 1u32..64, seed in any::<u64>(), u in any::<u32>()) {
        let h = ColoringHash::new(colors, seed);
        let c = h.color(u);
        prop_assert!(c < colors);
        prop_assert_eq!(c, h.color(u));
    }

    #[test]
    fn misra_gries_never_overestimates(
        stream in prop::collection::vec(0u32..20, 1..500),
        k in 1usize..10,
    ) {
        let mut mg = MisraGries::new(k);
        let mut truth = std::collections::HashMap::new();
        for &x in &stream {
            mg.offer(x);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        let n = stream.len() as u64;
        for (item, est) in mg.entries() {
            let exact = truth[&item];
            prop_assert!(est <= exact, "overestimate for {item}");
            prop_assert!(exact - est <= n / k as u64 + 1, "error bound violated");
        }
        // Guarantee: frequency > n/k ⇒ present.
        for (&item, &exact) in &truth {
            if exact > n / k as u64 {
                prop_assert!(mg.estimate(item) > 0, "heavy item {item} missing");
            }
        }
    }

    #[test]
    fn misra_gries_merge_matches_single_stream_guarantee(
        s1 in prop::collection::vec(0u32..15, 1..200),
        s2 in prop::collection::vec(0u32..15, 1..200),
        k in 2usize..8,
    ) {
        let mut a = MisraGries::new(k);
        let mut b = MisraGries::new(k);
        let mut truth = std::collections::HashMap::new();
        for &x in &s1 { a.offer(x); *truth.entry(x).or_insert(0u64) += 1; }
        for &x in &s2 { b.offer(x); *truth.entry(x).or_insert(0u64) += 1; }
        a.merge(&b);
        let n = (s1.len() + s2.len()) as u64;
        prop_assert!(a.entries().count() <= k);
        for (&item, &exact) in &truth {
            if exact > 2 * (n / k as u64) {
                // Merged summaries keep items above twice the threshold.
                prop_assert!(a.estimate(item) > 0, "heavy item {item} lost in merge");
            }
        }
    }

    #[test]
    fn triple_probability_is_monotone_in_t(m in 3u64..100, t in 3u64..10_000) {
        let p1 = pim_stream::reservoir::triple_probability(m, t);
        let p2 = pim_stream::reservoir::triple_probability(m, t + 1);
        prop_assert!(p1 >= p2);
        prop_assert!((0.0..=1.0).contains(&p1));
    }
}
