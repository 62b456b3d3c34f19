//! Property-based tests: the PIM pipeline in exact mode must equal the
//! reference counter for arbitrary graphs and configurations.

use pim_graph::{prep, triangle, CooGraph, Node};
use pim_sim::PimConfig;
use pim_tc::kernel::rng;
use pim_tc::TcConfig;
use proptest::prelude::*;

fn tiny_config(colors: u32, seed: u64) -> TcConfig {
    TcConfig::builder()
        .colors(colors)
        .seed(seed)
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        })
        .stage_edges(128)
        .build()
        .unwrap()
}

fn raw_edges(max_node: Node, max_edges: usize) -> impl Strategy<Value = Vec<(Node, Node)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_mode_matches_reference(
        pairs in raw_edges(40, 150),
        colors in 1u32..6,
        seed in any::<u64>(),
    ) {
        let g = CooGraph::from_pairs(pairs);
        // The pipeline contract is preprocessed input.
        let (g, _) = prep::preprocessed(&g, seed);
        let expect = triangle::count_exact(&g);
        let r = pim_tc::count_triangles(&g, &tiny_config(colors, seed)).unwrap();
        prop_assert!(r.exact);
        prop_assert_eq!(r.rounded(), expect, "colors={}", colors);
    }

    #[test]
    fn exactness_is_seed_invariant(
        pairs in raw_edges(30, 80),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let g = CooGraph::from_pairs(pairs);
        let (g, _) = prep::preprocessed(&g, 1);
        let a = pim_tc::count_triangles(&g, &tiny_config(3, s1)).unwrap();
        let b = pim_tc::count_triangles(&g, &tiny_config(3, s2)).unwrap();
        // Different colorings shard differently but the exact count is
        // coloring-independent.
        prop_assert_eq!(a.rounded(), b.rounded());
    }

    #[test]
    fn incremental_equals_one_shot(
        pairs in raw_edges(30, 100),
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = CooGraph::from_pairs(pairs);
        let (g, _) = prep::preprocessed(&g, seed);
        let one_shot = pim_tc::count_triangles(&g, &tiny_config(2, seed)).unwrap();
        let mut session = pim_tc::TcSession::start(&tiny_config(2, seed)).unwrap();
        for batch in g.split_batches(k) {
            session.append(&batch).unwrap();
        }
        let incremental = session.finish().unwrap();
        prop_assert_eq!(incremental.rounded(), one_shot.rounded());
    }

    #[test]
    fn misra_gries_never_changes_the_exact_count(
        pairs in raw_edges(30, 100),
        t in 1usize..12,
        seed in any::<u64>(),
    ) {
        let g = CooGraph::from_pairs(pairs);
        let (g, _) = prep::preprocessed(&g, seed);
        let plain = pim_tc::count_triangles(&g, &tiny_config(2, seed)).unwrap();
        let config = TcConfig::builder()
            .colors(2)
            .seed(seed)
            .misra_gries(16, t)
            .pim(PimConfig { total_dpus: 512, mram_capacity: 1 << 20, ..PimConfig::tiny() })
            .stage_edges(128)
            .build()
            .unwrap();
        let remapped = pim_tc::count_triangles(&g, &config).unwrap();
        prop_assert_eq!(remapped.rounded(), plain.rounded());
    }

    #[test]
    fn estimator_is_sane_under_reservoir_pressure(
        colors in 1u32..4,
        seed in any::<u64>(),
    ) {
        // A dense graph forced through tiny samples: the estimate must
        // stay positive and the overflow flag must be set.
        let g = pim_graph::gen::simple::complete(30); // 4060 triangles
        let config = TcConfig::builder()
            .colors(colors)
            .seed(seed)
            .sample_capacity(100)
            .pim(PimConfig { total_dpus: 512, mram_capacity: 1 << 20, ..PimConfig::tiny() })
            .stage_edges(64)
            .build()
            .unwrap();
        let r = pim_tc::count_triangles(&g, &config).unwrap();
        prop_assert!(r.reservoir_overflowed);
        prop_assert!(!r.exact);
        prop_assert!(r.estimate > 0.0);
    }
}

proptest! {
    /// The reservoir rule keeps `min(n, cap)` distinct keys of the
    /// stream.
    #[test]
    fn reservoir_sample_is_a_subset_of_stream(
        n in 1u64..400,
        cap in 1u64..50,
        seed in any::<u64>(),
    ) {
        let mut state = rng::seed_for_dpu(seed, 0);
        let mut sample = Vec::new();
        for key in 0..n {
            rng::reservoir_slot(&mut state, key + 1, sample.len() as u64, cap)
                .apply(&mut sample, key);
        }
        prop_assert_eq!(sample.len() as u64, n.min(cap));
        // Sample holds distinct stream elements.
        let mut items = sample.clone();
        items.sort_unstable();
        items.dedup();
        prop_assert_eq!(items.len(), sample.len());
        prop_assert!(items.iter().all(|&x| x < n));
    }
}
