//! Property tests of the batched routing pipeline: for arbitrary edge
//! streams (self loops, duplicates, sampling, Misra-Gries tracking, any
//! thread count) the flat three-pass path in `route_edges_into` must be
//! *bit-identical* to the retained per-edge reference implementation —
//! same per-core batches in the same arrival order, same offered/kept
//! counters, same heavy-hitter summary.

use pim_graph::{Edge, Node};
use pim_stream::ColoringHash;
use pim_tc::host::{
    route_edges, route_edges_into, route_edges_reference, RouteParams, RouteScratch, RoutedBatches,
};
use pim_tc::TripletAssignment;
use proptest::prelude::*;

fn raw_edges(max_node: Node, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().map(|(u, v)| Edge { u, v }).collect())
}

/// Summary entries in a canonical order for equality checks.
fn mg_entries(b: &RoutedBatches) -> Option<Vec<(u32, u64)>> {
    b.summary.as_ref().map(|s| {
        let mut e: Vec<_> = s.entries().collect();
        e.sort_unstable();
        e
    })
}

fn assert_equivalent(a: &RoutedBatches, b: &RoutedBatches) {
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.kept, b.kept);
    assert_eq!(a.per_dpu, b.per_dpu);
    assert_eq!(mg_entries(a), mg_entries(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched pipeline and the per-edge reference agree on every
    /// observable output, across sampling rates, thread counts, stream
    /// offsets, and Misra-Gries settings.
    #[test]
    fn batched_routing_is_bit_identical_to_reference(
        edges in raw_edges(48, 400),
        colors in 1u32..7,
        seed in any::<u64>(),
        uniform_p in prop_oneof![Just(1.0), 0.05f64..1.0],
        threads in 1usize..5,
        base_granule in 0u64..4,
        mg in (0usize..8).prop_map(|k| if k < 2 { None } else { Some(k) }),
    ) {
        let assignment = TripletAssignment::new(colors);
        let coloring = ColoringHash::new(colors, seed ^ 0xA5A5);
        let params = RouteParams {
            assignment: &assignment,
            coloring: &coloring,
            uniform_p,
            seed,
            mg_capacity: mg,
            threads,
            base_granule,
        };
        let batched = route_edges(&edges, params);
        let reference = route_edges_reference(&edges, params);
        assert_equivalent(&batched, &reference);
    }

    /// Reusing one `RouteScratch`/`RoutedBatches` pair across unrelated
    /// streams (the session's steady-state path) never leaks state from a
    /// previous call: every call matches a fresh one-shot route.
    #[test]
    fn reused_scratch_carries_no_state_between_calls(
        streams in prop::collection::vec(raw_edges(32, 200), 1..4),
        colors in 1u32..5,
        seed in any::<u64>(),
    ) {
        let assignment = TripletAssignment::new(colors);
        let coloring = ColoringHash::new(colors, seed);
        let mut out = RoutedBatches::default();
        let mut scratch = RouteScratch::default();
        for (i, edges) in streams.iter().enumerate() {
            let params = RouteParams {
                assignment: &assignment,
                coloring: &coloring,
                uniform_p: if i % 2 == 0 { 1.0 } else { 0.5 },
                seed: seed.wrapping_add(i as u64),
                mg_capacity: if i % 2 == 1 { Some(4) } else { None },
                threads: 1 + i % 3,
                base_granule: i as u64,
            };
            route_edges_into(edges, params, &mut out, &mut scratch);
            let fresh = route_edges(edges, params);
            assert_equivalent(&out, &fresh);
        }
    }
}
