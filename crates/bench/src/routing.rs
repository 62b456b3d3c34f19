//! The shared routing-throughput workload.
//!
//! One definition of "routing throughput" used by both the
//! `routing_throughput` criterion micro-bench and the `bench_gate`
//! regression gate, so the ratcheted number and the developer-facing
//! bench can never measure different things. The workload exercises the
//! *session* path — [`pim_tc::host::route_edges_into`] with scratch
//! reused across calls — because that is what `TcSession::append` runs
//! on every streamed chunk; one-shot allocation cost is deliberately
//! excluded.

use pim_graph::CooGraph;
use pim_stream::ColoringHash;
use pim_tc::host::{route_edges_into, RouteParams, RouteScratch, RoutedBatches};
use pim_tc::triplets::TripletAssignment;
use std::time::Instant;

/// Color count of the gate workload (the paper's `C = 23`, 2300 cores —
/// the configuration every fig6/fig7 row runs at).
pub const GATE_COLORS: u32 = 23;
/// Node count of the gate workload's seeded Erdős–Rényi graph.
pub const GATE_NODES: u32 = 20_000;
/// Edge probability of the gate workload's graph (≈ 200 k edges).
pub const GATE_EDGE_PROB: f64 = 0.001;
/// Generator seed of the gate workload's graph, so the edge stream is
/// identical on every run.
pub const GATE_SEED: u64 = 42;

/// The fixed workload measured by the gate: graph + routing tables.
pub struct RoutingWorkload {
    /// The seeded input graph.
    pub graph: CooGraph,
    /// Color count.
    pub colors: u32,
    /// Triplet → core assignment for `colors`.
    pub assignment: TripletAssignment,
    /// Vertex coloring for `colors`.
    pub coloring: ColoringHash,
}

impl RoutingWorkload {
    /// Builds the canonical gate workload (≈ 200 k edges at `C = 23`).
    pub fn gate() -> RoutingWorkload {
        RoutingWorkload::new(
            pim_graph::gen::erdos_renyi(GATE_NODES, GATE_EDGE_PROB, GATE_SEED),
            GATE_COLORS,
        )
    }

    /// A workload over an arbitrary graph/color count.
    pub fn new(graph: CooGraph, colors: u32) -> RoutingWorkload {
        RoutingWorkload {
            graph,
            colors,
            assignment: TripletAssignment::new(colors),
            coloring: ColoringHash::new(colors, 5),
        }
    }

    /// Routing parameters: single-threaded on purpose, so the gate
    /// measures the per-edge pipeline itself rather than the machine's
    /// core count, and CI numbers are comparable across runners.
    pub fn params(&self) -> RouteParams<'_> {
        RouteParams {
            assignment: &self.assignment,
            coloring: &self.coloring,
            uniform_p: 1.0,
            seed: 9,
            mg_capacity: None,
            threads: 1,
            base_granule: 0,
        }
    }

    /// Input edges routed per pass.
    pub fn edges(&self) -> u64 {
        self.graph.num_edges() as u64
    }
}

/// Best-of-`samples` routing throughput in input edges per second,
/// through the reused-scratch session path (plus one untimed warm-up
/// pass to populate buffer capacities). Best-of is the right statistic
/// for a regression gate: it is the least noisy estimator of the code's
/// speed, with scheduling hiccups filtered out.
pub fn measure_routing_throughput(w: &RoutingWorkload, samples: usize) -> f64 {
    let mut out = RoutedBatches::default();
    let mut scratch = RouteScratch::default();
    route_edges_into(w.graph.edges(), w.params(), &mut out, &mut scratch);
    let edges = w.edges() as f64;
    let mut best = 0.0f64;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        route_edges_into(w.graph.edges(), w.params(), &mut out, &mut scratch);
        std::hint::black_box(out.total_routed());
        let eps = edges / start.elapsed().as_secs_f64();
        best = best.max(eps);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_workload_is_deterministic_and_nonempty() {
        let a = RoutingWorkload::gate();
        let b = RoutingWorkload::gate();
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert!(
            a.edges() > 100_000,
            "gate workload too small: {}",
            a.edges()
        );
    }

    #[test]
    fn throughput_measurement_is_positive() {
        let w = RoutingWorkload::new(pim_graph::gen::erdos_renyi(500, 0.05, 1), 4);
        let eps = measure_routing_throughput(&w, 1);
        assert!(eps > 0.0);
    }
}
