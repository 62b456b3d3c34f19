//! Property-based cluster equivalence: the [`RankCluster`] refactor must
//! be invisible in results.
//!
//! * At R = 1 the cluster is a verbatim pass-through: counts, per-DPU
//!   reports, and live metric totals are bit-identical to driving the
//!   backend directly, on both execution engines.
//! * Adding ranks changes *placement only*: every RNG stream is
//!   partition-keyed and every kernel addresses tasklets, so the final
//!   result is bit-identical across rank counts.
//! * Faults are confined: killing a core in one rank leaves every other
//!   rank's partitions untouched (their reports match a fault-free run).
//! * Capacity scales: a color count that overflows one rank's core
//!   budget completes at `ranks = 4` with exact CPU agreement.

use pim_graph::{prep, triangle, CooGraph, Node};
use pim_metrics::{MemorySink, MetricsHub};
use pim_sim::{ClusterSpec, FunctionalBackend, PimConfig, RankCluster, TimedBackend};
use pim_tc::{Capture, ExecBackend, TcConfig, TcSession};
use proptest::prelude::*;
use std::sync::Arc;

fn tiny_pim() -> PimConfig {
    PimConfig {
        total_dpus: 512,
        mram_capacity: 1 << 20,
        ..PimConfig::tiny()
    }
}

fn tiny_config(colors: u32, ranks: u32, seed: u64) -> TcConfig {
    TcConfig::builder()
        .colors(colors)
        .ranks(ranks)
        .seed(seed)
        .pim(tiny_pim())
        .stage_edges(128)
        .build()
        .unwrap()
}

fn raw_edges(max_node: Node, max_edges: usize) -> impl Strategy<Value = Vec<(Node, Node)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_edges)
}

/// Runs a full session on `B` directly (no cluster), with a metrics hub
/// capturing the live event stream.
fn run_plain<B: pim_sim::PimBackend>(
    g: &CooGraph,
    config: &TcConfig,
) -> (pim_tc::TcResult, pim_metrics::StreamSummary) {
    let hub = Arc::new(MetricsHub::new());
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    let mut session = TcSession::<B>::start_metered(config, Some(Arc::clone(&hub))).unwrap();
    session.append(g.edges()).unwrap();
    let result = session.finish().unwrap();
    (result, pim_metrics::summarize(&sink.events()))
}

/// The same run through a [`RankCluster`] of `B`.
fn run_cluster<B: pim_sim::PimBackend>(
    g: &CooGraph,
    config: &TcConfig,
) -> (pim_tc::TcResult, pim_metrics::StreamSummary) {
    let hub = Arc::new(MetricsHub::new());
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    let mut session =
        TcSession::<RankCluster<B>>::start_cluster_metered(config, Some(Arc::clone(&hub))).unwrap();
    session.append(g.edges()).unwrap();
    let result = session.finish().unwrap();
    (result, pim_metrics::summarize(&sink.events()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn single_rank_cluster_is_a_verbatim_pass_through(
        pairs in raw_edges(40, 150),
        colors in 1u32..6,
        seed in any::<u64>(),
    ) {
        // ranks(1) is explicit: this property IS the R = 1 bit-identity
        // guarantee, independent of the PIM_TC_RANKS environment.
        let g = CooGraph::from_pairs(pairs);
        let (g, _) = prep::preprocessed(&g, seed);
        let config = tiny_config(colors, 1, seed);

        let (pf, mf) = run_plain::<FunctionalBackend>(&g, &config);
        let (cf, cmf) = run_cluster::<FunctionalBackend>(&g, &config);
        prop_assert_eq!(pf.estimate, cf.estimate);
        prop_assert_eq!(pf.raw_total, cf.raw_total);
        prop_assert_eq!(pf.exact, cf.exact);
        prop_assert_eq!(&pf.dpu_reports, &cf.dpu_reports);
        prop_assert_eq!(mf.transfer_bytes(), cmf.transfer_bytes());
        prop_assert_eq!(mf.chunks, cmf.chunks);
        prop_assert_eq!(&mf.launches, &cmf.launches);

        let (pt, mt) = run_plain::<TimedBackend>(&g, &config);
        let (ct, cmt) = run_cluster::<TimedBackend>(&g, &config);
        prop_assert_eq!(pt.estimate, ct.estimate);
        prop_assert_eq!(&pt.dpu_reports, &ct.dpu_reports);
        // Clocks mix modeled time with *measured* host seconds, which no
        // two runs share; compare the deterministic modeled components
        // (transfer/launch aggregates) and only the existence of clocks.
        prop_assert!(pt.times.total() > 0.0);
        prop_assert!(ct.times.total() > 0.0);
        prop_assert_eq!(mt.transfer_bytes(), cmt.transfer_bytes());
        prop_assert_eq!(&mt.transfers, &cmt.transfers);
        prop_assert_eq!(&mt.launches, &cmt.launches);
    }

    #[test]
    fn rank_count_changes_placement_not_results(
        pairs in raw_edges(40, 150),
        colors in 2u32..6,
        ranks in 2u32..5,
        seed in any::<u64>(),
    ) {
        // Partition-keyed RNG + tasklet-local kernels: the data path is
        // independent of which rank hosts a partition, so any rank count
        // reproduces the R = 1 run bit for bit on the functional engine.
        let g = CooGraph::from_pairs(pairs);
        let (g, _) = prep::preprocessed(&g, seed);
        let one = run_cluster::<FunctionalBackend>(&g, &tiny_config(colors, 1, seed));
        let many = run_cluster::<FunctionalBackend>(&g, &tiny_config(colors, ranks, seed));
        prop_assert_eq!(one.0.estimate, many.0.estimate);
        prop_assert_eq!(one.0.raw_total, many.0.raw_total);
        prop_assert_eq!(one.0.exact, many.0.exact);
        prop_assert_eq!(&one.0.dpu_reports, &many.0.dpu_reports);
        prop_assert_eq!(one.1.transfer_bytes(), many.1.transfer_bytes());
        // Determinism: the same sharded run replays identically.
        let again = run_cluster::<FunctionalBackend>(&g, &tiny_config(colors, ranks, seed));
        prop_assert_eq!(&many.0.dpu_reports, &again.0.dpu_reports);
        prop_assert_eq!(many.0.estimate, again.0.estimate);
    }

    #[test]
    fn a_death_in_one_rank_never_touches_the_others(
        pairs in raw_edges(40, 150),
        seed in any::<u64>(),
        victim in 0usize..10,
        kill_op in 4u64..24,
    ) {
        // C = 3 -> 10 partitions over 2 ranks (0..5 and 5..10). Kill one
        // partition mid-run with a spare standing by: every partition of
        // the *other* rank must report exactly what a fault-free run
        // reports — the fault plane and failover are rank-local.
        let g = CooGraph::from_pairs(pairs);
        let (g, _) = prep::preprocessed(&g, seed);
        let base = TcConfig::builder()
            .colors(3)
            .ranks(2)
            .seed(seed)
            .spare_dpus(1)
            .pim(tiny_pim())
            .stage_edges(128);
        let clean = base.clone().build().unwrap();
        let spec = format!("seed=7,kill={victim}@{kill_op}");
        let faulted = base
            .fault_plan(Some(pim_sim::FaultPlan::parse(&spec).unwrap()))
            .build()
            .unwrap();

        let (clean_res, _) = run_cluster::<FunctionalBackend>(&g, &clean);
        let (fault_res, _) = run_cluster::<FunctionalBackend>(&g, &faulted);

        // Counts survive the failover exactly (journaled re-derivation /
        // staged re-push keep the dead partition's sample intact).
        prop_assert_eq!(clean_res.estimate, fault_res.estimate);

        // Confinement: partitions hosted by the other rank are
        // bit-identical to the fault-free run.
        let cluster_spec = ClusterSpec::new(10, 1, 2);
        let dead_rank = cluster_spec.rank_of_partition(victim);
        for p in 0..10 {
            if cluster_spec.rank_of_partition(p) != dead_rank {
                prop_assert_eq!(
                    &clean_res.dpu_reports[p],
                    &fault_res.dpu_reports[p],
                    "partition {} (rank {})", p, 1 - dead_rank
                );
            }
        }
    }
}

/// The capacity-scaling acceptance test: C = 5 needs 35 partitions, more
/// than one 20-core rank can host — the config is rejected at R = 1 and
/// completes exactly at R = 4 (9 partitions on the largest rank).
#[test]
fn over_capacity_graph_completes_at_four_ranks() {
    let g = pim_graph::gen::erdos_renyi(80, 0.2, 11);
    let (g, _) = prep::preprocessed(&g, 0);
    let expect = triangle::count_exact(&g);

    let pim = PimConfig {
        total_dpus: 20,
        mram_capacity: 1 << 20,
        ..PimConfig::tiny()
    };
    let builder = |ranks: u32| {
        TcConfig::builder()
            .colors(5)
            .ranks(ranks)
            .seed(3)
            .pim(pim)
            .stage_edges(128)
    };

    let err = builder(1).build().unwrap_err().to_string();
    assert!(err.contains("cluster-wide budget"), "got: {err}");
    assert!(err.contains("--ranks 2"), "got: {err}");

    let config = builder(4).backend(ExecBackend::Functional).build().unwrap();
    let report = pim_tc::count_triangles_with(&g, &config, Capture::default()).unwrap();
    let result = &report.result;
    assert!(result.exact);
    assert_eq!(result.rounded(), expect);
    assert_eq!(report.per_rank.len(), 4);
    // Every rank did real work: the triplet shards are contiguous and
    // non-empty at 35 partitions over 4 ranks.
    for (r, rank) in report.per_rank.iter().enumerate() {
        assert!(rank.total_transfer_bytes > 0, "rank {r} moved no data");
    }
}

/// The same acceptance sweep on the timed engine: modeled clocks exist
/// and the counts still agree.
#[test]
fn over_capacity_graph_is_exact_and_timed_at_four_ranks() {
    let g = pim_graph::gen::erdos_renyi(60, 0.25, 7);
    let (g, _) = prep::preprocessed(&g, 0);
    let expect = triangle::count_exact(&g);
    let config = TcConfig::builder()
        .colors(5)
        .ranks(4)
        .seed(3)
        .pim(PimConfig {
            total_dpus: 20,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        })
        .stage_edges(128)
        .build()
        .unwrap();
    let result = pim_tc::count_triangles_in::<TimedBackend>(&g, &config).unwrap();
    assert!(result.exact);
    assert_eq!(result.rounded(), expect);
    assert!(result.times.total() > 0.0);
}
