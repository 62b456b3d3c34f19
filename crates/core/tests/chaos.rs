//! Chaos suite: the hardened pipeline against the simulator's
//! fault-injection plane (see docs/ROBUSTNESS.md).
//!
//! The recovery guarantee under test is *bit-identity*: for every seeded
//! fault scenario the hardened session can absorb — transient transfer
//! and launch failures, payload corruption, and permanent core deaths
//! covered by spares — the recovered run's estimate and per-partition
//! reports equal the fault-free run's exactly, on both backends. Fault
//! plans are seeded and replay deterministically, so every scenario here
//! is reproducible from its spec string.

use pim_graph::gen;
use pim_metrics::{MemorySink, MetricsHub};
use pim_sim::{FaultPlan, FunctionalBackend, PimConfig, RankCluster, TimedBackend};
use pim_tc::{count_triangles_in, TcConfig, TcError, TcResult, TcSession};
use proptest::prelude::*;

fn config(colors: u32, faults: Option<FaultPlan>, spares: u32) -> TcConfig {
    TcConfig::builder()
        .colors(colors)
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            fault: faults,
            ..PimConfig::tiny()
        })
        .stage_edges(64)
        .spare_dpus(spares)
        .build()
        .unwrap()
}

/// A four-rank cluster at C = 3: partitions shard as rank 0 = {0,1,2},
/// rank 1 = {3,4,5}, rank 2 = {6,7}, rank 3 = {8,9}. Killing rank 1 is
/// the replica-recoverable whole-rank outage: every partition it hosts
/// keeps surviving replicas on ranks 0, 2, and 3 (killing rank 0 would
/// not be — mono-color-0 edges live on {0,1,2} exactly).
fn rank4_config(faults: Option<FaultPlan>, spares: u32, journal: bool) -> TcConfig {
    TcConfig::builder()
        .colors(3)
        .ranks(4)
        .journal(journal)
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            fault: faults,
            ..PimConfig::tiny()
        })
        .stage_edges(64)
        .spare_dpus(spares)
        .build()
        .unwrap()
}

fn run<B: pim_sim::PimBackend>(g: &pim_graph::CooGraph, cfg: &TcConfig) -> TcResult {
    count_triangles_in::<B>(g, cfg).unwrap()
}

/// The recovered run must be indistinguishable from the fault-free run
/// on everything data-derived (modeled time legitimately differs by the
/// retry/recovery spans).
fn assert_bit_identical(got: &TcResult, want: &TcResult, scenario: &str) {
    assert_eq!(
        got.estimate.to_bits(),
        want.estimate.to_bits(),
        "{scenario}: estimate diverged"
    );
    assert_eq!(
        got.dpu_reports, want.dpu_reports,
        "{scenario}: reports diverged"
    );
    assert_eq!(got.edges_kept, want.edges_kept, "{scenario}");
    assert_eq!(got.edges_routed, want.edges_routed, "{scenario}");
    assert_eq!(got.local_counts, want.local_counts, "{scenario}");
}

#[test]
fn hardened_fault_free_run_matches_plain_bit_for_bit() {
    // The hardened pipeline (checksummed slices, verified gathers) must
    // not perturb results even with no faults injected: slicing preserves
    // each partition's arrival order, so the reservoirs evolve
    // identically.
    let g = gen::erdos_renyi(120, 0.12, 5);
    let plain = config(3, None, 0);
    let hardened = TcConfig {
        hardened: true,
        ..config(3, None, 0)
    };
    let want_t = run::<TimedBackend>(&g, &plain);
    let got_t = run::<TimedBackend>(&g, &hardened);
    assert_bit_identical(&got_t, &want_t, "timed hardened-no-fault");
    let want_f = run::<FunctionalBackend>(&g, &plain);
    let got_f = run::<FunctionalBackend>(&g, &hardened);
    assert_bit_identical(&got_f, &want_f, "functional hardened-no-fault");
}

#[test]
fn transient_faults_recover_to_identical_results_on_both_backends() {
    let g = gen::erdos_renyi(100, 0.15, 9);
    let spec = "seed=11,transfer=60000,corrupt=60000,launch=60000";
    let plan = FaultPlan::parse(spec).unwrap();
    let want = run::<TimedBackend>(&g, &config(3, None, 0));
    let got_t = run::<TimedBackend>(&g, &config(3, Some(plan), 0));
    assert_bit_identical(&got_t, &want, spec);
    let got_f = run::<FunctionalBackend>(&g, &config(3, Some(plan), 0));
    assert_bit_identical(&got_f, &want, spec);
    // Timed and functional engines agree with each other under faults too.
    assert_eq!(got_t.dpu_reports, got_f.dpu_reports);
}

#[test]
fn dead_cores_fail_over_to_spares_with_exact_results() {
    // C = 3 → 10 partitions (+2 spares). Kill two partition homes — 20%
    // of the cores — at different pipeline stages; the run must still
    // produce the exact fault-free triangle count.
    let g = gen::erdos_renyi(100, 0.15, 9);
    let want = run::<TimedBackend>(&g, &config(3, None, 0));
    for spec in [
        "seed=3,kill=3@5",
        "seed=3,kill=7@21",
        "seed=3,kill=3@5,kill=7@21",
        "seed=3,kill=0@0", // death before the first byte lands
        "seed=3,transfer=40000,corrupt=40000,launch=40000,kill=4@9,kill=8@30",
    ] {
        let plan = FaultPlan::parse(spec).unwrap();
        let got = run::<TimedBackend>(&g, &config(3, Some(plan), 2));
        assert_bit_identical(&got, &want, spec);
        assert!(got.exact, "{spec}: recovery must preserve exactness");
        let got_f = run::<FunctionalBackend>(&g, &config(3, Some(plan), 2));
        assert_bit_identical(&got_f, &want, spec);
    }
}

#[test]
fn a_dead_spare_only_shrinks_the_pool() {
    let g = gen::erdos_renyi(80, 0.15, 2);
    // C=3 → partitions 0..10; ids 10 and 11 are the spares.
    let plan = FaultPlan::parse("kill=11@4").unwrap();
    let cfg = config(3, Some(plan), 2);
    let mut s = TcSession::start(&cfg).unwrap();
    s.append(g.edges()).unwrap();
    let r = s.count().unwrap();
    assert_eq!(s.spares_left(), 1);
    let want = run::<TimedBackend>(&g, &config(3, None, 0));
    assert_bit_identical(&r, &want, "dead spare");
}

#[test]
fn incremental_sessions_survive_faults_across_updates() {
    let g = gen::erdos_renyi(90, 0.15, 17);
    let batches = g.clone().split_batches(3);
    let plan = FaultPlan::parse("seed=5,transfer=50000,corrupt=50000,kill=2@15").unwrap();
    let mut plain = TcSession::start(&config(3, None, 0)).unwrap();
    let mut hard = TcSession::start(&config(3, Some(plan), 2)).unwrap();
    for batch in &batches {
        plain.append(batch).unwrap();
        hard.append(batch).unwrap();
        let want = plain.count().unwrap();
        let got = hard.count().unwrap();
        assert_bit_identical(&got, &want, "incremental");
    }
}

#[test]
fn local_counting_survives_faults() {
    let g = gen::erdos_renyi(60, 0.2, 23);
    let base = TcConfig::builder()
        .colors(2)
        .local_counting(g.num_nodes())
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        })
        .stage_edges(64)
        .build()
        .unwrap();
    let want = count_triangles_in::<TimedBackend>(&g, &base).unwrap();
    let plan =
        FaultPlan::parse("seed=7,transfer=50000,corrupt=50000,launch=50000,kill=1@12").unwrap();
    let faulty = TcConfig {
        spare_dpus: 1,
        pim: PimConfig {
            fault: Some(plan),
            ..base.pim
        },
        ..base
    };
    let got = count_triangles_in::<TimedBackend>(&g, &faulty).unwrap();
    assert_bit_identical(&got, &want, "local counting under faults");
}

#[test]
fn death_with_no_spares_fails_loudly() {
    let g = gen::erdos_renyi(60, 0.2, 1);
    let plan = FaultPlan::parse("kill=3@6").unwrap();
    let err = count_triangles_in::<TimedBackend>(&g, &config(3, Some(plan), 0)).unwrap_err();
    match err {
        TcError::Faulted(msg) => assert!(msg.contains("no spare"), "got: {msg}"),
        other => panic!("expected Faulted, got {other:?}"),
    }
}

#[test]
fn death_with_a_single_color_has_no_survivors() {
    let g = gen::erdos_renyi(60, 0.2, 1);
    let plan = FaultPlan::parse("kill=0@6").unwrap();
    let err = count_triangles_in::<TimedBackend>(&g, &config(1, Some(plan), 0)).unwrap_err();
    match err {
        TcError::Faulted(msg) => assert!(msg.contains("C = 1"), "got: {msg}"),
        other => panic!("expected Faulted, got {other:?}"),
    }
}

#[test]
fn exhausted_retry_budget_fails_loudly() {
    let g = gen::erdos_renyi(30, 0.2, 1);
    // Every transfer fails: the very first verified push must burn
    // through max_retries and report it.
    let plan = FaultPlan::parse("transfer=1000000").unwrap();
    let err = count_triangles_in::<TimedBackend>(&g, &config(2, Some(plan), 0)).unwrap_err();
    match err {
        TcError::Faulted(msg) => assert!(msg.contains("max_retries"), "got: {msg}"),
        other => panic!("expected Faulted, got {other:?}"),
    }
}

#[test]
fn every_transient_fault_charges_exactly_one_retry_span() {
    // With corruption off and no deaths, injected transient faults and
    // labeled `retry:` host events must correspond one-to-one (faults
    // injected before the append are excluded via the counter baseline
    // and the stream offset). At R = 4 a fault is retried on the failing
    // rank only, so the spans are summed over the ranks' events.
    fn injected_and_spans<B: pim_sim::PimBackend>(
        s: &mut TcSession<B>,
        sink: &MemorySink,
        g: &pim_graph::CooGraph,
    ) -> (u64, u64) {
        let skip = sink.events().len();
        let c0 = s.fault_counters();
        s.append(g.edges()).unwrap();
        s.count().unwrap();
        let c1 = s.fault_counters();
        assert_eq!(c1.corruptions, 0);
        assert_eq!(c1.dpu_deaths, 0);
        let injected =
            (c1.transfer_faults - c0.transfer_faults) + (c1.launch_faults - c0.launch_faults);
        let spans = sink.events()[skip..]
            .iter()
            .filter(|e| e.kind == "host" && e.str_field("label").starts_with("retry:"))
            .count() as u64;
        (injected, spans)
    }
    let metered = || {
        let hub = std::sync::Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        (hub, sink)
    };
    let g = gen::erdos_renyi(120, 0.15, 3);
    let plan = FaultPlan::parse("seed=21,transfer=50000,launch=50000").unwrap();
    let (hub, sink) = metered();
    let mut s =
        TcSession::<TimedBackend>::start_metered(&config(3, Some(plan), 0), Some(hub)).unwrap();
    let one_rank = injected_and_spans(&mut s, &sink, &g);
    let (hub, sink) = metered();
    let cfg = rank4_config(Some(plan), 0, false);
    let mut s =
        TcSession::<RankCluster<TimedBackend>>::start_cluster_metered(&cfg, Some(hub)).unwrap();
    let four_ranks = injected_and_spans(&mut s, &sink, &g);
    for (ranks, (injected, spans)) in [(1, one_rank), (4, four_ranks)] {
        assert!(
            injected > 0,
            "R = {ranks}: the plan must actually inject something"
        );
        assert_eq!(
            spans, injected,
            "R = {ranks}: retry spans must match injected faults"
        );
    }
}

#[test]
fn fault_counters_surface_in_the_system_report() {
    let g = gen::erdos_renyi(80, 0.15, 4);
    let plan = FaultPlan::parse("seed=2,transfer=200000,corrupt=200000,kill=5@10").unwrap();
    let mut s = TcSession::start(&config(3, Some(plan), 1)).unwrap();
    s.append(g.edges()).unwrap();
    s.count().unwrap();
    let report = s.system_report();
    assert_eq!(report.fault_counters, s.fault_counters());
    assert_eq!(report.fault_counters.dpu_deaths, 1);
    assert!(report.fault_counters.total() > 1);
}

#[test]
fn a_whole_rank_death_recovers_from_surviving_replicas() {
    // Permanent rank outage with journaling off: every partition the dead
    // rank hosted is rebuilt from the C-fold replicas on the surviving
    // ranks and re-homed onto their spare blocks (its own spares died
    // with it). The degraded run stays exact and bit-identical.
    let g = gen::erdos_renyi(100, 0.15, 9);
    let want = run::<TimedBackend>(&g, &rank4_config(None, 0, false));
    for spec in [
        "seed=7,rank=1@count", // outage at the first counting op
        "seed=7,rank=1@14",    // outage mid-stream, during staging
        "seed=7,transfer=40000,corrupt=40000,launch=40000,rank=1@count",
    ] {
        let plan = FaultPlan::parse(spec).unwrap();
        let got = run::<TimedBackend>(&g, &rank4_config(Some(plan), 2, false));
        assert_bit_identical(&got, &want, spec);
        assert!(got.exact, "{spec}: rank recovery must preserve exactness");
        let got_f = run::<FunctionalBackend>(&g, &rank4_config(Some(plan), 2, false));
        assert_bit_identical(&got_f, &want, spec);
    }
}

#[test]
fn a_whole_rank_death_recovers_by_journal_replay() {
    // The same outages with journaling on take the survivor-free path:
    // each lost bank is re-derived by replaying its RNG journal, so even
    // Misra-Gries state (unreconstructable from replicas) comes back.
    let g = gen::erdos_renyi(100, 0.15, 9);
    let base = TcConfig {
        misra_gries: Some(pim_tc::MisraGriesConfig { k: 32, t: 8 }),
        ..rank4_config(None, 0, true)
    };
    let want = run::<TimedBackend>(&g, &base);
    for spec in ["seed=7,rank=1@count", "seed=7,rank=1@14"] {
        let plan = FaultPlan::parse(spec).unwrap();
        let faulty = TcConfig {
            misra_gries: Some(pim_tc::MisraGriesConfig { k: 32, t: 8 }),
            ..rank4_config(Some(plan), 2, true)
        };
        let got = run::<TimedBackend>(&g, &faulty);
        assert_bit_identical(&got, &want, spec);
        let got_f = run::<FunctionalBackend>(&g, &faulty);
        assert_bit_identical(&got_f, &want, spec);
    }
}

#[test]
fn rank_deaths_are_counted_and_sessions_survive_them_across_updates() {
    // Session-level view of a whole-rank outage: the degradation is
    // visible in the fault counters (one rank death, its partitions
    // failed over cross-rank onto surviving spare blocks) and later
    // updates keep matching a fault-free cluster session bit for bit.
    let g = gen::erdos_renyi(90, 0.15, 17);
    let batches = g.clone().split_batches(3);
    let plan = FaultPlan::parse("seed=7,rank=1@20").unwrap();
    let mut plain =
        TcSession::<RankCluster<TimedBackend>>::start_cluster(&rank4_config(None, 0, false))
            .unwrap();
    let mut hard =
        TcSession::<RankCluster<TimedBackend>>::start_cluster(&rank4_config(Some(plan), 2, false))
            .unwrap();
    for batch in &batches {
        plain.append(batch).unwrap();
        hard.append(batch).unwrap();
        let want = plain.count().unwrap();
        let got = hard.count().unwrap();
        assert_bit_identical(&got, &want, "incremental rank death");
    }
    let counters = hard.fault_counters();
    assert_eq!(counters.rank_deaths, 1, "one rank outage must be counted");
    // Rank 1 hosted three partitions; each consumed one surviving spare
    // (rank 1's own spare block died with it and is never selected).
    assert_eq!(hard.spares_left(), 3, "three cross-rank failovers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random graphs and random seeded fault mixes (transients +
    /// corruption + up to one covered death), the recovered estimate is
    /// bit-identical to the fault-free run on the same graph.
    #[test]
    fn recovered_runs_match_fault_free_bit_for_bit(
        n in 30u32..90,
        gseed in 0u64..1_000,
        fseed in 0u64..1_000,
        colors in 2u32..4,
        transfer in 0u32..40_000,
        corrupt in 0u32..40_000,
        launch in 0u32..40_000,
        kill_dpu in 0usize..12,
        kill_op in 0u64..60,
    ) {
        let g = gen::erdos_renyi(n, 0.12, gseed);
        let want = run::<FunctionalBackend>(&g, &config(colors, None, 0));
        // Config validation rejects kills beyond the allocated cores
        // (partitions + per-rank spares), and the budget depends on the
        // ambient PIM_TC_RANKS — clamp the generated id into range.
        let probe = config(colors, None, 2);
        let allocated = probe.nr_dpus() + probe.effective_ranks() as usize * 2;
        let kill_dpu = kill_dpu % allocated;
        let spec = format!(
            "seed={fseed},transfer={transfer},corrupt={corrupt},launch={launch},kill={kill_dpu}@{kill_op}"
        );
        let plan = FaultPlan::parse(&spec).unwrap();
        let got = run::<FunctionalBackend>(&g, &config(colors, Some(plan), 2));
        prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(), "{}", &spec);
        prop_assert_eq!(&got.dpu_reports, &want.dpu_reports, "{}", &spec);
        prop_assert_eq!(got.edges_routed, want.edges_routed, "{}", &spec);
    }
}
