//! Recovery-journal suite: replayable per-partition RNG journals against
//! permanent core deaths (see docs/ROBUSTNESS.md).
//!
//! The guarantee under test is stronger than the chaos suite's: with
//! journaling enabled, a lost partition is re-derived *with no survivors
//! needed* — so the scenarios the survivor path must refuse (overflowed
//! reservoirs, Misra-Gries remapping, a single color) recover to
//! bit-identical results here. Identity is checked on everything
//! data-derived: the estimate, per-partition reports, and the resident
//! sample sets themselves (contents, order, and stream position).

use pim_graph::{gen, triangle};
use pim_sim::{FaultPlan, FunctionalBackend, PimBackend, PimConfig, TimedBackend};
use pim_tc::{count_triangles_in, TcConfig, TcError, TcResult, TcSession};
use proptest::prelude::*;

/// Journal-enabled hardened config; `capacity` forces reservoir overflow
/// when small, `mg` turns on Misra-Gries remapping.
fn config(
    colors: u32,
    faults: Option<FaultPlan>,
    spares: u32,
    capacity: Option<u64>,
    mg: bool,
) -> TcConfig {
    let mut b = TcConfig::builder()
        .colors(colors)
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            fault: faults,
            ..PimConfig::tiny()
        })
        .stage_edges(64)
        .spare_dpus(spares)
        .journal(true);
    if let Some(m) = capacity {
        b = b.sample_capacity(m);
    }
    if mg {
        b = b.misra_gries(64, 16);
    }
    b.build().unwrap()
}

/// The journal-off twin of [`config`] — used for fault-free baselines so
/// the tests also prove journaling itself perturbs nothing.
fn plain_config(colors: u32, capacity: Option<u64>, mg: bool) -> TcConfig {
    TcConfig {
        journal: false,
        spare_dpus: 0,
        ..config(colors, None, 0, capacity, mg)
    }
}

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
    assert_eq!(
        got.reservoir_overflowed, want.reservoir_overflowed,
        "{scenario}: overflow flag diverged"
    );
}

/// Runs the full scenario on one backend: a fault-free baseline session
/// and a journaled session under `plan`, comparing count results *and*
/// per-partition sample sets after every batch.
fn run_differential<B: PimBackend>(
    g: &pim_graph::CooGraph,
    plan: FaultPlan,
    colors: u32,
    capacity: Option<u64>,
    mg: bool,
    scenario: &str,
) {
    let batches = g.split_batches(3);
    let mut want = TcSession::<B>::start_with(&plain_config(colors, capacity, mg)).unwrap();
    let mut got = TcSession::<B>::start_with(&config(colors, Some(plan), 2, capacity, mg)).unwrap();
    for (i, batch) in batches.iter().enumerate() {
        want.append(batch).unwrap();
        got.append(batch).unwrap();
        let w = want.count().unwrap();
        let r = got.count().unwrap();
        assert_bit_identical(&r, &w, &format!("{scenario} (batch {i})"));
        assert_eq!(
            got.resident_samples().unwrap(),
            want.resident_samples().unwrap(),
            "{scenario} (batch {i}): resident samples diverged"
        );
    }
}

#[test]
fn journal_recovers_overflowed_reservoirs_bit_for_bit() {
    // Capacity 24 overflows every partition; the survivor path must
    // refuse this (pinned below), the journal path must not.
    let g = gen::erdos_renyi(120, 0.15, 9);
    for spec in ["seed=3,kill=3@25", "seed=3,kill=0@0,kill=5@60"] {
        let plan = FaultPlan::parse(spec).unwrap();
        run_differential::<TimedBackend>(&g, plan, 3, Some(24), false, spec);
        run_differential::<FunctionalBackend>(&g, plan, 3, Some(24), false, spec);
    }
}

#[test]
fn journal_recovers_misra_gries_sessions_bit_for_bit() {
    // Skewed degrees so Misra-Gries actually remaps; counts between
    // batches interleave remap marks into the journals.
    let mut g = gen::chung_lu(
        gen::chung_lu::ChungLuParams {
            n: 300,
            gamma: 2.1,
            avg_degree: 8.0,
            max_degree_frac: 0.4,
        },
        11,
    );
    g.preprocess(0);
    for spec in ["seed=7,kill=2@40", "seed=7,kill=6@90"] {
        let plan = FaultPlan::parse(spec).unwrap();
        run_differential::<TimedBackend>(&g, plan, 3, None, true, spec);
        run_differential::<FunctionalBackend>(&g, plan, 3, None, true, spec);
    }
}

#[test]
fn journal_recovers_single_color_runs() {
    // C = 1 keeps exactly one replica of every edge: no survivors exist
    // by construction, so only the journal can recover the partition.
    let g = gen::erdos_renyi(80, 0.2, 2);
    let expect = triangle::count_exact(&g);
    let plan = FaultPlan::parse("kill=0@10").unwrap();
    let r = count_triangles_in::<TimedBackend>(&g, &config(1, Some(plan), 1, None, false)).unwrap();
    assert_eq!(r.rounded(), expect);
    assert!(r.exact);
}

#[test]
fn journal_recovers_the_overflow_and_mg_combination() {
    // Both survivor-path refusals at once, plus transient noise.
    let mut g = gen::chung_lu(
        gen::chung_lu::ChungLuParams {
            n: 300,
            gamma: 2.1,
            avg_degree: 8.0,
            max_degree_frac: 0.4,
        },
        5,
    );
    g.preprocess(0);
    let spec = "seed=13,transfer=30000,corrupt=30000,launch=30000,kill=4@70";
    let plan = FaultPlan::parse(spec).unwrap();
    run_differential::<TimedBackend>(&g, plan, 3, Some(48), true, spec);
    run_differential::<FunctionalBackend>(&g, plan, 3, Some(48), true, spec);
}

/// Regression pin (the `Reservoir::overflowed` carve-out): without
/// journals, a death past reservoir overflow must stay a loud
/// [`TcError::Faulted`] — the survivors no longer hold every edge, so a
/// "recovered" sample would silently change the correction divisor.
#[test]
fn journal_off_overflow_death_still_fails_loudly() {
    let g = gen::erdos_renyi(120, 0.15, 9);
    let cfg = TcConfig {
        journal: false,
        ..config(
            3,
            Some(FaultPlan::parse("seed=3,kill=3@25").unwrap()),
            2,
            Some(24),
            false,
        )
    };
    let err = count_triangles_in::<TimedBackend>(&g, &cfg).unwrap_err();
    match err {
        TcError::Faulted(msg) => assert!(msg.contains("overflowed"), "got: {msg}"),
        other => panic!("expected Faulted, got {other:?}"),
    }
}

/// The journal path must restore not just the sample contents but the
/// stream position `seen` — the overflow flag and the `M(M−1)(M−2) /
/// t(t−1)(t−2)` correction divisor both derive from it.
#[test]
fn journal_restores_overflow_state_and_stream_position() {
    let g = gen::erdos_renyi(120, 0.15, 9);
    let plan = FaultPlan::parse("seed=3,kill=3@25").unwrap();
    let mut want = TcSession::start(&plain_config(3, Some(24), false)).unwrap();
    let mut got = TcSession::start(&config(3, Some(plan), 2, Some(24), false)).unwrap();
    want.append(g.edges()).unwrap();
    got.append(g.edges()).unwrap();
    let w = want.count().unwrap();
    let r = got.count().unwrap();
    assert!(w.reservoir_overflowed, "capacity 24 must overflow");
    assert_bit_identical(&r, &w, "overflow state");
    let ws = want.resident_samples().unwrap();
    let gs = got.resident_samples().unwrap();
    assert_eq!(gs, ws, "resident samples diverged");
    assert!(
        gs.iter().any(|(sample, seen)| *seen > sample.len() as u64),
        "some partition must be past overflow"
    );
}

#[test]
fn journal_death_with_no_spares_still_fails_loudly() {
    let g = gen::erdos_renyi(60, 0.2, 1);
    let plan = FaultPlan::parse("kill=3@6").unwrap();
    let err =
        count_triangles_in::<TimedBackend>(&g, &config(3, Some(plan), 0, None, false)).unwrap_err();
    match err {
        TcError::Faulted(msg) => assert!(msg.contains("no spare"), "got: {msg}"),
        other => panic!("expected Faulted, got {other:?}"),
    }
}

#[test]
fn scrub_cadence_from_the_fault_plan_sweeps_between_batches() {
    // `scrub=1` in the plan (no explicit scrub_interval) makes the
    // session sweep after every streamed chunk: the kill is absorbed
    // between batches and the run still matches fault-free exactly.
    let g = gen::erdos_renyi(100, 0.15, 9);
    let plan = FaultPlan::parse("seed=3,kill=3@15,scrub=1").unwrap();
    let mut want = TcSession::start(&plain_config(3, None, false)).unwrap();
    let mut got = TcSession::start(&config(3, Some(plan), 2, None, false)).unwrap();
    for batch in g.split_batches(4) {
        want.append(&batch).unwrap();
        got.append(&batch).unwrap();
    }
    let w = want.finish().unwrap();
    let r = got.finish().unwrap();
    assert_bit_identical(&r, &w, "scrub cadence");
}

#[test]
fn explicit_scrub_interval_matches_fault_free() {
    let g = gen::erdos_renyi(100, 0.15, 9);
    let plan = FaultPlan::parse("seed=5,transfer=40000,kill=2@22").unwrap();
    let cfg = TcConfig {
        scrub_interval: 2,
        ..config(3, Some(plan), 2, None, false)
    };
    let mut want = TcSession::start(&plain_config(3, None, false)).unwrap();
    let mut got = TcSession::start(&cfg).unwrap();
    for batch in g.split_batches(4) {
        want.append(&batch).unwrap();
        got.append(&batch).unwrap();
    }
    assert_bit_identical(&got.finish().unwrap(), &want.finish().unwrap(), "interval");
}

#[test]
fn journaled_hardened_fault_free_run_matches_plain_bit_for_bit() {
    // Journaling must be pure bookkeeping: with no faults injected, the
    // journaled hardened run is indistinguishable from the plain run.
    let g = gen::erdos_renyi(120, 0.12, 5);
    let hardened = TcConfig {
        hardened: true,
        ..config(3, None, 0, None, false)
    };
    let want = count_triangles_in::<TimedBackend>(&g, &plain_config(3, None, false)).unwrap();
    let got = count_triangles_in::<TimedBackend>(&g, &hardened).unwrap();
    assert_bit_identical(&got, &want, "journaled hardened-no-fault");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The closed carve-outs, property-tested: random graphs, any DPU
    /// killed at any op, reservoirs past overflow and Misra-Gries
    /// remapping both in play — journaled runs match fault-free runs
    /// bit-for-bit on the functional backend, resident samples included.
    #[test]
    fn journaled_recovery_is_bit_identical_under_random_deaths(
        n in 40u32..100,
        gseed in 0u64..1_000,
        fseed in 0u64..1_000,
        colors in 1u32..4,
        capacity_raw in 0u64..64,
        mg_raw in 0u32..2,
        kill_dpu in 0usize..12,
        kill_op in 0u64..120,
    ) {
        // The vendored proptest only ships range strategies; derive the
        // optional capacity (None = paper default) and the MG toggle.
        let capacity = (capacity_raw >= 16).then_some(capacity_raw);
        let mg = mg_raw == 1;
        let mut g = gen::erdos_renyi(n, 0.12, gseed);
        g.preprocess(0);
        // Config validation rejects kills beyond the allocated cores
        // (partitions + per-rank spares), and the budget depends on the
        // ambient PIM_TC_RANKS — clamp the generated id into range.
        let probe = config(colors, None, 2, capacity, mg);
        let allocated = probe.nr_dpus() + probe.effective_ranks() as usize * 2;
        let kill_dpu = kill_dpu % allocated;
        let spec = format!("seed={fseed},kill={kill_dpu}@{kill_op}");
        let plan = FaultPlan::parse(&spec).unwrap();
        let scenario = format!("{spec} C={colors} cap={capacity:?} mg={mg}");

        let mut want = TcSession::<FunctionalBackend>::start_with(
            &plain_config(colors, capacity, mg)).unwrap();
        let mut got = TcSession::<FunctionalBackend>::start_with(
            &config(colors, Some(plan), 2, capacity, mg)).unwrap();
        want.append(g.edges()).unwrap();
        got.append(g.edges()).unwrap();
        let w = want.count().unwrap();
        let r = got.count().unwrap();
        prop_assert_eq!(r.estimate.to_bits(), w.estimate.to_bits(), "{}", &scenario);
        prop_assert_eq!(&r.dpu_reports, &w.dpu_reports, "{}", &scenario);
        prop_assert_eq!(r.edges_routed, w.edges_routed, "{}", &scenario);
        prop_assert_eq!(
            got.resident_samples().unwrap(),
            want.resident_samples().unwrap(),
            "{}", &scenario
        );
    }
}
