//! Negative-path coverage: the simulator's hardware guards must surface as
//! typed [`SimError`]s — never panics — on both execution backends, and the
//! fault-injection plane must replay deterministically.

use pim_metrics::MemorySink;
use pim_sim::backend::{FunctionalBackend, PimBackend, TimedBackend};
use pim_sim::fault::{FaultPlan, FaultState, OpKind};
use pim_sim::system::HostWrite;
use pim_sim::{CostModel, PimConfig, SimError, SystemReport};
use std::sync::Arc;

fn tiny<B: PimBackend>(nr_dpus: usize) -> B {
    B::allocate(nr_dpus, PimConfig::tiny(), CostModel::default()).unwrap()
}

fn faulty<B: PimBackend>(nr_dpus: usize, spec: &str) -> B {
    let config = PimConfig {
        fault: Some(FaultPlan::parse(spec).unwrap()),
        ..PimConfig::tiny()
    };
    B::allocate(nr_dpus, config, CostModel::default()).unwrap()
}

/// Attaches a hub with an in-memory sink to `sys` and returns the sink.
fn metered<B: PimBackend>(sys: &mut B) -> MemorySink {
    let hub = Arc::new(pim_metrics::MetricsHub::new());
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    sys.attach_metrics(hub);
    sink
}

/// Every guard, exercised once per backend through the shared trait.
fn guards_return_errors<B: PimBackend>() {
    let mut sys: B = tiny(2);

    // MRAM out-of-bounds DMA from a kernel.
    let err = sys
        .execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.mram_read_one::<u64>(1 << 30).map(|_| ())
        })
        .unwrap_err();
    assert!(matches!(
        err,
        SimError::MramOverflow { .. } | SimError::BadAddress { .. }
    ));

    // WRAM arena overflow.
    let err = sys
        .execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.alloc_wram::<u64>(1 << 20).map(|_| ())
        })
        .unwrap_err();
    assert!(matches!(err, SimError::WramOverflow { .. }));

    // Misaligned kernel DMA.
    let err = sys
        .execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.mram_write(4, &[1u32]).map(|_| ())
        })
        .unwrap_err();
    assert!(matches!(err, SimError::BadDma { .. }));

    // Host gather past the initialized high-water mark.
    let err = sys.gather_one::<u64>(1 << 40).unwrap_err();
    assert!(matches!(err, SimError::BadAddress { .. }));

    // Push to an out-of-range DPU id.
    let err = sys
        .push(&[HostWrite {
            dpu: 99,
            offset: 0,
            data: &[0],
        }])
        .unwrap_err();
    assert!(matches!(err, SimError::NoSuchDpu { dpu: 99, .. }));

    // Over-allocation.
    assert!(matches!(
        B::allocate(65, PimConfig::tiny(), CostModel::default()),
        Err(SimError::TooManyDpus { .. })
    ));
}

#[test]
fn guards_return_errors_on_timed_backend() {
    guards_return_errors::<TimedBackend>();
}

#[test]
fn guards_return_errors_on_functional_backend() {
    guards_return_errors::<FunctionalBackend>();
}

/// Drives a fixed op sequence and logs which ops fail, on any backend.
fn fault_log<B: PimBackend>(spec: &str) -> Vec<(usize, String)> {
    let mut sys: B = faulty(4, spec);
    // Initialize every bank so later gathers are in-bounds; retry through
    // injected transient failures (each attempt consumes one op index, so
    // the sequence stays deterministic).
    loop {
        match sys.broadcast(0, &[0u8; 8]) {
            Ok(()) => break,
            Err(e) if e.is_transient() => continue,
            Err(e) => panic!("unexpected init error: {e}"),
        }
    }
    let mut log = Vec::new();
    for i in 0..48usize {
        let r: Result<(), SimError> = match i % 3 {
            0 => sys.push(&[HostWrite {
                dpu: i % 4,
                offset: 0,
                data: &[1u8; 8],
            }]),
            1 => sys
                .execute_labeled_masked("probe", |ctx| {
                    let mut t = ctx.tasklet(0)?;
                    t.charge(1);
                    Ok(())
                })
                .map(|_| ()),
            _ => sys.gather(0, 8).map(|_| ()),
        };
        if let Err(e) = r {
            log.push((i, format!("{e:?}")));
        }
    }
    log
}

#[test]
fn injected_faults_replay_identically_across_runs_and_backends() {
    let spec = "seed=11,transfer=120000,launch=120000";
    let timed = fault_log::<TimedBackend>(spec);
    assert!(!timed.is_empty(), "spec should inject something in 48 ops");
    assert_eq!(timed, fault_log::<TimedBackend>(spec));
    assert_eq!(timed, fault_log::<FunctionalBackend>(spec));
    for (_, e) in &timed {
        assert!(e.contains("FaultTransfer") || e.contains("FaultLaunch"));
    }
}

fn dead_dpu_semantics<B: PimBackend>() {
    // DPU 1 dies at op 0: the very first transfer observes the death.
    let mut sys: B = faulty(2, "kill=1@0");
    let err = sys
        .push(&[HostWrite {
            dpu: 0,
            offset: 0,
            data: &[2u8; 8],
        }])
        .unwrap_err();
    assert_eq!(err, SimError::DpuDead { dpu: 1 });
    assert!(sys.is_dpu_lost(1));
    assert!(!sys.is_dpu_lost(0));
    assert_eq!(sys.fault_counters().dpu_deaths, 1);

    // Subsequent pushes to survivors succeed; pushes to the corpse fail.
    sys.push(&[HostWrite {
        dpu: 0,
        offset: 0,
        data: &[2u8; 8],
    }])
    .unwrap();
    let err = sys
        .push(&[HostWrite {
            dpu: 1,
            offset: 0,
            data: &[2u8; 8],
        }])
        .unwrap_err();
    assert_eq!(err, SimError::DpuDead { dpu: 1 });

    // Masked launches skip the corpse; strict launches refuse to run.
    let results = sys
        .execute_labeled_masked("probe", |ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(1);
            Ok(ctx.dpu_id())
        })
        .unwrap();
    assert_eq!(results.len(), 2);
    assert!(results[1].is_none());
    assert_eq!(results[0], Some(0));
    let err = sys
        .execute_labeled("probe", |ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(1);
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, SimError::DpuDead { dpu: 1 });

    // Gathers tombstone the corpse with zeros but read the survivors.
    let out = sys.gather(0, 8).unwrap();
    assert_eq!(out[0], vec![2u8; 8]);
    assert_eq!(out[1], vec![0u8; 8]);
}

#[test]
fn dead_dpu_semantics_on_timed_backend() {
    dead_dpu_semantics::<TimedBackend>();
}

#[test]
fn dead_dpu_semantics_on_functional_backend() {
    dead_dpu_semantics::<FunctionalBackend>();
}

fn corruption_flips_exactly_one_byte<B: PimBackend>() {
    // corrupt=1000000 fires on every transfer op that has a payload.
    let mut sys: B = faulty(2, "seed=5,corrupt=1000000");
    sys.push(&[HostWrite {
        dpu: 0,
        offset: 0,
        data: &[0xFFu8; 16],
    }])
    .unwrap();
    let bank = sys.dpu(0).unwrap().host_read(0, 16).unwrap();
    let flipped: Vec<usize> = (0..16).filter(|&i| bank[i] != 0xFF).collect();
    assert_eq!(flipped.len(), 1, "exactly one byte must differ: {bank:?}");
    assert_eq!(bank[flipped[0]], 0xFF ^ 0xA5);
    assert_eq!(sys.fault_counters().corruptions, 1);
}

#[test]
fn corruption_flips_exactly_one_byte_on_timed_backend() {
    corruption_flips_exactly_one_byte::<TimedBackend>();
}

#[test]
fn corruption_flips_exactly_one_byte_on_functional_backend() {
    corruption_flips_exactly_one_byte::<FunctionalBackend>();
}

#[test]
fn fault_counters_surface_in_system_report_and_serde() {
    let mut sys: TimedBackend = faulty(2, "seed=3,corrupt=1000000,kill=1@1");
    sys.push(&[HostWrite {
        dpu: 0,
        offset: 0,
        data: &[9u8; 8],
    }])
    .unwrap();
    let err = sys.gather(0, 8).unwrap_err();
    assert_eq!(err, SimError::DpuDead { dpu: 1 });
    let report = SystemReport::capture(&sys);
    assert_eq!(report.fault_counters.corruptions, 1);
    assert_eq!(report.fault_counters.dpu_deaths, 1);
    let json = serde_json::to_string(&report).unwrap();
    let back: SystemReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn fault_events_show_up_in_the_trace() {
    let mut sys: TimedBackend = faulty(2, "seed=3,corrupt=1000000");
    let sink = metered(&mut sys);
    sys.push(&[HostWrite {
        dpu: 0,
        offset: 0,
        data: &[9u8; 8],
    }])
    .unwrap();
    let events = sink.events();
    let corrupt =
        |e: &pim_metrics::Event| e.kind == "fault" && e.str_field("fault_kind") == "corrupt";
    assert!(events.iter().any(corrupt), "events: {events:?}");
    // The chrome export must stay valid with fault instants present.
    let chrome = pim_sim::chrome_trace(&events);
    let text = serde_json::to_string(&chrome).unwrap();
    assert!(text.contains("fault:corrupt"));
}

#[test]
fn transient_faults_charge_wasted_time_on_timed_backend() {
    let mut sys: TimedBackend = faulty(2, "seed=1,transfer=1000000");
    let before = sys.phase_times().total();
    let err = sys
        .push(&[HostWrite {
            dpu: 0,
            offset: 0,
            data: &[0u8; 1024],
        }])
        .unwrap_err();
    assert!(err.is_transient());
    assert!(
        sys.phase_times().total() > before,
        "failed transfer must still burn bus time"
    );
    // Nothing landed.
    assert_eq!(sys.total_transfer_bytes(), 0);
}

#[test]
fn fault_free_config_is_unchanged_by_the_fault_plane() {
    // The fault plane must be invisible when no plan is set: identical
    // times, metric streams, and data to a plan-free system.
    let drive = |mut sys: TimedBackend| {
        let sink = metered(&mut sys);
        sys.push(&[HostWrite {
            dpu: 0,
            offset: 0,
            data: &[3u8; 64],
        }])
        .unwrap();
        sys.execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(5);
            Ok(())
        })
        .unwrap();
        (sink.events(), sys.phase_times())
    };
    let plain = drive(tiny(2));
    let with_inert_plan = drive(faulty(2, "seed=9"));
    assert_eq!(plain, with_inert_plan);
}

#[test]
fn fault_state_op_counting_is_stable() {
    // Pin the decision stream shape: a plan with everything at 0 ppm but a
    // kill still consumes op indices deterministically.
    let plan = FaultPlan::parse("kill=0@3").unwrap();
    let mut st = FaultState::new(Some(plan), 2);
    assert!(st.is_active());
    for _ in 0..3 {
        assert_eq!(
            st.decide(OpKind::Transfer),
            pim_sim::fault::FaultDecision::None
        );
    }
    assert!(matches!(
        st.decide(OpKind::Launch),
        pim_sim::fault::FaultDecision::Kill { dpu: 0, op: 3 }
    ));
}
