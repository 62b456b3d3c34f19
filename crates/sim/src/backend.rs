//! The execution-backend seam: one host-side API, one engine with its
//! clock on or off.
//!
//! The PrIM line of work (Gómez-Luna et al., IEEE Access 2022) separates
//! the *functional* behaviour of UPMEM hardware from its *timing
//! characterization*; this module exposes the same split for the
//! simulator. [`PimBackend`] abstracts everything an orchestrator does to
//! the PIM machine — allocation, rank-parallel `push`/`gather` transfers,
//! labeled SPMD kernel launches, phase accounting, metrics and report
//! access. [`PimSystem`] implements it once, and its [`Clock`] parameter
//! picks the mode:
//!
//! * [`TimedBackend`] (`PimSystem<Timed>`): every operation is billed
//!   modeled seconds against the PrIM-calibrated [`CostModel`] and
//!   counted toward energy. Use it whenever modeled time matters.
//! * [`FunctionalBackend`] (`PimSystem<Functional>`): the same operations
//!   on the same MRAM banks, with the same faults and the same per-DPU
//!   cycle, instruction and DMA counters (the cost model still prices
//!   kernel work, and the count kernel picks its strategy from it). Only
//!   the clock is off: phase times, transfer seconds, energy and every
//!   metric event's `seconds` report zero. Use it for correctness tests,
//!   proptests, and exact-count baselines.
//!
//! Both modes are bit-identical on *data*: MRAM contents, kernel results,
//! and gathered bytes never differ (the equivalence proptests in `pim-tc`
//! pin this), and their metric streams differ only in `seconds`.
//!
//! [`Clock`]: crate::system::Clock

use crate::config::PimConfig;
use crate::cost::{CostModel, SimSeconds};
use crate::dpu::Dpu;
use crate::energy::EnergyReport;
use crate::error::{SimError, SimResult};
use crate::fault::FaultCounters;
use crate::kernel::{DpuContext, Pod};
use crate::phase::{Phase, PhaseTimes};
use crate::stats::Ledger;
use crate::system::{Functional, HostWrite, PimSystem, Timed};
use pim_metrics::MetricsHub;
use std::sync::Arc;

/// Host-side driver interface for a set of allocated PIM cores.
///
/// Orchestrators (e.g. `pim-tc`'s `TcSession`) are written against this
/// trait so the same pipeline runs with the clock on or off, on one rank
/// or many. Kernel launches are generic over the closure and its result
/// type, so the trait is used through generics (static dispatch), not
/// trait objects.
pub trait PimBackend: Send {
    /// Allocates `nr_dpus` PIM cores under the given hardware shape and
    /// cost model, charging the setup cost when the clock runs.
    fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self>
    where
        Self: Sized;

    /// Number of allocated PIM cores.
    fn nr_dpus(&self) -> usize;

    /// Hardware configuration in effect.
    fn config(&self) -> &PimConfig;

    /// Cost model in effect (kernels price their work with it even when
    /// the clock is off).
    fn cost(&self) -> &CostModel;

    /// Read-only access to a DPU (host-side inspection; tests and result
    /// gathering).
    fn dpu(&self, id: usize) -> SimResult<&Dpu>;

    /// Mutable access to a DPU bank, bypassing the modeled transfer path.
    /// This is the chaos-harness escape hatch: tests use it to flip bits
    /// in resident banks out of band (modeling radiation upsets the fault
    /// plan cannot schedule) and assert that scrubbing catches them. It
    /// charges no time and injects no faults. Not for orchestrators — data
    /// planes must go through `push`/`broadcast` so transfers stay modeled
    /// and faultable.
    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu>;

    /// Switches the phase that subsequent costs accrue to.
    fn set_phase(&mut self, phase: Phase);

    /// Phase currently accruing time.
    fn phase(&self) -> Phase;

    /// Everything settled so far: phase times, transfer totals, fault
    /// counters and per-kernel aggregates. A cluster folds its ranks'.
    fn ledger(&self) -> Ledger;

    /// Modeled per-phase times so far (all-zero with the clock off).
    fn phase_times(&self) -> PhaseTimes {
        self.ledger().times
    }

    /// Attaches a live metrics hub: transfers, launches, host spans, and
    /// faults are emitted as structured events and folded into the hub's
    /// registry as they happen. Attach immediately after allocation for a
    /// complete stream. The event sequence for a workload does not depend
    /// on the clock: with it off every `seconds` is zero, but counts
    /// (bytes, cycles, instructions, faults) are identical.
    fn attach_metrics(&mut self, hub: Arc<MetricsHub>);

    /// Folds measured host-side seconds (e.g. batch-creation wall time)
    /// into the current phase under a span label, so the metric stream
    /// (and the Chrome trace rendered from it) shows *which*
    /// host work the time went to. The paper's timings include host work;
    /// the simulator cannot model arbitrary host Rust code, so the
    /// orchestrator measures it and accounts it here. With the clock off
    /// the span is still emitted, with zero seconds.
    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds);

    /// Executes a rank-parallel CPU→PIM transfer batch. Data lands in MRAM
    /// immediately; modeled time (max per-DPU payload vs. aggregate
    /// bandwidth cap) accrues to the current phase. The batch is borrowed:
    /// a caller retrying a failed push re-sends the same writes.
    fn push(&mut self, writes: &[HostWrite]) -> SimResult<()>;

    /// Broadcasts the same payload to every DPU at the same offset (UPMEM
    /// supports this as an optimized parallel transfer; modeled as one
    /// rank-parallel batch).
    fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()>;

    /// Gathers `len` bytes at `offset` from every DPU (PIM→CPU transfer),
    /// charging one rank-parallel batch.
    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>>;

    /// Typed convenience over [`PimBackend::gather`]: one `T` per DPU
    /// read from the same offset.
    fn gather_one<T: Pod>(&mut self, offset: u64) -> SimResult<Vec<T>> {
        Ok(self
            .gather(offset, T::BYTES as u64)?
            .into_iter()
            .map(|bytes| T::read_le(&bytes))
            .collect())
    }

    /// Launches a labeled SPMD kernel on every allocated DPU, returning
    /// each DPU's result in id order. The label lets metric events and the
    /// [`Ledger`]'s kernel aggregates attribute time to a specific
    /// kernel (e.g. `"sort"` vs `"count"`). The launch bills
    /// `launch_overhead + max per-DPU cycles` to the current phase when
    /// the clock runs. Survivors run even when a core is dead; the launch
    /// then fails with [`SimError::DpuDead`] for the lowest dead id.
    fn execute_labeled<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized,
    {
        self.execute_labeled_masked(label, kernel)?
            .into_iter()
            .enumerate()
            .map(|(dpu, r)| r.ok_or(SimError::DpuDead { dpu }))
            .collect()
    }

    /// [`PimBackend::execute_labeled`] under the generic `"kernel"` label.
    fn execute<R, K>(&mut self, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized,
    {
        self.execute_labeled("kernel", kernel)
    }

    /// Like [`PimBackend::execute_labeled`], but tolerant of permanently
    /// dead DPUs (see [`crate::fault`]): their slots come back as `None`
    /// instead of failing the launch. Fault-aware orchestrators use this
    /// to keep driving the survivors.
    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized;

    /// Whether the fault plan has permanently killed `dpu`. Always false
    /// without an active plan.
    fn is_dpu_lost(&self, dpu: usize) -> bool;

    /// Counters of faults injected so far (all-zero without a plan).
    fn fault_counters(&self) -> FaultCounters {
        self.ledger().faults
    }

    /// Total CPU↔PIM bytes moved so far (tracked with the clock off too —
    /// it is a data quantity, not a time).
    fn total_transfer_bytes(&self) -> u64 {
        self.ledger().transfer_bytes
    }

    /// Energy totals for everything executed so far, derived from the
    /// lifetime activity counters and the modeled runtime (all-zero with
    /// the clock off).
    fn energy_report(&self) -> EnergyReport;

    /// Frees the PIM cores, returning the final phase times. (Dropping the
    /// system works too; this makes the hand-off explicit in orchestrator
    /// code, mirroring `dpu_free` in the UPMEM SDK.)
    fn release(self) -> PhaseTimes
    where
        Self: Sized,
    {
        self.phase_times()
    }
}

/// The engine with its clock on: full cycle, transfer-bandwidth and
/// energy accounting.
pub type TimedBackend = PimSystem<Timed>;

/// The engine with its clock off: same banks, same kernels, same
/// counters, zero seconds.
pub type FunctionalBackend = PimSystem<Functional>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::system::{decode_slice, encode_slice};

    /// The same small pipeline, written once against the trait.
    fn drive<B: PimBackend>(mut sys: B) -> (Vec<u32>, PhaseTimes, u64) {
        sys.set_phase(Phase::SampleCreation);
        let payloads: Vec<Vec<u8>> = (1..5u32).map(|v| encode_slice(&[v; 8])).collect();
        let writes: Vec<HostWrite> = (payloads.iter().enumerate())
            .map(|(dpu, data)| HostWrite {
                dpu,
                offset: 0,
                data,
            })
            .collect();
        sys.push(&writes).unwrap();
        sys.set_phase(Phase::TriangleCount);
        sys.execute_labeled("sum", |ctx| {
            let mut t = ctx.tasklet(0)?;
            let mut buf = [0u32; 8];
            t.mram_read(0, &mut buf)?;
            t.charge(8);
            let sum: u32 = buf.iter().sum();
            t.mram_write_one(64, sum)?;
            Ok(())
        })
        .unwrap();
        let out: Vec<u32> = sys.gather_one(64).unwrap();
        let bytes = sys.total_transfer_bytes();
        (out, sys.release(), bytes)
    }

    #[test]
    fn backends_agree_on_data_and_disagree_on_time() {
        let timed =
            <TimedBackend as PimBackend>::allocate(4, PimConfig::tiny(), CostModel::default())
                .unwrap();
        let func =
            <FunctionalBackend as PimBackend>::allocate(4, PimConfig::tiny(), CostModel::default())
                .unwrap();
        let (timed_out, timed_times, timed_bytes) = drive(timed);
        let (func_out, func_times, func_bytes) = drive(func);
        assert_eq!(timed_out, vec![8, 16, 24, 32]);
        assert_eq!(timed_out, func_out);
        assert_eq!(timed_bytes, func_bytes);
        assert!(timed_times.total() > 0.0);
        assert_eq!(func_times.total(), 0.0);
    }

    #[test]
    fn functional_backend_moves_data_without_charging_time() {
        let mut sys = FunctionalBackend::allocate_default(2).unwrap();
        sys.broadcast(0, &encode_slice(&[7u64, 9])).unwrap();
        for id in 0..2 {
            let bytes = sys.dpu(id).unwrap().host_read(0, 16).unwrap();
            assert_eq!(decode_slice::<u64>(bytes), vec![7, 9]);
        }
        assert_eq!(sys.total_transfer_bytes(), 32);
        assert_eq!(sys.ledger().transfer_seconds, 0.0);
        assert_eq!(sys.phase_times(), PhaseTimes::default());
        assert_eq!(sys.energy_report().total_j(), 0.0);
    }

    #[test]
    fn functional_backend_renders_a_zero_length_timeline() {
        let mut sys = FunctionalBackend::allocate_default(2).unwrap();
        let sink = crate::chrome::metered(&mut sys);
        sys.set_phase(Phase::SampleCreation);
        sys.broadcast(0, &[0u8; 64]).unwrap();
        sys.execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(10);
            Ok(())
        })
        .unwrap();
        // Every operation is on the timeline, and none takes any time.
        let chrome = crate::chrome_trace(&sink.events());
        let spans: Vec<_> = (chrome.get("traceEvents").unwrap().as_array().unwrap())
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        let names: Vec<&str> = spans
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["allocate", "broadcast", "kernel:kernel"]);
        assert!(spans
            .iter()
            .all(|e| e.get("dur").unwrap().as_f64() == Some(0.0)));
    }

    #[test]
    fn functional_backend_enforces_machine_limits() {
        let cfg = PimConfig::tiny();
        assert!(matches!(
            <FunctionalBackend as PimBackend>::allocate(65, cfg, CostModel::default()),
            Err(SimError::TooManyDpus { .. })
        ));
        let mut sys = FunctionalBackend::allocate_default(1).unwrap();
        assert!(matches!(
            sys.push(&[HostWrite {
                dpu: 5,
                offset: 0,
                data: &[0],
            }]),
            Err(SimError::NoSuchDpu { dpu: 5, .. })
        ));
        assert!(sys.dpu(3).is_err());
    }

    #[test]
    fn backends_emit_equivalent_metric_streams() {
        use crate::fault::FaultPlan;
        use pim_metrics::{summarize, Event, FieldValue, MemorySink};

        /// Every op kind, tolerating the faults the plan injects.
        fn exercise<B: PimBackend>(sys: &mut B) {
            for round in 0..16u32 {
                sys.set_phase(if round % 2 == 0 {
                    Phase::SampleCreation
                } else {
                    Phase::TriangleCount
                });
                let payloads: Vec<Vec<u8>> =
                    (0..4).map(|dpu| encode_slice(&[round + dpu; 8])).collect();
                let writes: Vec<HostWrite> = (payloads.iter().enumerate())
                    .filter(|&(dpu, _)| !sys.is_dpu_lost(dpu))
                    .map(|(dpu, data)| HostWrite {
                        dpu,
                        offset: 0,
                        data,
                    })
                    .collect();
                let _ = sys.push(&writes);
                let _ = sys.broadcast(64, &encode_slice(&[round; 4]));
                let _ = sys.execute_labeled_masked("sum", |ctx| {
                    let mut t = ctx.tasklet(0)?;
                    let mut buf = [0u32; 8];
                    t.mram_read(0, &mut buf)?;
                    t.charge(8 + u64::from(buf[0]));
                    Ok(())
                });
                let _ = sys.gather(0, 32);
                sys.charge_host_seconds_labeled("retry_backoff", 1e-3);
            }
        }

        fn run<B: PimBackend>(config: PimConfig) -> Vec<Event> {
            let mut sys = B::allocate(4, config, CostModel::default()).unwrap();
            let hub = Arc::new(MetricsHub::new());
            let sink = MemorySink::new();
            hub.add_sink(Box::new(sink.clone()));
            sys.attach_metrics(hub);
            exercise(&mut sys);
            sink.events()
        }

        fn fault_kinds(events: &[Event]) -> Vec<&str> {
            let mut kinds: Vec<&str> = events
                .iter()
                .filter(|e| e.kind == "fault")
                .map(|e| e.str_field("fault_kind"))
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds
        }

        let plan = "seed=5,transfer=200000,corrupt=200000,launch=200000,kill=2@30";
        let faulty = PimConfig {
            fault: Some(FaultPlan::parse(plan).unwrap()),
            ..PimConfig::tiny()
        };
        for (config, kinds) in [
            (PimConfig::tiny(), vec![]),
            (
                faulty,
                vec!["corrupt", "kill", "launch_fail", "transfer_fail"],
            ),
        ] {
            let timed = run::<TimedBackend>(config);
            let func = run::<FunctionalBackend>(config);
            assert_eq!(fault_kinds(&timed), kinds);
            // Only the clocks differ: with every timed `seconds` zeroed the
            // two streams are the same events, field for field.
            assert!(summarize(&timed).total_seconds() > 0.0);
            assert_eq!(summarize(&func).total_seconds(), 0.0);
            let mut clock_off = timed;
            for (name, value) in clock_off.iter_mut().flat_map(|e| e.fields.iter_mut()) {
                if name == "seconds" {
                    *value = FieldValue::F64(0.0);
                }
            }
            assert_eq!(clock_off, func);
        }
    }

    #[test]
    fn timed_metric_seconds_close_against_phase_times() {
        use pim_metrics::{summarize, MemorySink};
        let mut sys =
            <TimedBackend as PimBackend>::allocate(4, PimConfig::tiny(), CostModel::default())
                .unwrap();
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        sys.attach_metrics(hub);
        sys.set_phase(Phase::SampleCreation);
        sys.broadcast(0, &encode_slice(&[1u32; 16])).unwrap();
        sys.charge_host_seconds_labeled("route_edges", 0.125);
        sys.set_phase(Phase::TriangleCount);
        sys.execute_labeled("count", |ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(100);
            Ok(())
        })
        .unwrap();
        sys.gather(0, 64).unwrap();
        let times = sys.phase_times();
        let summary = summarize(&sink.events());
        assert!(
            (summary.total_seconds() - times.total()).abs() < 1e-12,
            "stream {} vs phases {}",
            summary.total_seconds(),
            times.total()
        );
    }

    #[test]
    fn functional_kernel_errors_propagate() {
        let mut sys = FunctionalBackend::allocate_default(2).unwrap();
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
    }
}
