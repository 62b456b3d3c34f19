//! The host-side view of the PIM machine: allocation, transfers, kernel
//! launches, and phase timing.
//!
//! There is one engine, [`PimSystem`], and its clock can be switched off.
//! Under [`Timed`] every operation is billed modeled seconds from the
//! [`CostModel`]; under [`Functional`] the same operations run on the same
//! banks, with the same faults and per-DPU counters, but bill zero seconds
//! and no energy. Each operation builds one `OpRecord`, and `settle` is
//! the only code that turns a record into the engine's [`Ledger`] and
//! metric events.

use crate::backend::PimBackend;
use crate::config::PimConfig;
use crate::cost::{CostModel, DmaTable, SimSeconds};
use crate::dpu::Dpu;
use crate::energy::{EnergyModel, EnergyReport};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultDecision, FaultState, OpKind};
use crate::kernel::{DpuContext, Pod};
use crate::phase::Phase;
use crate::stats::{KernelAgg, Ledger};
use pim_metrics::{LaunchDist, LaunchObs, MetricsHub};
use rayon::prelude::*;
use std::marker::PhantomData;
use std::sync::Arc;

/// XOR mask applied to the victim byte of a corrupted payload.
const CORRUPT_MASK: u8 = 0xA5;

/// Fewest DPUs one host thread runs per launch chunk. A launch on fewer
/// than twice this many DPUs runs inline on the calling thread: a small
/// kernel finishes in microseconds, less than a thread spawn costs.
const LAUNCH_MIN_DPUS_PER_CHUNK: usize = 32;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Timed {}
    impl Sealed for super::Functional {}
}

/// Whether a [`PimSystem`] runs its modeled clock. Sealed: [`Timed`] and
/// [`Functional`] are the only two modes.
pub trait Clock: sealed::Sealed + Send + 'static {
    /// Whether operations are billed modeled seconds.
    const TIMED: bool;
}

/// Clock on: operations are billed modeled seconds and counted toward
/// energy.
#[derive(Clone, Copy, Debug)]
pub struct Timed;

/// Clock off: the same data movement, kernels, faults and per-DPU cycle,
/// instruction and DMA counters as [`Timed`], with zero seconds and no
/// energy.
#[derive(Clone, Copy, Debug)]
pub struct Functional;

impl Clock for Timed {
    const TIMED: bool = true;
}

impl Clock for Functional {
    const TIMED: bool = false;
}

/// One host→DPU write request in a parallel transfer batch. The payload
/// is borrowed from the caller, so a retried or rank-scattered batch
/// re-sends the same bytes without copying them.
#[derive(Clone, Copy, Debug)]
pub struct HostWrite<'a> {
    /// Target DPU id.
    pub dpu: usize,
    /// Destination MRAM offset (bytes).
    pub offset: u64,
    /// Payload.
    pub data: &'a [u8],
}

/// A set of allocated PIM cores plus the machinery to drive them:
/// rank-parallel transfers, SPMD kernel launches, and per-phase modeled
/// time (§4.1: Setup / Sample Creation / Triangle Count). The operations
/// are the [`PimBackend`] methods; `C` says whether they run the clock.
pub struct PimSystem<C: Clock = Timed> {
    config: PimConfig,
    cost: CostModel,
    /// `cost`'s DMA prices, tabulated once for every launch.
    dma: DmaTable,
    dpus: Vec<Dpu>,
    phase: Phase,
    ledger: Ledger,
    fault: FaultState,
    metrics: Option<Arc<MetricsHub>>,
    clock: PhantomData<C>,
}

/// One operation as the engine saw it. Its modeled seconds follow from it
/// and the cost model (see [`OpRecord::seconds`]).
enum OpRecord {
    /// Core allocation plus kernel binary load.
    Alloc { nr_dpus: usize },
    /// A CPU↔PIM batch: `name` is `push`, `broadcast` or `gather`, and
    /// `units` counts writes (push) or DPUs. A failed batch lands no bytes
    /// but still holds the bus for `per_dpu_bytes`.
    Transfer {
        name: &'static str,
        units: usize,
        per_dpu_bytes: Vec<u64>,
        ok: bool,
    },
    /// An SPMD launch. The per-DPU vectors are indexed by DPU id with
    /// dead cores as zeros; a failed launch wastes its round-trip before
    /// any tasklet runs and has none.
    Launch {
        label: String,
        per_dpu_cycles: Vec<u64>,
        per_dpu_instructions: Vec<u64>,
        per_dpu_dma_bytes: Vec<u64>,
        ok: bool,
    },
    /// Measured host work folded into the clock.
    Host { label: String, seconds: SimSeconds },
    /// A fault the plan injected. It costs nothing itself: a failed op
    /// bills its wasted time through its own record.
    Fault {
        kind: &'static str,
        op: u64,
        dpu: Option<usize>,
    },
}

impl OpRecord {
    /// Modeled seconds of the operation. A launch costs
    /// `launch_overhead + max per-DPU cycles`, because the host waits for
    /// the slowest core — the load-imbalance sensitivity the paper's
    /// edge-distribution analysis (§3.1) is about.
    fn seconds(&self, cost: &CostModel) -> SimSeconds {
        match self {
            OpRecord::Alloc { nr_dpus } => cost.setup_seconds(*nr_dpus),
            OpRecord::Transfer { per_dpu_bytes, .. } => cost.transfer_seconds(per_dpu_bytes),
            OpRecord::Launch { per_dpu_cycles, .. } => {
                let max_cycles = per_dpu_cycles.iter().copied().max().unwrap_or(0);
                cost.launch_overhead + cost.cycles_to_seconds(max_cycles)
            }
            OpRecord::Host { seconds, .. } => *seconds,
            OpRecord::Fault { .. } => 0.0,
        }
    }
}

/// The victim a corruption `salt` selects among `payloads` (index,
/// length): one non-empty payload, and a byte offset within it.
fn corruption_target(
    salt: u64,
    payloads: impl Iterator<Item = (usize, usize)>,
) -> Option<(usize, u64)> {
    let victims: Vec<(usize, usize)> = payloads.filter(|&(_, len)| len > 0).collect();
    let &(i, len) = victims.get(salt as usize % victims.len().max(1))?;
    Some((i, (salt >> 8) % len as u64))
}

impl PimSystem {
    /// Allocates `nr_dpus` PIM cores on the timed engine, charging the
    /// setup cost (core allocation + kernel binary load) to the Setup
    /// phase. A bare `PimSystem::allocate(..)` means the timed engine;
    /// other clocks allocate through [`PimBackend::allocate`].
    pub fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self> {
        <Self as PimBackend>::allocate(nr_dpus, config, cost)
    }
}

impl<C: Clock> PimSystem<C> {
    /// Allocates with the default config and cost model.
    pub fn allocate_default(nr_dpus: usize) -> SimResult<Self> {
        <Self as PimBackend>::allocate(nr_dpus, PimConfig::default(), CostModel::default())
    }

    /// Consults the fault plan for the next operation. A kill, or a
    /// transient failure (which settles the `wasted` record so its time
    /// still reaches the clock), becomes the op's error; any other
    /// decision comes back and the op runs.
    fn admit(
        &mut self,
        kind: OpKind,
        wasted: impl FnOnce() -> OpRecord,
    ) -> SimResult<FaultDecision> {
        let decision = self.fault.decide(kind);
        match decision {
            FaultDecision::Kill { dpu, op } => {
                self.settle(OpRecord::Fault {
                    kind: "kill",
                    op,
                    dpu: Some(dpu),
                });
                Err(SimError::DpuDead { dpu })
            }
            FaultDecision::Fail { op } => {
                let (kind, err) = match kind {
                    OpKind::Transfer => ("transfer_fail", SimError::FaultTransfer { op }),
                    OpKind::Launch => ("launch_fail", SimError::FaultLaunch { op }),
                };
                self.settle(OpRecord::Fault {
                    kind,
                    op,
                    dpu: None,
                });
                self.settle(wasted());
                Err(err)
            }
            FaultDecision::None | FaultDecision::Corrupt { .. } => Ok(decision),
        }
    }

    /// Settles a corruption applied to `dpu`'s payload.
    fn corrupted(&mut self, op: u64, dpu: usize) {
        self.settle(OpRecord::Fault {
            kind: "corrupt",
            op,
            dpu: Some(dpu),
        });
    }

    /// The one place operation bookkeeping happens: bills the record's
    /// seconds (zero with the clock off) to the current phase, and folds
    /// the same record into the ledger and the metric events.
    fn settle(&mut self, record: OpRecord) {
        let phase = self.phase;
        let seconds = if C::TIMED {
            record.seconds(&self.cost)
        } else {
            0.0
        };
        self.ledger.times.add(phase, seconds);
        let hub = self.metrics.as_deref();
        match record {
            // No hub can be attached yet: `attach_metrics` emits `alloc`.
            OpRecord::Alloc { .. } => {}
            OpRecord::Transfer {
                name,
                units,
                per_dpu_bytes,
                ok,
            } => {
                let bytes = if ok { per_dpu_bytes.iter().sum() } else { 0 };
                self.ledger.transfer_bytes += bytes;
                self.ledger.transfer_seconds += seconds;
                if let Some(hub) = hub {
                    let units = units as u64;
                    hub.transfer(name, phase.metric_name(), units, bytes, seconds, ok);
                }
            }
            OpRecord::Launch {
                label,
                per_dpu_cycles,
                per_dpu_instructions,
                per_dpu_dma_bytes,
                ok,
            } => {
                // The distribution covers the cores that ran: a dead
                // core's zeros would skew its mean, percentiles and
                // imbalance.
                let dead = self.fault.dead_flags();
                let live = |per_dpu: &[u64]| -> Vec<u64> {
                    let alive = |&(d, _): &(usize, &u64)| !dead.get(d).copied().unwrap_or(false);
                    per_dpu
                        .iter()
                        .enumerate()
                        .filter(alive)
                        .map(|(_, &v)| v)
                        .collect()
                };
                let cycles = live(&per_dpu_cycles);
                let dist = LaunchDist::of(&cycles);
                if let Some(hub) = hub {
                    hub.launch(LaunchObs {
                        label: label.clone(),
                        phase: phase.metric_name(),
                        dist,
                        instructions: per_dpu_instructions.iter().sum(),
                        dma_bytes: per_dpu_dma_bytes.iter().sum(),
                        seconds,
                        ok,
                    });
                    if ok {
                        let dma = live(&per_dpu_dma_bytes);
                        hub.launch_hist(&label, phase.metric_name(), &dist, &cycles, &dma);
                    }
                }
                self.ledger.add_kernel(KernelAgg {
                    label,
                    phase,
                    launches: 1,
                    failed: u64::from(!ok),
                    seconds,
                    max_cycles: dist.max_cycles,
                    p50_cycles: dist.p50_cycles,
                    p99_cycles: dist.p99_cycles,
                    imbalance: dist.imbalance,
                });
            }
            OpRecord::Host { label, .. } => {
                if let Some(hub) = hub {
                    hub.host(&label, phase.metric_name(), seconds);
                }
            }
            OpRecord::Fault { kind, op, dpu } => {
                self.ledger.faults.count(kind);
                if let Some(hub) = hub {
                    hub.fault(kind, phase.metric_name(), op, dpu.map(|d| d as u64));
                }
            }
        }
    }
}

impl<C: Clock> PimBackend for PimSystem<C> {
    fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self> {
        if nr_dpus > config.total_dpus {
            return Err(SimError::TooManyDpus {
                requested: nr_dpus,
                available: config.total_dpus,
            });
        }
        let mut sys = PimSystem {
            config,
            cost,
            dma: DmaTable::new(&cost),
            dpus: (0..nr_dpus)
                .map(|id| Dpu::new(id, config.mram_capacity, config.nr_tasklets))
                .collect(),
            phase: Phase::Setup,
            ledger: Ledger::default(),
            fault: FaultState::new(config.fault, nr_dpus),
            metrics: None,
            clock: PhantomData,
        };
        sys.settle(OpRecord::Alloc { nr_dpus });
        Ok(sys)
    }

    fn nr_dpus(&self) -> usize {
        self.dpus.len()
    }

    fn config(&self) -> &PimConfig {
        &self.config
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn dpu(&self, id: usize) -> SimResult<&Dpu> {
        self.dpus.get(id).ok_or(SimError::NoSuchDpu {
            dpu: id,
            allocated: self.dpus.len(),
        })
    }

    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu> {
        let allocated = self.dpus.len();
        self.dpus
            .get_mut(id)
            .ok_or(SimError::NoSuchDpu { dpu: id, allocated })
    }

    fn set_phase(&mut self, phase: Phase) {
        if self.phase != phase {
            if let Some(hub) = &self.metrics {
                hub.phase_change(phase.metric_name());
            }
        }
        self.phase = phase;
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn ledger(&self) -> Ledger {
        self.ledger.clone()
    }

    /// The time accrued so far (allocation) is emitted as one `alloc`
    /// event, so the stream's seconds close against
    /// [`PimBackend::phase_times`].
    fn attach_metrics(&mut self, hub: Arc<MetricsHub>) {
        hub.alloc(self.dpus.len() as u64, self.ledger.times.total());
        self.metrics = Some(hub);
    }

    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds) {
        self.settle(OpRecord::Host {
            label: label.to_string(),
            seconds,
        });
    }

    fn push(&mut self, writes: &[HostWrite]) -> SimResult<()> {
        let mut per_dpu_bytes = vec![0u64; self.dpus.len()];
        for w in writes {
            if w.dpu >= self.dpus.len() {
                return Err(SimError::NoSuchDpu {
                    dpu: w.dpu,
                    allocated: self.dpus.len(),
                });
            }
            if self.fault.is_dead(w.dpu) {
                return Err(SimError::DpuDead { dpu: w.dpu });
            }
            per_dpu_bytes[w.dpu] += w.data.len() as u64;
        }
        let units = writes.len();
        let decision = self.admit(OpKind::Transfer, || OpRecord::Transfer {
            name: "push",
            units,
            per_dpu_bytes: per_dpu_bytes.clone(),
            ok: false,
        })?;
        for w in writes {
            self.dpus[w.dpu].host_write(w.offset, w.data)?;
        }
        if let FaultDecision::Corrupt { salt, op } = decision {
            let payloads = writes.iter().map(|w| w.data.len()).enumerate();
            if let Some((i, byte)) = corruption_target(salt, payloads) {
                let w = &writes[i];
                let flipped = w.data[byte as usize] ^ CORRUPT_MASK;
                self.dpus[w.dpu].host_write(w.offset + byte, &[flipped])?;
                self.corrupted(op, w.dpu);
            }
        }
        self.settle(OpRecord::Transfer {
            name: "push",
            units,
            per_dpu_bytes,
            ok: true,
        });
        Ok(())
    }

    /// The payload is shared across DPUs — nothing is cloned per core, so
    /// broadcasting a large sample to thousands of DPUs costs one write
    /// per bank, not one allocation per bank. Accounting is identical to
    /// `push` with the equivalent per-DPU write batch.
    fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()> {
        let per_dpu_bytes: Vec<u64> = (0..self.dpus.len())
            .map(|d| {
                if self.fault.is_dead(d) {
                    0
                } else {
                    data.len() as u64
                }
            })
            .collect();
        let units = self.dpus.len();
        let decision = self.admit(OpKind::Transfer, || OpRecord::Transfer {
            name: "broadcast",
            units,
            per_dpu_bytes: per_dpu_bytes.clone(),
            ok: false,
        })?;
        for dpu in &mut self.dpus {
            if !self.fault.is_dead(dpu.id()) {
                dpu.host_write(offset, data)?;
            }
        }
        if let FaultDecision::Corrupt { salt, op } = decision {
            let live = (0..units).filter(|&d| !self.fault.is_dead(d));
            if let Some((d, byte)) = corruption_target(salt, live.map(|d| (d, data.len()))) {
                let flipped = data[byte as usize] ^ CORRUPT_MASK;
                self.dpus[d].host_write(offset + byte, &[flipped])?;
                self.corrupted(op, d);
            }
        }
        self.settle(OpRecord::Transfer {
            name: "broadcast",
            units,
            per_dpu_bytes,
            ok: true,
        });
        Ok(())
    }

    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>> {
        let per_dpu_bytes = vec![len; self.dpus.len()];
        let units = self.dpus.len();
        let decision = self.admit(OpKind::Transfer, || OpRecord::Transfer {
            name: "gather",
            units,
            per_dpu_bytes: per_dpu_bytes.clone(),
            ok: false,
        })?;
        // Dead DPUs answer with zeroed tombstones so positional indexing by
        // DPU id keeps working for the survivors.
        let mut out = self
            .dpus
            .iter()
            .map(|d| {
                if self.fault.is_dead(d.id()) {
                    Ok(vec![0u8; len as usize])
                } else {
                    d.host_read(offset, len).map(<[u8]>::to_vec)
                }
            })
            .collect::<SimResult<Vec<Vec<u8>>>>()?;
        if let FaultDecision::Corrupt { salt, op } = decision {
            let live = (0..units).filter(|&d| !self.fault.is_dead(d));
            if let Some((d, byte)) = corruption_target(salt, live.map(|d| (d, out[d].len()))) {
                out[d][byte as usize] ^= CORRUPT_MASK;
                self.corrupted(op, d);
            }
        }
        self.settle(OpRecord::Transfer {
            name: "gather",
            units,
            per_dpu_bytes,
            ok: true,
        });
        Ok(out)
    }

    /// Runs the kernel on every live DPU, in parallel on the host via
    /// rayon — DPUs are independent hardware.
    ///
    /// Grain: the DPUs split into contiguous chunks of at least
    /// `LAUNCH_MIN_DPUS_PER_CHUNK`, claimed by up to one thread per host
    /// CPU; a launch on fewer than twice that many DPUs runs inline on the
    /// caller. Results, counters and the settled record do not depend on
    /// the split. After a kernel error on DPU `i` the launch returns that
    /// error (the lowest-id one), but DPUs in other chunks, including ones
    /// above `i`, may already have run the kernel.
    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        self.admit(OpKind::Launch, || OpRecord::Launch {
            label: label.to_string(),
            per_dpu_cycles: Vec::new(),
            per_dpu_instructions: Vec::new(),
            per_dpu_dma_bytes: Vec::new(),
            ok: false,
        })?;
        let config = self.config;
        let cost = self.cost;
        let dma = &self.dma;
        let dead: Vec<bool> = self.fault.dead_flags().to_vec();
        let is_dead = |id: usize| dead.get(id).copied().unwrap_or(false);
        let results = self
            .dpus
            .par_iter_mut()
            .with_min_len(LAUNCH_MIN_DPUS_PER_CHUNK)
            .map(|dpu| {
                if is_dead(dpu.id()) {
                    return Ok((None, 0));
                }
                dpu.reset_kernel_counters();
                let mut ctx = DpuContext {
                    dpu,
                    config: &config,
                    dma,
                };
                let r = kernel(&mut ctx)?;
                let cycles = cost.dpu_cycles(&ctx.dpu.tasklet_instr, ctx.dpu.dma_cycles);
                Ok((Some(r), cycles))
            })
            .collect::<SimResult<Vec<(Option<R>, u64)>>>()?;
        // The per-kernel counters were reset at launch, so they describe
        // exactly this launch. Dead DPUs report zeros: their counters are
        // stale leftovers from before they died.
        let per_dpu = |count: fn(&Dpu) -> u64| -> Vec<u64> {
            let live = |d: &Dpu| if is_dead(d.id()) { 0 } else { count(d) };
            self.dpus.iter().map(live).collect()
        };
        let per_dpu_instructions = per_dpu(|d| d.tasklet_instr.iter().sum());
        let per_dpu_dma_bytes = per_dpu(|d| d.kernel_dma_bytes);
        let (results, per_dpu_cycles): (Vec<Option<R>>, Vec<u64>) = results.into_iter().unzip();
        self.settle(OpRecord::Launch {
            label: label.to_string(),
            per_dpu_cycles,
            per_dpu_instructions,
            per_dpu_dma_bytes,
            ok: true,
        });
        Ok(results)
    }

    fn is_dpu_lost(&self, dpu: usize) -> bool {
        self.fault.is_dead(dpu)
    }

    fn energy_report(&self) -> EnergyReport {
        if !C::TIMED {
            return EnergyReport::default();
        }
        let instructions: u64 = self.dpus.iter().map(Dpu::lifetime_instructions).sum();
        let dma_bytes: u64 = self.dpus.iter().map(Dpu::lifetime_dma_bytes).sum();
        EnergyModel::default().report(
            instructions,
            dma_bytes,
            self.ledger.transfer_bytes,
            self.dpus.len(),
            self.ledger.times.total(),
        )
    }
}

/// Encodes a typed slice into the little-endian byte layout used in MRAM.
pub fn encode_slice<T: Pod>(items: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; items.len() * T::BYTES];
    for (i, item) in items.iter().enumerate() {
        item.write_le(&mut out[i * T::BYTES..]);
    }
    out
}

/// Decodes MRAM bytes into a typed vector. Panics if `bytes` is not a
/// multiple of the element size.
pub fn decode_slice<T: Pod>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(bytes.len() % T::BYTES, 0, "byte length not element-aligned");
    bytes.chunks_exact(T::BYTES).map(T::read_le).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> PimSystem {
        PimSystem::allocate(4, PimConfig::tiny(), CostModel::default()).unwrap()
    }

    #[test]
    fn allocation_respects_machine_size() {
        let cfg = PimConfig::tiny();
        assert!(PimSystem::allocate(64, cfg, CostModel::default()).is_ok());
        assert!(matches!(
            PimSystem::allocate(65, cfg, CostModel::default()),
            Err(SimError::TooManyDpus { .. })
        ));
    }

    #[test]
    fn allocation_charges_setup() {
        let sys = small_system();
        assert!(sys.phase_times().setup > 0.0);
        assert_eq!(sys.phase_times().sample_creation, 0.0);
    }

    #[test]
    fn push_then_kernel_then_gather() {
        let mut sys = small_system();
        sys.set_phase(Phase::SampleCreation);
        // Each DPU gets its id repeated as u32s.
        let payloads: Vec<Vec<u8>> = (0..4u32).map(|id| encode_slice(&[id; 8])).collect();
        let writes: Vec<HostWrite> = (payloads.iter().enumerate())
            .map(|(dpu, data)| HostWrite {
                dpu,
                offset: 0,
                data,
            })
            .collect();
        sys.push(&writes).unwrap();

        sys.set_phase(Phase::TriangleCount);
        // Kernel: every tasklet sums the values, tasklet 0 writes the sum.
        let results = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                let mut buf = [0u32; 8];
                t.mram_read(0, &mut buf)?;
                t.charge(8);
                let sum: u32 = buf.iter().sum();
                t.mram_write_one(64, sum)?;
                Ok(sum)
            })
            .unwrap();
        assert_eq!(results, vec![0, 8, 16, 24]);

        let gathered: Vec<u32> = sys.gather_one(64).unwrap();
        assert_eq!(gathered, vec![0, 8, 16, 24]);

        let t = sys.phase_times();
        assert!(t.sample_creation > 0.0);
        assert!(t.triangle_count > 0.0);
    }

    #[test]
    fn broadcast_reaches_every_dpu() {
        let mut sys = small_system();
        sys.broadcast(0, &encode_slice(&[7u32, 9])).unwrap();
        for id in 0..4 {
            let bytes = sys.dpu(id).unwrap().host_read(0, 8).unwrap();
            assert_eq!(decode_slice::<u32>(bytes), vec![7, 9]);
        }
    }

    #[test]
    fn broadcast_matches_equivalent_push_batch() {
        // The shared-payload broadcast must be observationally identical
        // to pushing one write per DPU: same MRAM contents, same
        // modeled time, same byte accounting, the same metric events but
        // for the op name.
        let payload = encode_slice(&[3u32, 1, 4, 1, 5, 9, 2, 6]);

        let mut via_broadcast = small_system();
        let broadcast_events = crate::chrome::metered(&mut via_broadcast);
        via_broadcast.set_phase(Phase::SampleCreation);
        via_broadcast.broadcast(16, &payload).unwrap();

        let mut via_push = small_system();
        let push_events = crate::chrome::metered(&mut via_push);
        via_push.set_phase(Phase::SampleCreation);
        let writes: Vec<HostWrite> = (0..4)
            .map(|dpu| HostWrite {
                dpu,
                offset: 16,
                data: &payload,
            })
            .collect();
        via_push.push(&writes).unwrap();

        assert_eq!(via_broadcast.phase_times(), via_push.phase_times());
        assert_eq!(
            via_broadcast.total_transfer_bytes(),
            via_push.total_transfer_bytes()
        );
        assert_eq!(
            via_broadcast.ledger().transfer_seconds,
            via_push.ledger().transfer_seconds
        );
        let without_op = |sink: &pim_metrics::MemorySink| -> Vec<pim_metrics::Event> {
            let mut events = sink.events();
            for e in &mut events {
                e.fields.retain(|(k, _)| k != "op");
            }
            events
        };
        assert_eq!(without_op(&broadcast_events), without_op(&push_events));
        for id in 0..4 {
            assert_eq!(
                via_broadcast.dpu(id).unwrap().host_read(16, 32).unwrap(),
                via_push.dpu(id).unwrap().host_read(16, 32).unwrap()
            );
        }
    }

    #[test]
    fn transfer_seconds_accumulate_across_directions() {
        let mut sys = small_system();
        assert_eq!(sys.ledger().transfer_seconds, 0.0);
        sys.broadcast(0, &[0u8; 64]).unwrap();
        let after_push = sys.ledger().transfer_seconds;
        assert!(after_push > 0.0);
        sys.gather(0, 64).unwrap();
        assert!(sys.ledger().transfer_seconds > after_push);
    }

    #[test]
    fn kernel_error_propagates() {
        let mut sys = small_system();
        let err = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                // Read from uninitialized MRAM.
                t.mram_read_one::<u64>(1 << 20).map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::MramOverflow { .. } | SimError::BadAddress { .. }
        ));
    }

    #[test]
    fn execute_time_tracks_slowest_dpu() {
        let mut sys = small_system();
        sys.set_phase(Phase::TriangleCount);
        let before = sys.phase_times().triangle_count;
        sys.execute(|ctx| {
            // DPU 3 does 100x the work of the others.
            let work = if ctx.dpu_id() == 3 { 100_000 } else { 1_000 };
            let mut t = ctx.tasklet(0)?;
            t.charge(work);
            Ok(())
        })
        .unwrap();
        let elapsed = sys.phase_times().triangle_count - before;
        let cost = CostModel::default();
        let expected = cost.launch_overhead + cost.cycles_to_seconds(100_000 * 11);
        assert!(
            (elapsed - expected).abs() < 1e-9,
            "elapsed {elapsed} expected {expected}"
        );
    }

    #[test]
    fn push_rejects_unknown_dpu() {
        let mut sys = small_system();
        let err = sys
            .push(&[HostWrite {
                dpu: 99,
                offset: 0,
                data: &[0],
            }])
            .unwrap_err();
        assert!(matches!(err, SimError::NoSuchDpu { dpu: 99, .. }));
    }

    #[test]
    fn host_seconds_accrue_to_current_phase() {
        let mut sys = small_system();
        sys.set_phase(Phase::SampleCreation);
        sys.charge_host_seconds_labeled("host", 1.25);
        assert_eq!(sys.phase_times().sample_creation, 1.25);
    }

    #[test]
    fn encode_decode_round_trip() {
        let xs = [1u64, u64::MAX, 42];
        assert_eq!(decode_slice::<u64>(&encode_slice(&xs)), xs.to_vec());
    }

    #[test]
    #[should_panic(expected = "element-aligned")]
    fn decode_rejects_ragged_bytes() {
        decode_slice::<u32>(&[1, 2, 3]);
    }

    #[test]
    fn launch_distributions_count_live_cores_only() {
        use crate::fault::FaultPlan;
        use pim_metrics::MemorySink;
        let config = PimConfig {
            fault: Some(FaultPlan::parse("kill=1@0").unwrap()),
            ..PimConfig::tiny()
        };
        let mut sys = PimSystem::allocate(4, config, CostModel::default()).unwrap();
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        sys.attach_metrics(hub);
        let even = |ctx: &mut DpuContext<'_>| {
            ctx.tasklet(0)?.charge(100);
            Ok(())
        };
        // Op 0 kills core 1 before the launch runs; the retry runs on the
        // three survivors, evenly.
        assert_eq!(
            sys.execute_labeled_masked("even", even).unwrap_err(),
            SimError::DpuDead { dpu: 1 }
        );
        sys.execute_labeled_masked("even", even).unwrap();
        let events = sink.events();
        let last = |kind: &str| events.iter().rev().find(|e| e.kind == kind).unwrap();
        let (launch, hist) = (last("launch"), last("hist"));
        assert_eq!(launch.u64_field("dpus"), 3);
        assert_eq!(hist.u64_field("dpus"), 3);
        assert_eq!(
            hist.f64_field("mean_cycles"),
            launch.f64_field("mean_cycles")
        );
        assert_eq!(hist.f64_field("mean_cycles"), 1100.0);
        assert_eq!(hist.f64_field("imbalance"), 1.0);
        assert_eq!(hist.u64_field("p50_cycles"), 1100);
        let ledger = sys.ledger();
        assert_eq!(ledger.faults.dpu_deaths, 1);
        assert_eq!(
            (ledger.kernels[0].launches, ledger.kernels[0].failed),
            (1, 0)
        );
        assert_eq!(ledger.kernels[0].imbalance, 1.0);
    }

    #[test]
    fn skewed_launch_across_chunks_matches_per_core_runs() {
        use crate::fault::FaultPlan;
        const N: usize = 64;
        const { assert!(N >= 2 * LAUNCH_MIN_DPUS_PER_CHUNK, "the launch must split") };
        // Instructions grow with id², and every 21st core carries a heavy
        // tail, so the launch's chunks cost very different amounts.
        let kernel = |ctx: &mut DpuContext<'_>| {
            let id = ctx.dpu_id();
            let mut t = ctx.tasklet(id % ctx.nr_tasklets())?;
            t.charge((id * id) as u64 * 40 + if id % 21 == 5 { 200_000 } else { 0 });
            let mut buf = vec![0u64; id % 7 + 1];
            t.mram_read(0, &mut buf)?;
            Ok(buf.iter().sum::<u64>() + id as u64)
        };
        let payload = encode_slice(&[3u64, 1, 4, 1, 5, 9, 2, 6]);
        let config = PimConfig {
            fault: Some(FaultPlan::parse("kill=13@2,kill=45@2").unwrap()),
            ..PimConfig::tiny()
        };
        let cost = CostModel::default();

        // The reference runs the kernel on one core at a time.
        let mut reference = PimSystem::allocate(N, config, cost).unwrap();
        reference.broadcast(0, &payload).unwrap();
        let mut want = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for dpu in &mut reference.dpus {
            dpu.reset_kernel_counters();
            let mut ctx = DpuContext {
                dpu,
                config: &config,
                dma: &DmaTable::new(&cost),
            };
            want.0.push(Some(kernel(&mut ctx).unwrap()));
            want.1
                .push(cost.dpu_cycles(&dpu.tasklet_instr, dpu.dma_cycles));
            want.2.push(dpu.tasklet_instr.iter().sum::<u64>());
            want.3.push(dpu.kernel_dma_bytes);
        }

        let mut sys = PimSystem::allocate(N, config, cost).unwrap();
        sys.set_phase(Phase::TriangleCount);
        sys.broadcast(0, &payload).unwrap(); // op 0
        let results = sys.execute_labeled_masked("skew", kernel).unwrap(); // op 1
        let mut got = (Vec::new(), Vec::new(), Vec::new());
        for id in 0..N {
            let dpu = sys.dpu(id).unwrap();
            got.0
                .push(cost.dpu_cycles(&dpu.tasklet_instr, dpu.dma_cycles));
            got.1.push(dpu.tasklet_instr.iter().sum::<u64>());
            got.2.push(dpu.kernel_dma_bytes);
        }
        assert_eq!(
            (results, got),
            (want.0.clone(), (want.1.clone(), want.2, want.3))
        );
        let dist = LaunchDist::of(&want.1);
        let agg = &sys.ledger().kernels[0];
        assert_eq!(
            (agg.launches, agg.failed, agg.max_cycles),
            (1, 0, dist.max_cycles)
        );
        assert_eq!(
            (agg.p50_cycles, agg.p99_cycles),
            (dist.p50_cycles, dist.p99_cycles)
        );
        assert_eq!(agg.imbalance, dist.imbalance);
        assert_eq!(
            agg.seconds,
            cost.launch_overhead + cost.cycles_to_seconds(dist.max_cycles)
        );

        // Ops 2 and 3 kill a core in the middle of each chunk; the next
        // launch masks exactly those two.
        for dead in [13, 45] {
            assert_eq!(
                sys.execute_labeled_masked("skew", kernel).unwrap_err(),
                SimError::DpuDead { dpu: dead }
            );
        }
        let masked = sys.execute_labeled_masked("skew", kernel).unwrap();
        let mut expected = want.0;
        expected[13] = None;
        expected[45] = None;
        assert_eq!(masked, expected);
    }

    #[test]
    fn release_returns_times() {
        let sys = small_system();
        let t = sys.release();
        assert!(t.setup > 0.0);
    }
}
