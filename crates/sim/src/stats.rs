//! System-wide activity reporting: per-DPU utilization and imbalance.
//!
//! The paper's load-balancing argument (§3.1) is about keeping PIM cores
//! evenly busy; this module surfaces the counters to check that claim on
//! any workload. The experiment harness logs these summaries next to the
//! timing results. Every engine keeps one [`Ledger`], folded from its
//! settled operation records, and the report reads its transfer, fault
//! and per-kernel ([`KernelAgg`]) totals from it — on either clock,
//! with or without a metrics hub.

use crate::backend::PimBackend;
use crate::cost::SimSeconds;
use crate::fault::FaultCounters;
use crate::phase::{Phase, PhaseTimes};
use serde::{Deserialize, Serialize};

/// Activity summary of one PIM core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpuActivity {
    /// DPU id.
    pub dpu: usize,
    /// Lifetime retired instructions.
    pub instructions: u64,
    /// Lifetime MRAM↔WRAM DMA bytes.
    pub dma_bytes: u64,
    /// MRAM bytes in use (high-water mark).
    pub mram_used: u64,
}

/// The launches of one kernel label within one §4.1 phase. Its size does
/// not grow with run length: per-launch distributions live on the
/// `launch` and `hist` metric events.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelAgg {
    /// Orchestrator-assigned launch label.
    pub label: String,
    /// Phase the launches billed to.
    pub phase: Phase,
    /// Launches, failed ones included.
    pub launches: u64,
    /// Launches killed by an injected fault before any core ran.
    pub failed: u64,
    /// Summed modeled seconds (launch overhead + slowest DPU).
    pub seconds: f64,
    /// Summed cycles of each launch's slowest DPU.
    pub max_cycles: u64,
    /// Worst per-launch median of per-DPU cycles.
    pub p50_cycles: u64,
    /// Worst per-launch p99 of per-DPU cycles.
    pub p99_cycles: u64,
    /// Worst per-launch max-over-mean cycle imbalance.
    pub imbalance: f64,
}

/// Everything an engine has settled so far. A single engine's `settle` is
/// its only writer; a cluster folds its ranks' ledgers: phase times take
/// the max, every other total sums.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Modeled seconds per phase (all-zero with the clock off).
    pub times: PhaseTimes,
    /// CPU↔PIM bytes landed by successful transfers.
    pub transfer_bytes: u64,
    /// Modeled seconds of every transfer, failed ones included.
    pub transfer_seconds: SimSeconds,
    /// Faults injected so far.
    pub faults: FaultCounters,
    /// One entry per (label, phase), in order of first launch.
    pub kernels: Vec<KernelAgg>,
}

impl Ledger {
    /// Adds `k`'s launches to the entry for its (label, phase).
    pub(crate) fn add_kernel(&mut self, k: KernelAgg) {
        let entry = self
            .kernels
            .iter_mut()
            .find(|e| e.label == k.label && e.phase == k.phase);
        let Some(e) = entry else {
            self.kernels.push(k);
            return;
        };
        e.launches += k.launches;
        e.failed += k.failed;
        e.seconds += k.seconds;
        e.max_cycles += k.max_cycles;
        e.p50_cycles = e.p50_cycles.max(k.p50_cycles);
        e.p99_cycles = e.p99_cycles.max(k.p99_cycles);
        e.imbalance = e.imbalance.max(k.imbalance);
    }

    /// Folds in one rank of a cluster. Ranks run in parallel, so phase
    /// times take the max; every other total sums.
    pub(crate) fn merge_rank(&mut self, rank: Ledger) {
        self.times = self.times.max_with(&rank.times);
        self.transfer_bytes += rank.transfer_bytes;
        self.transfer_seconds += rank.transfer_seconds;
        self.faults += rank.faults;
        for k in rank.kernels {
            self.add_kernel(k);
        }
    }
}

/// Aggregate activity report for the whole system.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Per-core activity, id order.
    pub per_dpu: Vec<DpuActivity>,
    /// Total instructions across cores.
    pub total_instructions: u64,
    /// Total DMA bytes across cores.
    pub total_dma_bytes: u64,
    /// Total CPU↔PIM transfer bytes.
    pub total_transfer_bytes: u64,
    /// Total modeled seconds spent on CPU↔PIM transfers.
    pub transfer_seconds: f64,
    /// Achieved transfer bandwidth over the cost model's aggregate cap
    /// (0.0 when nothing was transferred; ≤ 1.0 plus latency slack).
    pub transfer_bandwidth_utilization: f64,
    /// Max-over-mean instruction imbalance (1.0 = perfectly even).
    pub instruction_imbalance: f64,
    /// Kernel launches per (label, phase), in order of first launch.
    pub kernels: Vec<KernelAgg>,
    /// Faults injected by the system's [`crate::fault::FaultPlan`]
    /// (all-zero on fault-free runs).
    pub fault_counters: FaultCounters,
}

impl SystemReport {
    /// Builds the report from a backend's per-DPU counters and its
    /// [`Ledger`].
    pub fn capture<B: PimBackend>(sys: &B) -> SystemReport {
        let per_dpu: Vec<DpuActivity> = (0..sys.nr_dpus())
            .map(|id| match sys.dpu(id) {
                Ok(d) => DpuActivity {
                    dpu: id,
                    instructions: d.lifetime_instructions(),
                    dma_bytes: d.lifetime_dma_bytes(),
                    mram_used: d.mram_used(),
                },
                // A dead rank's cores are unreachable (`SimError::DpuDead`)
                // and their lifetime counters are gone with the hardware;
                // the report keeps a zeroed row so ids stay dense, the
                // same tombstone shape gather uses for dead ranks.
                Err(_) => DpuActivity {
                    dpu: id,
                    ..DpuActivity::default()
                },
            })
            .collect();
        let total_instructions: u64 = per_dpu.iter().map(|d| d.instructions).sum();
        let total_dma_bytes: u64 = per_dpu.iter().map(|d| d.dma_bytes).sum();
        let max = per_dpu.iter().map(|d| d.instructions).max().unwrap_or(0);
        let mean = if per_dpu.is_empty() {
            0.0
        } else {
            total_instructions as f64 / per_dpu.len() as f64
        };

        let ledger = sys.ledger();
        let transfer_bandwidth_utilization = if ledger.transfer_seconds > 0.0 {
            (ledger.transfer_bytes as f64 / ledger.transfer_seconds) / sys.cost().xfer_aggregate_bw
        } else {
            0.0
        };

        SystemReport {
            total_instructions,
            total_dma_bytes,
            total_transfer_bytes: ledger.transfer_bytes,
            transfer_seconds: ledger.transfer_seconds,
            transfer_bandwidth_utilization,
            instruction_imbalance: if mean > 0.0 { max as f64 / mean } else { 1.0 },
            per_dpu,
            kernels: ledger.kernels,
            fault_counters: ledger.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, PimConfig, PimSystem};

    fn skewed_system() -> PimSystem {
        let mut sys = PimSystem::allocate(4, PimConfig::tiny(), CostModel::default()).unwrap();
        sys.set_phase(Phase::TriangleCount);
        sys.execute_labeled("skewed", |ctx| {
            let work = (ctx.dpu_id() as u64 + 1) * 100;
            let mut t = ctx.tasklet(0)?;
            t.charge(work);
            Ok(())
        })
        .unwrap();
        sys
    }

    #[test]
    fn captures_per_dpu_counters() {
        let sys = skewed_system();
        let report = SystemReport::capture(&sys);
        assert_eq!(report.per_dpu.len(), 4);
        assert_eq!(report.total_instructions, 100 + 200 + 300 + 400);
        // Max (400) over mean (250).
        assert!((report.instruction_imbalance - 1.6).abs() < 1e-12);
    }

    #[test]
    fn launch_profile_math_is_exact() {
        // Hand-computed: single tasklet charging (id+1)*100 instructions
        // saturates the 11-stage pipeline, so per-DPU cycles are
        // [1100, 2200, 3300, 4400].
        let sys = skewed_system();
        let report = SystemReport::capture(&sys);
        assert_eq!(report.kernels.len(), 1);
        let k = &report.kernels[0];
        assert_eq!(k.label, "skewed");
        assert_eq!(k.phase, Phase::TriangleCount);
        assert_eq!((k.launches, k.failed), (1, 0));
        assert_eq!(k.max_cycles, 4400);
        // Nearest-rank percentiles over [1100, 2200, 3300, 4400]:
        // p50 → rank ceil(0.50·4)=2 → 2200; p99 → rank ceil(0.99·4)=4 → 4400.
        assert_eq!(k.p50_cycles, 2200);
        assert_eq!(k.p99_cycles, 4400);
        // Max (4400) over mean (2750).
        assert!((k.imbalance - 1.6).abs() < 1e-12);
        let cost = CostModel::default();
        assert_eq!(
            k.seconds,
            cost.launch_overhead + cost.cycles_to_seconds(4400)
        );
    }

    #[test]
    fn transfer_utilization_is_bounded_and_zero_when_idle() {
        let sys = skewed_system();
        let report = SystemReport::capture(&sys);
        // No transfers yet → utilization is exactly 0, not NaN.
        assert_eq!(report.transfer_bandwidth_utilization, 0.0);

        let mut sys = skewed_system();
        sys.push(&crate::system::fill_all(sys.nr_dpus(), 0, &[0u8; 4096]))
            .unwrap();
        let report = SystemReport::capture(&sys);
        assert!(report.transfer_seconds > 0.0);
        assert!(report.transfer_bandwidth_utilization > 0.0);
        // Fixed per-batch latency means achieved bandwidth stays below cap.
        assert!(report.transfer_bandwidth_utilization <= 1.0);
    }

    #[test]
    fn untraced_systems_report_their_kernels() {
        let mut sys = PimSystem::allocate(2, PimConfig::tiny(), CostModel::default()).unwrap();
        sys.execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(10);
            Ok(())
        })
        .unwrap();
        let report = SystemReport::capture(&sys);
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].label, "kernel");
        assert_eq!(report.kernels[0].launches, 1);
        assert_eq!(report.kernels[0].max_cycles, 110);
        assert_eq!(report.total_instructions, 20);
    }

    /// The report's p50/p99 come from the shared nearest-rank definition.
    #[test]
    fn nearest_rank_percentile_edge_cases() {
        use pim_metrics::nearest_rank_percentile as percentile;
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
    }

    #[test]
    fn functional_backend_reports_activity_without_time() {
        use crate::backend::FunctionalBackend;
        let mut sys =
            FunctionalBackend::allocate(2, PimConfig::default(), CostModel::default()).unwrap();
        sys.execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(10);
            Ok(())
        })
        .unwrap();
        let report = SystemReport::capture(&sys);
        // Data-derived counters are live, kernel cycles included;
        // everything timed is zero.
        assert_eq!(report.total_instructions, 20);
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].launches, 1);
        assert_eq!(report.kernels[0].max_cycles, 110);
        assert_eq!(report.kernels[0].seconds, 0.0);
        assert_eq!(report.transfer_seconds, 0.0);
        assert_eq!(report.transfer_bandwidth_utilization, 0.0);
    }

    #[test]
    fn empty_system_report_is_sane() {
        let sys = PimSystem::allocate(0, PimConfig::tiny(), CostModel::default()).unwrap();
        let report = SystemReport::capture(&sys);
        assert_eq!(report.total_instructions, 0);
        assert_eq!(report.instruction_imbalance, 1.0);
        assert_eq!(report.transfer_bandwidth_utilization, 0.0);
    }
}
