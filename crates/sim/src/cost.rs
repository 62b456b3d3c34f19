//! The timing model.
//!
//! All simulated time is derived from this table. Defaults are calibrated
//! against the PrIM characterization of real UPMEM DPUs (Gómez-Luna et
//! al., "Benchmarking a New Paradigm: Experimental Analysis and
//! Characterization of a Real Processing-in-Memory System", IEEE Access
//! 2022) and the UPMEM user manual:
//!
//! * DPUs run at 350 MHz and retire at most one instruction per cycle once
//!   the pipeline is saturated, which requires ≥ 11 resident tasklets;
//!   below that, throughput scales with the tasklet count.
//! * MRAM↔WRAM DMA behaves like `latency + bytes/throughput`, streaming at
//!   ~628 MB/s (≈ 0.53 cycles/byte at 350 MHz) with a fixed setup cost.
//! * Host↔DPU transfers are performed rank-parallel; sustained aggregate
//!   bandwidth saturates around 6.7 GB/s for parallel transfers while a
//!   single DPU sees ~0.33 GB/s.
//!
//! The model intentionally stays at throughput/latency granularity — the
//! goal is faithful *ratios* between phases and configurations (what every
//! figure in the paper measures), not cycle-accurate replay.

use crate::kernel::MAX_DMA_BYTES;
use serde::{Deserialize, Serialize};

/// Simulated wall-clock seconds.
pub type SimSeconds = f64;

/// Cost parameters for the simulated system.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// DPU clock frequency in Hz.
    pub clock_hz: f64,
    /// Tasklets needed to saturate the pipeline (UPMEM: 11).
    pub pipeline_saturation: usize,
    /// Fixed cycles charged per DMA transfer (setup/latency).
    pub dma_setup_cycles: u64,
    /// DMA streaming cost in cycles per byte.
    pub dma_cycles_per_byte: f64,
    /// Cycles per 32-bit multiply/divide (DPUs lack a 1-cycle multiplier).
    pub muldiv_cycles: u64,
    /// Host→DPU / DPU→host bandwidth seen by a single DPU, bytes/second.
    pub xfer_per_dpu_bw: f64,
    /// Aggregate bandwidth cap for rank-parallel transfers, bytes/second.
    pub xfer_aggregate_bw: f64,
    /// Fixed host-side latency per transfer batch, seconds.
    pub xfer_latency: SimSeconds,
    /// Fixed system setup cost (rank allocation, binary load), seconds.
    pub setup_fixed: SimSeconds,
    /// Additional setup cost per allocated DPU, seconds.
    pub setup_per_dpu: SimSeconds,
    /// Kernel launch + completion-poll overhead per `execute`, seconds.
    pub launch_overhead: SimSeconds,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            clock_hz: 350.0e6,
            pipeline_saturation: 11,
            dma_setup_cycles: 77,
            dma_cycles_per_byte: 0.53,
            muldiv_cycles: 32,
            xfer_per_dpu_bw: 0.33e9,
            xfer_aggregate_bw: 6.68e9,
            xfer_latency: 20.0e-6,
            setup_fixed: 60.0e-3,
            setup_per_dpu: 25.0e-6,
            launch_overhead: 50.0e-6,
        }
    }
}

impl CostModel {
    /// Cycles for one MRAM↔WRAM DMA of `bytes`.
    #[inline]
    pub fn dma_cycles(&self, bytes: u64) -> u64 {
        self.dma_setup_cycles + (bytes as f64 * self.dma_cycles_per_byte).ceil() as u64
    }

    /// Converts a cycle count to seconds.
    #[inline]
    pub fn cycles_to_seconds(&self, cycles: u64) -> SimSeconds {
        cycles as f64 / self.clock_hz
    }

    /// Amortized DMA cycles to stream one 8-byte word through a WRAM
    /// buffer of `buf_bytes`: the setup cost is shared across the whole
    /// buffer, so bigger buffers stream cheaper per word.
    #[inline]
    pub fn stream_word_cycles(&self, buf_bytes: u64) -> f64 {
        let words = (buf_bytes / 8).max(1);
        self.dma_cycles(buf_bytes) as f64 / words as f64
    }

    /// Wall cycles for a DPU whose tasklets individually executed
    /// `per_tasklet_instr` instructions (plus `dma_cycles` total DMA).
    ///
    /// The DPU is a single fine-grained-multithreaded pipeline: it retires
    /// at most one instruction per cycle *in total*, and each tasklet can
    /// have at most one instruction in flight, so a tasklet issues at most
    /// once every `pipeline_saturation` cycles. Hence
    /// `cycles ≥ Σ instr` (pipeline throughput bound) and
    /// `cycles ≥ saturation · max instr` (single-tasklet latency bound).
    /// DMA transfers are serialized on the bank's DMA engine and added on
    /// top (MRAM-bound kernels in PrIM show negligible overlap).
    pub fn dpu_cycles(&self, per_tasklet_instr: &[u64], dma_cycles: u64) -> u64 {
        let total: u64 = per_tasklet_instr.iter().sum();
        let max = per_tasklet_instr.iter().copied().max().unwrap_or(0);
        total.max(max * self.pipeline_saturation as u64) + dma_cycles
    }

    /// Seconds for a host↔DPU transfer batch where DPU `i` moves
    /// `per_dpu_bytes[i]` bytes, executed rank-parallel.
    ///
    /// Parallel transfers complete when the largest per-DPU payload drains
    /// at the per-DPU link rate, but the host cannot exceed the aggregate
    /// bandwidth across all DPUs; the batch takes the max of the two
    /// bounds plus a fixed latency.
    pub fn transfer_seconds(&self, per_dpu_bytes: &[u64]) -> SimSeconds {
        if per_dpu_bytes.is_empty() {
            return 0.0;
        }
        let total: u64 = per_dpu_bytes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = *per_dpu_bytes.iter().max().unwrap();
        let per_dpu_bound = max as f64 / self.xfer_per_dpu_bw;
        let aggregate_bound = total as f64 / self.xfer_aggregate_bw;
        self.xfer_latency + per_dpu_bound.max(aggregate_bound)
    }

    /// Seconds charged for allocating and preparing `nr_dpus` PIM cores.
    pub fn setup_seconds(&self, nr_dpus: usize) -> SimSeconds {
        self.setup_fixed + self.setup_per_dpu * nr_dpus as f64
    }
}

/// Entries in a [`DmaTable`]: one per 8-byte size from 0 to one full
/// [`MAX_DMA_BYTES`] burst.
const DMA_TABLE_LEN: usize = (MAX_DMA_BYTES / 8) as usize + 1;

/// A [`CostModel`] as kernels see it, with [`CostModel::dma_cycles`]
/// tabulated for every burst a DMA can issue: entry `i` prices `8·i`
/// bytes, for `i = 0..=256`. A [`crate::PimSystem`] builds one at
/// allocation and lends it to every launch, so charging a kernel DMA is
/// a lookup, not an f64 `ceil`. Every entry comes from the same formula,
/// so a lookup charges exactly what the formula would.
#[derive(Clone, Debug)]
pub struct DmaTable {
    cycles: [u64; DMA_TABLE_LEN],
    pub(crate) model: CostModel,
}

impl DmaTable {
    /// Tabulates `model`'s DMA cost.
    pub fn new(model: &CostModel) -> DmaTable {
        DmaTable {
            cycles: std::array::from_fn(|i| model.dma_cycles(8 * i as u64)),
            model: *model,
        }
    }

    /// Cycles and bytes charged for one MRAM↔WRAM DMA of `bytes`: rounded
    /// up to the 8-byte transfer granularity and split into
    /// ≤ [`MAX_DMA_BYTES`] bursts, each paying the setup latency. A
    /// zero-byte DMA still pays one setup.
    #[inline]
    pub fn price(&self, bytes: u64) -> (u64, u64) {
        let rounded = bytes.div_ceil(8) * 8;
        if rounded <= MAX_DMA_BYTES {
            return (self.cycles[(rounded / 8) as usize], rounded);
        }
        let (full, tail) = (rounded / MAX_DMA_BYTES, rounded % MAX_DMA_BYTES);
        let tail_cycles = if tail > 0 {
            self.cycles[(tail / 8) as usize]
        } else {
            0
        };
        (full * self.cycles[DMA_TABLE_LEN - 1] + tail_cycles, rounded)
    }

    /// Cycles for one minimum-size (8-byte) MRAM probe — the unit cost
    /// of pointer-chasing reads such as binary-search probes, dominated
    /// by DMA setup. Kernels that choose between probing and streaming
    /// (the adaptive intersection in the count kernel) weigh this
    /// against [`DmaTable::stream_word_cycles`].
    #[inline]
    pub fn probe_cycles(&self) -> u64 {
        self.cycles[1]
    }

    /// [`CostModel::stream_word_cycles`], read from the table when
    /// `buf_bytes` is one burst of whole words.
    #[inline]
    pub fn stream_word_cycles(&self, buf_bytes: u64) -> f64 {
        if buf_bytes <= MAX_DMA_BYTES && buf_bytes.is_multiple_of(8) {
            let words = (buf_bytes / 8).max(1);
            self.cycles[(buf_bytes / 8) as usize] as f64 / words as f64
        } else {
            self.model.stream_word_cycles(buf_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_cost_has_setup_plus_streaming() {
        let m = CostModel::default();
        assert_eq!(m.dma_cycles(0), 77);
        let c1 = m.dma_cycles(8);
        let c2 = m.dma_cycles(2048);
        assert!(c2 > c1);
        // Streaming component ≈ 0.53 cycles/byte.
        assert!((c2 - 77) as f64 >= 2048.0 * 0.53);
    }

    #[test]
    fn dma_table_matches_the_formula() {
        let m = CostModel::default();
        let table = DmaTable::new(&m);
        // Every burst size, one-burst multiples, and split transfers with
        // and without a tail burst.
        for bytes in (0..=3 * MAX_DMA_BYTES + 24).chain([1, 7, 9, 2049, 65_536]) {
            let rounded = bytes.div_ceil(8) * 8;
            let (mut cycles, mut left) = (0, rounded);
            loop {
                let burst = left.min(MAX_DMA_BYTES);
                cycles += m.dma_cycles(burst);
                if left <= MAX_DMA_BYTES {
                    break;
                }
                left -= burst;
            }
            assert_eq!(table.price(bytes), (cycles, rounded), "{bytes} bytes");
        }
        assert_eq!(table.probe_cycles(), m.dma_cycles(8));
        for buf_bytes in (0..=4 * MAX_DMA_BYTES).chain([3, 100, 1 << 16]) {
            let want = m.stream_word_cycles(buf_bytes);
            assert_eq!(
                table.stream_word_cycles(buf_bytes).to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn pipeline_bound_uses_total_when_balanced() {
        let m = CostModel::default();
        // 16 balanced tasklets: throughput-bound → total instructions.
        let per = [1000u64; 16];
        assert_eq!(m.dpu_cycles(&per, 0), 16_000);
    }

    #[test]
    fn pipeline_bound_uses_latency_when_single_tasklet() {
        let m = CostModel::default();
        // One busy tasklet: each instruction waits a full pipeline round.
        let per = [1000u64, 0, 0, 0];
        assert_eq!(m.dpu_cycles(&per, 0), 11_000);
    }

    #[test]
    fn dma_adds_on_top() {
        let m = CostModel::default();
        assert_eq!(m.dpu_cycles(&[10, 10], 500), 110 + 500);
    }

    #[test]
    fn transfer_parallel_beats_sequential() {
        let m = CostModel::default();
        // 64 DPUs × 1 MB in parallel is far cheaper than 64 MB through one.
        let parallel = m.transfer_seconds(&vec![1 << 20; 64]);
        let single = m.transfer_seconds(&[64 << 20]);
        assert!(parallel < single / 10.0);
    }

    #[test]
    fn aggregate_bandwidth_caps_wide_transfers() {
        let m = CostModel::default();
        // 2560 DPUs × 4 MB = 10 GB total; the 6.68 GB/s cap dominates the
        // per-DPU bound (4 MB / 0.33 GB/s ≈ 12 ms < 10 GB / 6.68 GB/s).
        let t = m.transfer_seconds(&vec![4 << 20; 2560]);
        let total_bytes = 2560.0 * (4u64 << 20) as f64;
        assert!((t - m.xfer_latency - total_bytes / m.xfer_aggregate_bw).abs() < 1e-9);
    }

    #[test]
    fn empty_or_zero_transfers_are_free() {
        let m = CostModel::default();
        assert_eq!(m.transfer_seconds(&[]), 0.0);
        assert_eq!(m.transfer_seconds(&[0, 0]), 0.0);
    }

    #[test]
    fn setup_scales_with_dpus() {
        let m = CostModel::default();
        assert!(m.setup_seconds(2560) > m.setup_seconds(64));
        assert!((m.setup_seconds(0) - m.setup_fixed).abs() < 1e-12);
    }
}
