//! Per-DPU state: the MRAM bank and execution counters.

use crate::error::{SimError, SimResult};

/// One simulated PIM core and its private DRAM bank.
///
/// The host interacts with a DPU only through [`Dpu::host_write`] /
/// [`Dpu::host_read`] (the CPU-PIM transfer path) and by launching kernels
/// via [`crate::PimBackend::execute`]; there is no channel between DPUs,
/// matching the UPMEM architecture (§2.2 of the paper).
#[derive(Clone, Debug)]
pub struct Dpu {
    id: usize,
    mram: Vec<u8>,
    mram_capacity: u64,
    /// Instructions executed per tasklet during the current kernel.
    pub(crate) tasklet_instr: Vec<u64>,
    /// Total DMA cycles accumulated during the current kernel.
    pub(crate) dma_cycles: u64,
    /// DMA bytes moved during the current kernel.
    pub(crate) kernel_dma_bytes: u64,
    /// Lifetime counters for reporting.
    pub(crate) total_instr: u64,
    pub(crate) total_dma_bytes: u64,
}

impl Dpu {
    /// Creates a DPU with an empty MRAM bank of the given capacity.
    pub fn new(id: usize, mram_capacity: u64, nr_tasklets: usize) -> Self {
        Dpu {
            id,
            mram: Vec::new(),
            mram_capacity,
            tasklet_instr: vec![0; nr_tasklets],
            dma_cycles: 0,
            kernel_dma_bytes: 0,
            total_instr: 0,
            total_dma_bytes: 0,
        }
    }

    /// This DPU's id within the allocated set.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Bank capacity in bytes.
    #[inline]
    pub fn mram_capacity(&self) -> u64 {
        self.mram_capacity
    }

    /// Bytes of MRAM currently initialized (high-water mark).
    #[inline]
    pub fn mram_used(&self) -> u64 {
        self.mram.len() as u64
    }

    /// Ensures MRAM covers `[0, end)`, zero-filling new space; errors if
    /// that exceeds the bank capacity.
    pub(crate) fn ensure_mram(&mut self, end: u64) -> SimResult<()> {
        if end > self.mram_capacity {
            return Err(SimError::MramOverflow {
                dpu: self.id,
                requested: end - self.mram_capacity,
                capacity: self.mram_capacity,
            });
        }
        if end > self.mram.len() as u64 {
            self.mram.resize(end as usize, 0);
        }
        Ok(())
    }

    /// Host-side read of MRAM `[offset, offset + len)` (a PIM→CPU
    /// transfer, timed by the system's transfer path) as a borrowed view.
    /// Zero-length views are always valid (and free).
    #[inline]
    pub fn host_read(&self, offset: u64, len: u64) -> SimResult<&[u8]> {
        if len == 0 {
            return Ok(&[]);
        }
        let end = offset.checked_add(len).ok_or(SimError::BadAddress {
            dpu: self.id,
            offset,
            len,
        })?;
        if end > self.mram.len() as u64 {
            return Err(SimError::BadAddress {
                dpu: self.id,
                offset,
                len,
            });
        }
        Ok(&self.mram[offset as usize..end as usize])
    }

    /// Checked mutable view, growing the initialized region if within
    /// capacity.
    pub(crate) fn mram_slice_mut(&mut self, offset: u64, len: u64) -> SimResult<&mut [u8]> {
        let end = offset.checked_add(len).ok_or(SimError::BadAddress {
            dpu: self.id,
            offset,
            len,
        })?;
        self.ensure_mram(end)?;
        Ok(&mut self.mram[offset as usize..end as usize])
    }

    /// Host-side write into the bank (a CPU→PIM transfer; the *time* for it
    /// is charged by the system's transfer path, not here).
    pub fn host_write(&mut self, offset: u64, data: &[u8]) -> SimResult<()> {
        self.mram_slice_mut(offset, data.len() as u64)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Resets per-kernel counters (called by the system before a launch).
    pub(crate) fn reset_kernel_counters(&mut self) {
        self.tasklet_instr.iter_mut().for_each(|c| *c = 0);
        self.dma_cycles = 0;
        self.kernel_dma_bytes = 0;
    }

    /// Instructions each tasklet retired in the latest kernel launch.
    pub fn kernel_tasklet_instructions(&self) -> &[u64] {
        &self.tasklet_instr
    }

    /// DMA cycles and DMA bytes of the latest kernel launch.
    pub fn kernel_dma(&self) -> (u64, u64) {
        (self.dma_cycles, self.kernel_dma_bytes)
    }

    /// Lifetime instruction count (all kernels).
    pub fn lifetime_instructions(&self) -> u64 {
        self.total_instr
    }

    /// Lifetime MRAM↔WRAM DMA traffic in bytes (all kernels).
    pub fn lifetime_dma_bytes(&self) -> u64 {
        self.total_dma_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut d = Dpu::new(0, 1024, 4);
        d.host_write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(d.host_read(8, 4).unwrap(), vec![1, 2, 3, 4]);
        // Unwritten space inside the high-water mark reads as zero.
        assert_eq!(d.host_read(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut d = Dpu::new(7, 64, 4);
        assert!(d.host_write(0, &[0u8; 64]).is_ok());
        let err = d.host_write(1, &[0u8; 64]).unwrap_err();
        assert!(matches!(err, SimError::MramOverflow { dpu: 7, .. }));
    }

    #[test]
    fn reads_beyond_highwater_fail() {
        let mut d = Dpu::new(0, 1024, 4);
        d.host_write(0, &[9u8; 16]).unwrap();
        assert!(d.host_read(8, 16).is_err());
        assert!(matches!(
            d.host_read(2048, 1).unwrap_err(),
            SimError::BadAddress { .. }
        ));
    }

    #[test]
    fn offset_overflow_is_an_error_not_a_panic() {
        let d = Dpu::new(0, 1024, 4);
        assert!(d.host_read(u64::MAX - 1, 8).is_err());
    }
}
