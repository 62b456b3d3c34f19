//! The kernel-side programming model: [`DpuContext`] and [`Tasklet`].
//!
//! Kernels are Rust closures executed per DPU. Inside a kernel, all data
//! access must go through a [`Tasklet`], which enforces the two hardware
//! constraints that shape real DPU code:
//!
//! * **MRAM is not directly addressable.** Data must be staged through
//!   [`Tasklet::mram_read`] / [`Tasklet::mram_write`] DMA transfers, which
//!   are 8-byte aligned, split into ≤ 2048-byte bursts, and charged
//!   latency + per-byte cost.
//! * **WRAM is tiny.** Each tasklet claims buffers from its share of the
//!   64 KB scratchpad via [`Tasklet::alloc_wram`]; exceeding the budget is
//!   an error, exactly like overflowing the stack/heap of a real tasklet.
//!
//! Kernels that walk an MRAM range by index — binary searches, merges —
//! read it through a checked [`MramView`] instead of one DMA call per
//! word. [`Tasklet::mram_view`] checks the range once (alignment, then
//! the bank's high-water mark) and lends its words without copying. The
//! view borrows the tasklet, so while it is held the kernel adds up the
//! work the DPU would do — each DMA it would issue and the instructions
//! around it — in a [`Charges`] tally, and settles the tally with
//! [`Tasklet::settle`] once per call, after the view is dropped. The
//! tally prices each DMA exactly as [`Tasklet::mram_read`] does, so a
//! kernel that tallies the DMAs it would have issued charges the same
//! instructions, DMA cycles and DMA bytes as one that issues them.
//!
//! Writes have the same counterpart: [`Tasklet::mram_store`] checks a
//! range once (alignment, then the bank capacity, growing the high-water
//! mark like [`Tasklet::mram_write`]) and stores a whole slice of words,
//! charged nothing; the kernel tallies the write DMAs the DPU would issue
//! next to its reads. A kernel whose DMA sequence does not depend on the
//! data — the sort's runs and merge passes, the remap's strided blocks —
//! may therefore compute its result on the host in one pass and tally
//! its charges in closed form, so long as it claims the same WRAM
//! buffers the DPU code would.
//!
//! Tasklets are *simulated sequentially* within a DPU (tasklet `i+1` runs
//! after tasklet `i` finishes), with per-tasklet cycle counters combined by
//! the pipeline model in [`crate::CostModel::dpu_cycles`]. Kernels written
//! for this API must therefore partition work so tasklets do not rely on
//! concurrent interleaving — the same discipline correct UPMEM kernels
//! need, since real tasklets interleave nondeterministically.

use crate::config::PimConfig;
use crate::cost::DmaTable;
use crate::dpu::Dpu;
use crate::error::{SimError, SimResult};

/// Maximum bytes a single MRAM↔WRAM DMA burst can move (UPMEM limit).
pub const MAX_DMA_BYTES: u64 = 2048;

/// Plain-old-data element types that can cross the MRAM↔WRAM boundary.
///
/// Implementations define the little-endian wire layout used inside the
/// simulated MRAM banks, so bank contents are platform-independent.
pub trait Pod: Copy + Default {
    /// Size of the encoded element in bytes.
    const BYTES: usize;
    /// Encodes `self` at `out[..Self::BYTES]`.
    fn write_le(self, out: &mut [u8]);
    /// Decodes an element from `inp[..Self::BYTES]`.
    fn read_le(inp: &[u8]) -> Self;
}

macro_rules! impl_pod_int {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp[..Self::BYTES].try_into().unwrap())
            }
        }
    )*};
}

impl_pod_int!(u8, u16, u32, u64, i32, i64);

/// Kernel-side view of one DPU.
pub struct DpuContext<'a> {
    pub(crate) dpu: &'a mut Dpu,
    pub(crate) config: &'a PimConfig,
    pub(crate) dma: &'a DmaTable,
}

impl<'a> DpuContext<'a> {
    /// Id of the DPU this kernel instance runs on.
    #[inline]
    pub fn dpu_id(&self) -> usize {
        self.dpu.id()
    }

    /// Number of tasklets launched per DPU.
    #[inline]
    pub fn nr_tasklets(&self) -> usize {
        self.config.nr_tasklets
    }

    /// Bytes of MRAM currently initialized on this DPU.
    #[inline]
    pub fn mram_used(&self) -> u64 {
        self.dpu.mram_used()
    }

    /// WRAM bytes each tasklet may claim (the even scratchpad split).
    #[inline]
    pub fn wram_per_tasklet(&self) -> usize {
        self.config.wram_per_tasklet()
    }

    /// Runs `body` once per tasklet, sequentially, each with a fresh WRAM
    /// budget of `config.wram_per_tasklet()`. Any tasklet error aborts the
    /// kernel.
    pub fn for_each_tasklet<F>(&mut self, mut body: F) -> SimResult<()>
    where
        F: FnMut(&mut Tasklet<'_>) -> SimResult<()>,
    {
        for id in 0..self.config.nr_tasklets {
            let mut t = self.tasklet(id)?;
            body(&mut t)?;
        }
        Ok(())
    }

    /// Borrows a single tasklet (used for single-threaded kernel sections,
    /// e.g. "tasklet 0 builds the index").
    pub fn tasklet(&mut self, id: usize) -> SimResult<Tasklet<'_>> {
        if id >= self.config.nr_tasklets {
            return Err(SimError::NoSuchDpu {
                dpu: id,
                allocated: self.config.nr_tasklets,
            });
        }
        Ok(Tasklet {
            dpu: self.dpu,
            id,
            wram_free: self.config.wram_per_tasklet(),
            dma: self.dma,
        })
    }
}

/// One simulated PIM thread. All MRAM traffic, WRAM allocation, and
/// instruction accounting for kernel work happens through this handle.
pub struct Tasklet<'a> {
    dpu: &'a mut Dpu,
    id: usize,
    wram_free: usize,
    dma: &'a DmaTable,
}

impl<'a> Tasklet<'a> {
    /// This tasklet's id within the DPU.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The id of the DPU this tasklet runs on.
    #[inline]
    pub fn dpu_id(&self) -> usize {
        self.dpu.id()
    }

    /// Remaining WRAM budget in bytes.
    #[inline]
    pub fn wram_free(&self) -> usize {
        self.wram_free
    }

    /// The system's DMA prices. Kernels consult them to make the same
    /// cost-based choices hand-tuned DPU code bakes in as constants —
    /// e.g. the count kernel weighs [`DmaTable::probe_cycles`] against
    /// [`DmaTable::stream_word_cycles`] when picking an intersection
    /// strategy per edge pair.
    #[inline]
    pub fn dma_table(&self) -> &'a DmaTable {
        self.dma
    }

    /// Charges `n` single-cycle instructions (ALU ops, compares, branches,
    /// WRAM loads/stores) to this tasklet.
    #[inline]
    pub fn charge(&mut self, n: u64) {
        self.dpu.tasklet_instr[self.id] += n;
        self.dpu.total_instr += n;
    }

    /// Charges `n` 32-bit multiply/divide operations (multi-cycle on the
    /// DPU, which has no hardware 32-bit multiplier).
    #[inline]
    pub fn charge_muldiv(&mut self, n: u64) {
        // Expanded to the model's per-op cycle count by charging the
        // equivalent number of single-cycle slots.
        self.charge(n * self.dma.model.muldiv_cycles);
    }

    /// Claims a WRAM buffer of `len` elements of `T`, zero-initialized.
    ///
    /// The returned buffer is ordinary host memory; what's simulated is the
    /// *budget*: claims beyond this tasklet's scratchpad share fail with
    /// [`SimError::WramOverflow`], forcing kernels into the buffered
    /// streaming style real DPU code uses.
    pub fn alloc_wram<T: Pod>(&mut self, len: usize) -> SimResult<Vec<T>> {
        let bytes = len * T::BYTES;
        if bytes > self.wram_free {
            return Err(SimError::WramOverflow {
                dpu: self.dpu.id(),
                tasklet: self.id,
                requested: bytes,
                available: self.wram_free,
            });
        }
        self.wram_free -= bytes;
        Ok(vec![T::default(); len])
    }

    /// Returns a previously claimed buffer's bytes to the budget. (Real
    /// kernels reuse buffers; this exists for phased kernels that need
    /// different layouts in different phases.)
    pub fn free_wram<T: Pod>(&mut self, buf: Vec<T>) {
        self.wram_free += buf.len() * T::BYTES;
        drop(buf);
    }

    /// DMA: MRAM `[offset, offset + dst.len()·T::BYTES)` → WRAM `dst`.
    ///
    /// The offset must be 8-byte aligned (hardware rule); transfers larger
    /// than 2048 bytes are split into bursts, each charged setup latency.
    pub fn mram_read<T: Pod>(&mut self, offset: u64, dst: &mut [T]) -> SimResult<()> {
        let len = (dst.len() * T::BYTES) as u64;
        self.check_dma(offset, len)?;
        let src = self.dpu.host_read(offset, len)?;
        for (i, d) in dst.iter_mut().enumerate() {
            *d = T::read_le(&src[i * T::BYTES..]);
        }
        self.charge_dma(len);
        Ok(())
    }

    /// DMA: WRAM `src` → MRAM `[offset, offset + src.len()·T::BYTES)`.
    pub fn mram_write<T: Pod>(&mut self, offset: u64, src: &[T]) -> SimResult<()> {
        let len = (src.len() * T::BYTES) as u64;
        self.check_dma(offset, len)?;
        let dst = self.dpu.mram_slice_mut(offset, len)?;
        for (i, s) in src.iter().enumerate() {
            s.write_le(&mut dst[i * T::BYTES..]);
        }
        self.charge_dma(len);
        Ok(())
    }

    /// Reads a single element (convenience for index structures; charged
    /// as a minimum-size DMA, which is why kernels should batch instead —
    /// the cost model makes pointer-chasing expensive, as on real DPUs).
    #[inline]
    pub fn mram_read_one<T: Pod>(&mut self, offset: u64) -> SimResult<T> {
        let len = T::BYTES as u64;
        self.check_dma(offset, len)?;
        let value = T::read_le(self.dpu.host_read(offset, len)?);
        self.charge_dma(len);
        Ok(value)
    }

    /// A checked, read-only view of the `words` 8-byte words at MRAM
    /// `offset`, charged nothing (see the module docs for the contract).
    /// Fails with [`SimError::BadDma`] if `offset` is unaligned and with
    /// [`SimError::BadAddress`] if the range passes the bank's
    /// high-water mark. An empty view at an aligned offset is always valid.
    pub fn mram_view(&self, offset: u64, words: u64) -> SimResult<MramView<'_>> {
        let len = words.checked_mul(8).ok_or(SimError::BadAddress {
            dpu: self.dpu.id(),
            offset,
            len: words.saturating_mul(8),
        })?;
        self.check_dma(offset, len)?;
        Ok(MramView {
            bytes: self.dpu.host_read(offset, len)?,
        })
    }

    /// Stores `words` at MRAM `offset` in one checked write, charged
    /// nothing: the write-side counterpart of [`Tasklet::mram_view`] (see
    /// the module docs for the contract). Fails with [`SimError::BadDma`]
    /// if `offset` is unaligned and with [`SimError::MramOverflow`] if the
    /// range passes the bank capacity; like [`Tasklet::mram_write`], a
    /// store past the high-water mark grows it.
    pub fn mram_store(&mut self, offset: u64, words: &[u64]) -> SimResult<()> {
        let len = words.len() as u64 * 8;
        self.check_dma(offset, len)?;
        let dst = self.dpu.mram_slice_mut(offset, len)?;
        for (out, w) in dst.chunks_exact_mut(8).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// An empty tally of work to settle onto this tasklet.
    #[inline]
    pub fn charges(&self) -> Charges<'a> {
        Charges {
            dma: self.dma,
            instructions: 0,
            dma_cycles: 0,
            dma_bytes: 0,
        }
    }

    /// Charges everything `charges` added up to this tasklet in one step.
    #[inline]
    pub fn settle(&mut self, charges: Charges<'_>) {
        self.charge(charges.instructions);
        self.dpu.dma_cycles += charges.dma_cycles;
        self.dpu.kernel_dma_bytes += charges.dma_bytes;
        self.dpu.total_dma_bytes += charges.dma_bytes;
    }

    /// Writes a single element.
    pub fn mram_write_one<T: Pod>(&mut self, offset: u64, value: T) -> SimResult<()> {
        self.mram_write(offset, &[value])
    }

    #[inline]
    fn check_dma(&self, offset: u64, len: u64) -> SimResult<()> {
        if !offset.is_multiple_of(8) {
            return Err(SimError::BadDma {
                dpu: self.dpu.id(),
                len,
                rule: "MRAM DMA offset must be 8-byte aligned",
            });
        }
        Ok(())
    }

    #[inline]
    fn charge_dma(&mut self, bytes: u64) {
        let (cycles, moved) = self.dma.price(bytes);
        self.dpu.dma_cycles += cycles;
        self.dpu.kernel_dma_bytes += moved;
        self.dpu.total_dma_bytes += moved;
    }
}

/// A checked, read-only view of consecutive 8-byte MRAM words, made by
/// [`Tasklet::mram_view`]. Reading a word decodes it from the bank and
/// charges nothing: the kernel tallies the DMAs the words would arrive
/// by in a [`Charges`].
#[derive(Clone, Copy, Debug)]
pub struct MramView<'m> {
    bytes: &'m [u8],
}

impl MramView<'_> {
    /// Words in the view.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.bytes.len() / 8) as u64
    }

    /// Whether the view holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Word `i` of the view. The read is bounds-checked against the
    /// view, never the bank: `i >= len()` panics instead of reading a
    /// neighboring region.
    #[inline]
    pub fn word(&self, i: u64) -> u64 {
        let at = i as usize * 8;
        let word = self.bytes[at..at + 8].try_into().expect("an 8-byte range");
        u64::from_le_bytes(word)
    }

    /// The view's words in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
        self.bytes.chunks_exact(8).map(word)
    }
}

/// Work a kernel adds up while it holds an [`MramView`], settled onto
/// its tasklet in one step by [`Tasklet::settle`]. DMAs are priced by
/// the same [`DmaTable`] as [`Tasklet::mram_read`].
#[must_use = "charges count only once settled"]
#[derive(Clone, Copy, Debug)]
pub struct Charges<'a> {
    dma: &'a DmaTable,
    instructions: u64,
    dma_cycles: u64,
    dma_bytes: u64,
}

impl Charges<'_> {
    /// Adds `n` single-cycle instructions (see [`Tasklet::charge`]).
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Adds `count` MRAM↔WRAM DMAs of `bytes` each.
    #[inline]
    pub fn dma(&mut self, count: u64, bytes: u64) {
        let (cycles, moved) = self.dma.price(bytes);
        self.dma_cycles += count * cycles;
        self.dma_bytes += count * moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimConfig;

    fn ctx_fixture(config: &PimConfig) -> Dpu {
        Dpu::new(0, config.mram_capacity, config.nr_tasklets)
    }

    const COST: crate::cost::CostModel = crate::cost::CostModel {
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
    };

    #[test]
    fn dma_round_trip_typed() {
        let config = PimConfig::tiny();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        let mut t = ctx.tasklet(0).unwrap();
        t.mram_write(0, &[1u32, 2, 3, 4]).unwrap();
        let mut back = [0u32; 4];
        t.mram_read(0, &mut back).unwrap();
        assert_eq!(back, [1, 2, 3, 4]);
    }

    #[test]
    fn unaligned_dma_is_rejected() {
        let config = PimConfig::tiny();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        let mut t = ctx.tasklet(0).unwrap();
        let err = t.mram_write(4, &[1u32]).unwrap_err();
        assert!(matches!(err, SimError::BadDma { .. }));
    }

    #[test]
    fn wram_budget_is_enforced() {
        let config = PimConfig::tiny(); // 2 KB WRAM, 4 tasklets → 512 B each
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        let mut t = ctx.tasklet(0).unwrap();
        let buf: Vec<u32> = t.alloc_wram(64).unwrap(); // 256 B
        assert_eq!(t.wram_free(), 256);
        assert!(t.alloc_wram::<u32>(128).is_err()); // would need 512 B
        t.free_wram(buf);
        assert_eq!(t.wram_free(), 512);
    }

    #[test]
    fn charges_accumulate_per_tasklet() {
        let config = PimConfig::tiny();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        ctx.for_each_tasklet(|t| {
            t.charge(10);
            Ok(())
        })
        .unwrap();
        assert_eq!(dpu.tasklet_instr, vec![10; 4]);
        assert_eq!(dpu.lifetime_instructions(), 40);
    }

    #[test]
    fn dma_charges_split_large_transfers() {
        let config = PimConfig::default();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        let mut t = ctx.tasklet(0).unwrap();
        // 4096 bytes = two bursts → two setup charges.
        let data = vec![0u64; 512];
        t.mram_write(0, &data).unwrap();
        let model = crate::cost::CostModel::default();
        assert_eq!(dpu.dma_cycles, 2 * model.dma_cycles(2048));
    }

    #[test]
    fn views_check_alignment_and_the_high_water_mark() {
        let config = PimConfig::tiny();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        let mut t = ctx.tasklet(0).unwrap();
        t.mram_write(0, &[5u64, 6, 7, 8]).unwrap();
        let view = t.mram_view(8, 3).unwrap();
        assert_eq!((view.len(), view.word(0), view.word(2)), (3, 6, 8));
        assert!(t.mram_view(64, 0).unwrap().is_empty());
        assert!(matches!(
            t.mram_view(4, 1).unwrap_err(),
            SimError::BadDma { .. }
        ));
        for (offset, words) in [(8, 4), (32, 1), (0, u64::MAX / 4), (u64::MAX - 7, 1)] {
            assert!(
                matches!(
                    t.mram_view(offset, words).unwrap_err(),
                    SimError::BadAddress { .. }
                ),
                "{offset} + {words} words"
            );
        }
    }

    #[test]
    fn settled_charges_equal_issued_reads() {
        let config = PimConfig::default();
        let table = DmaTable::new(&COST);
        let mut issued = ctx_fixture(&config);
        let mut tallied = ctx_fixture(&config);
        let data: Vec<u64> = (0..600).collect();
        for dpu in [&mut issued, &mut tallied] {
            dpu.host_write(0, &crate::system::encode_slice(&data))
                .unwrap();
        }
        let reads = [(0u64, 1usize), (8, 3), (16, 256), (24, 300), (0, 0)];
        {
            let mut ctx = DpuContext {
                dpu: &mut issued,
                config: &config,
                dma: &table,
            };
            let mut t = ctx.tasklet(1).unwrap();
            for &(word, n) in &reads {
                let mut buf = vec![0u64; n];
                t.mram_read(word * 8, &mut buf).unwrap();
                t.charge(4);
            }
            assert_eq!(t.mram_read_one::<u64>(40).unwrap(), 5);
        }
        {
            let mut ctx = DpuContext {
                dpu: &mut tallied,
                config: &config,
                dma: &table,
            };
            let mut t = ctx.tasklet(1).unwrap();
            let mut charges = t.charges();
            let view = t.mram_view(0, 600).unwrap();
            for &(word, n) in &reads {
                charges.dma(1, n as u64 * 8);
                charges.instr(4);
                if n > 0 {
                    assert_eq!(view.word(word + n as u64 - 1), word + n as u64 - 1);
                }
            }
            charges.dma(1, 8);
            assert_eq!(view.word(5), 5);
            t.settle(charges);
        }
        let counters = |d: &Dpu| {
            (
                d.tasklet_instr.clone(),
                d.dma_cycles,
                d.kernel_dma_bytes,
                d.total_instr,
                d.total_dma_bytes,
            )
        };
        assert_eq!(counters(&tallied), counters(&issued));
    }

    #[test]
    fn stores_check_alignment_and_capacity_and_charge_nothing() {
        let config = PimConfig::tiny();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        let mut t = ctx.tasklet(0).unwrap();
        t.mram_store(16, &[5, 6, 7]).unwrap();
        let view = t.mram_view(0, 5).unwrap();
        assert_eq!(view.iter().collect::<Vec<_>>(), [0, 0, 5, 6, 7]);
        t.mram_store(32, &[]).unwrap();
        assert!(matches!(
            t.mram_store(4, &[1]).unwrap_err(),
            SimError::BadDma { .. }
        ));
        let last = config.mram_capacity - 8;
        t.mram_store(last, &[9]).unwrap();
        assert!(matches!(
            t.mram_store(last, &[9, 9]).unwrap_err(),
            SimError::MramOverflow { .. }
        ));
        assert_eq!(dpu.mram_used(), config.mram_capacity);
        assert_eq!((dpu.lifetime_instructions(), dpu.dma_cycles), (0, 0));
        assert_eq!(dpu.lifetime_dma_bytes(), 0);
    }

    #[test]
    fn out_of_range_tasklet_id_fails() {
        let config = PimConfig::tiny();
        let mut dpu = ctx_fixture(&config);
        let mut ctx = DpuContext {
            dpu: &mut dpu,
            config: &config,
            dma: &DmaTable::new(&COST),
        };
        assert!(ctx.tasklet(99).is_err());
    }

    #[test]
    fn pod_round_trip_all_types() {
        fn rt<T: Pod + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = vec![0u8; T::BYTES];
            v.write_le(&mut buf);
            assert_eq!(T::read_le(&buf), v);
        }
        rt(0xABu8);
        rt(0xABCDu16);
        rt(0xDEADBEEFu32);
        rt(0xDEAD_BEEF_CAFE_F00Du64);
        rt(-123456i32);
        rt(-1234567890123i64);
    }
}
