//! The sort kernel: order the edge sample by `(u, v)` (§3.4).
//!
//! The DPU program is a textbook external merge sort shaped by the
//! hardware: initial runs are sorted inside a tasklet's WRAM share, then
//! log-many rank-parallel merge passes stream runs through three small
//! WRAM buffers, ping-ponging between the sample region and the sort
//! scratch region, and an odd pass count ends with a copy back.
//!
//! That program's DMA sequence and instruction count depend only on the
//! sample length and the WRAM split, never on the keys, so the simulator
//! executes it charge-exactly on the host (see the `pim_sim::kernel`
//! contract): tasklet 0 reads the sample through one checked view, sorts
//! it in one pass and stores it back, while every tasklet claims the
//! WRAM buffers the DPU code would and tallies its runs, merges and
//! copy-back in closed form. The scratch region is never written; no
//! later kernel reads it.

use super::layout::{Header, MramLayout};
use pim_sim::{Charges, DpuContext, SimResult};

/// Instructions per compare+move inside the WRAM run sort.
const SORT_INSTR_PER_CMP: u64 = 4;
/// Instructions per element of a streaming merge step (compare, select,
/// copy, cursor updates).
const MERGE_INSTR_PER_ELEM: u64 = 6;
/// Instructions per element of the copy back to the sample region.
const COPY_INSTR_PER_ELEM: u64 = 2;

/// Sorts the resident sample in ascending packed-key order. Afterwards the
/// sorted data is in the sample region.
pub fn sort_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<()> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let len = hdr.len;
    if len <= 1 {
        return Ok(());
    }
    let shape = SortShape::new(len, ctx.wram_per_tasklet(), ctx.nr_tasklets() as u64);
    ctx.for_each_tasklet(|t| {
        // The run sort's one full-share buffer (the copy back claims one
        // of the same size, so it fits whenever this does).
        let run_buf = t.alloc_wram::<u64>(shape.run as usize)?;
        if t.id() == 0 {
            let mut keys: Vec<u64> = t.mram_view(layout.sample_off, len)?.iter().collect();
            // Stable: after the first batch most of the sample is an
            // already-sorted prefix, which the stable sort takes as a run.
            keys.sort();
            t.mram_store(layout.sample_off, &keys)?;
        }
        t.free_wram(run_buf);
        if shape.passes > 0 {
            // The merge passes' two input windows and output window.
            for _ in 0..3 {
                t.alloc_wram::<u64>(shape.window as usize)?;
            }
        }
        let mut charges = t.charges();
        shape.tally(t.id() as u64, &mut charges);
        t.settle(charges);
        Ok(())
    })
}

/// The data-independent shape of one DPU's sort: run length, merge
/// window, pass count, and the tasklet stride that divides the work.
struct SortShape {
    len: u64,
    nr_t: u64,
    /// Keys per initial run (one full WRAM share).
    run: u64,
    /// Words per merge buffer (a third of the share).
    window: u64,
    /// Merge passes until one run covers the sample.
    passes: u32,
}

impl SortShape {
    fn new(len: u64, wram_per_tasklet: usize, nr_t: u64) -> SortShape {
        let run = ((wram_per_tasklet / 8) as u64).max(8);
        let window = ((wram_per_tasklet / 8) / 3).max(4) as u64;
        let mut passes = 0;
        let mut width = run;
        while width < len {
            passes += 1;
            width *= 2;
        }
        SortShape {
            len,
            nr_t,
            run,
            window,
            passes,
        }
    }

    /// Adds tasklet `id`'s work to `c`: its strided share of the runs,
    /// of every merge pass's run pairs, and of the copy back.
    fn tally(&self, id: u64, c: &mut Charges<'_>) {
        let (len, run, step) = (self.len, self.run, self.nr_t as usize);
        let runs = len.div_ceil(run);
        for r in (id..runs).step_by(step) {
            let n = run.min(len - r * run);
            let log_n = 64 - (n.max(2) - 1).leading_zeros() as u64;
            c.instr(n * log_n * SORT_INSTR_PER_CMP);
            c.dma(2, n * 8);
        }
        let mut width = run;
        for _ in 0..self.passes {
            let pairs = len.div_ceil(2 * width);
            for p in (id..pairs).step_by(step) {
                let lo = p * 2 * width;
                let mid = (lo + width).min(len);
                let hi = (lo + 2 * width).min(len);
                // Each input side is refilled, and the output flushed, in
                // window-sized DMAs with one short tail.
                for n in [mid - lo, hi - mid, hi - lo] {
                    c.dma(n / self.window, self.window * 8);
                    if n % self.window > 0 {
                        c.dma(1, n % self.window * 8);
                    }
                }
                c.instr((hi - lo) * MERGE_INSTR_PER_ELEM);
            }
            width *= 2;
        }
        if self.passes % 2 == 1 {
            for blk in (id..runs).step_by(step) {
                let n = run.min(len - blk * run);
                c.dma(2, n * 8);
                c.instr(n * COPY_INSTR_PER_ELEM);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn run_sort(keys: &[u64], config: PimConfig) -> Vec<u64> {
        // Grow the bank if the fixture needs more than the tiny default
        // (sample + scratch + index at 24 B/edge, plus fixed regions).
        let needed = (keys.len() as u64 * 24 + 4096).next_power_of_two();
        let config = PimConfig {
            mram_capacity: config.mram_capacity.max(needed),
            ..config
        };
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout =
            MramLayout::compute(config.mram_capacity, 8, 0, Some((keys.len() as u64).max(3)))
                .unwrap();
        let hdr = Header {
            cap: layout.capacity,
            len: keys.len() as u64,
            ..Header::default()
        };
        sys.push(&[
            HostWrite {
                dpu: 0,
                offset: 0,
                data: &hdr.encode(),
            },
            HostWrite {
                dpu: 0,
                offset: layout.sample_off,
                data: &encode_slice(keys),
            },
        ])
        .unwrap();
        sys.execute(|ctx| sort_kernel(ctx, &layout)).unwrap();
        decode_slice(
            sys.dpu(0)
                .unwrap()
                .host_read(layout.sample_off, keys.len() as u64 * 8)
                .unwrap(),
        )
    }

    fn check(keys: Vec<u64>, config: PimConfig) {
        let got = run_sort(&keys, config);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn sorts_small_and_degenerate_inputs() {
        let cfg = PimConfig::tiny();
        check(vec![], cfg);
        check(vec![5], cfg);
        check(vec![2, 1], cfg);
        check(vec![3, 3, 3], cfg);
    }

    #[test]
    fn sorts_within_a_single_run() {
        // tiny config: 512 B share → 64-key runs; 50 keys fit in one run.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let keys: Vec<u64> = (0..50).map(|_| rng.gen()).collect();
        check(keys, PimConfig::tiny());
    }

    #[test]
    fn sorts_across_many_merge_passes() {
        // 5000 keys across 64-key runs → ~7 merge passes, odd tails, the
        // copy-back path, all exercised.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let keys: Vec<u64> = (0..5000).map(|_| rng.gen()).collect();
        check(keys, PimConfig::tiny());
    }

    #[test]
    fn sorts_with_single_tasklet() {
        let config = PimConfig {
            nr_tasklets: 1,
            ..PimConfig::tiny()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let keys: Vec<u64> = (0..1000).map(|_| rng.gen()).collect();
        check(keys, config);
    }

    #[test]
    fn sorts_presorted_and_reversed() {
        let asc: Vec<u64> = (0..2000).collect();
        let desc: Vec<u64> = (0..2000).rev().collect();
        check(asc, PimConfig::tiny());
        check(desc, PimConfig::tiny());
    }

    #[test]
    fn sorts_with_heavy_duplicates() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let keys: Vec<u64> = (0..3000).map(|_| rng.gen_range(0..8u64)).collect();
        check(keys, PimConfig::tiny());
    }

    #[test]
    fn exact_power_of_two_lengths() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [64usize, 128, 256, 1024] {
            let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            check(keys, PimConfig::tiny());
        }
    }
}
