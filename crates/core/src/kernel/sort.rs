//! The sort kernel: order the edge sample by `(u, v)` (§3.4).
//!
//! A textbook external merge sort shaped by the hardware: initial runs are
//! sorted inside a tasklet's WRAM share, then log-many rank-parallel merge
//! passes stream runs through three small WRAM buffers, ping-ponging
//! between the sample region and the sort scratch region. All data
//! movement is explicit DMA; every compare/move is charged.

use super::layout::{Header, MramLayout};
use pim_sim::{DpuContext, SimResult, Tasklet};

/// Instructions per compare+move inside the WRAM run sort.
const SORT_INSTR_PER_CMP: u64 = 4;
/// Instructions per element of a streaming merge step (compare, select,
/// copy, cursor updates).
const MERGE_INSTR_PER_ELEM: u64 = 6;

/// Sorts the resident sample in ascending packed-key order. Afterwards the
/// sorted data is back in the sample region regardless of pass parity.
pub fn sort_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<()> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let len = hdr.len;
    if len <= 1 {
        return Ok(());
    }
    let nr_t = ctx.nr_tasklets() as u64;

    // Phase 1: WRAM-resident run sort (one full-share buffer per tasklet).
    let run = ((ctx.wram_per_tasklet() / 8) as u64).max(8);
    let n_runs = len.div_ceil(run);
    ctx.for_each_tasklet(|t| {
        let mut buf = t.alloc_wram::<u64>(run as usize)?;
        let mut r = t.id() as u64;
        while r < n_runs {
            let start = r * run;
            let n = run.min(len - start) as usize;
            t.mram_read(layout.sample_slot(start), &mut buf[..n])?;
            buf[..n].sort_unstable();
            let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()) as u64;
            t.charge(n as u64 * log_n * SORT_INSTR_PER_CMP);
            t.mram_write(layout.sample_slot(start), &buf[..n])?;
            r += nr_t;
        }
        Ok(())
    })?;

    // Phase 2: rank-parallel merge passes, ping-ponging regions.
    let mut width = run;
    let mut src_is_sample = true;
    while width < len {
        let pairs = len.div_ceil(2 * width);
        ctx.for_each_tasklet(|t| {
            let b = ((t.wram_free() / 8) / 3).max(4);
            let mut buf_a = t.alloc_wram::<u64>(b)?;
            let mut buf_b = t.alloc_wram::<u64>(b)?;
            let mut buf_o = t.alloc_wram::<u64>(b)?;
            let mut p = t.id() as u64;
            while p < pairs {
                let lo = p * 2 * width;
                let mid = (lo + width).min(len);
                let hi = (lo + 2 * width).min(len);
                merge_range(
                    t,
                    layout,
                    src_is_sample,
                    (lo, mid, hi),
                    &mut buf_a,
                    &mut buf_b,
                    &mut buf_o,
                )?;
                p += nr_t;
            }
            Ok(())
        })?;
        src_is_sample = !src_is_sample;
        width *= 2;
    }

    // Ensure the result ends in the sample region.
    if !src_is_sample {
        let chunk = ((ctx.wram_per_tasklet() / 8) as u64).max(8);
        let blocks = len.div_ceil(chunk);
        ctx.for_each_tasklet(|t| {
            let mut buf = t.alloc_wram::<u64>(chunk as usize)?;
            let mut blk = t.id() as u64;
            while blk < blocks {
                let start = blk * chunk;
                let n = chunk.min(len - start) as usize;
                t.mram_read(layout.scratch_slot(start), &mut buf[..n])?;
                t.mram_write(layout.sample_slot(start), &buf[..n])?;
                t.charge(n as u64 * 2);
                blk += nr_t;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// One streaming run-merge: `src[lo, mid) ∪ src[mid, hi) → dst[lo, hi)`,
/// where `src`/`dst` are the sample/scratch regions per `src_is_sample`.
fn merge_range(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    src_is_sample: bool,
    (lo, mid, hi): (u64, u64, u64),
    buf_a: &mut [u64],
    buf_b: &mut [u64],
    buf_o: &mut [u64],
) -> SimResult<()> {
    let src = |i: u64| {
        if src_is_sample {
            layout.sample_slot(i)
        } else {
            layout.scratch_slot(i)
        }
    };
    let dst = |i: u64| {
        if src_is_sample {
            layout.scratch_slot(i)
        } else {
            layout.sample_slot(i)
        }
    };

    // Global "next unloaded" cursors and local buffer windows.
    let (mut next_a, mut next_b) = (lo, mid);
    let (mut pos_a, mut len_a) = (0usize, 0usize);
    let (mut pos_b, mut len_b) = (0usize, 0usize);
    let mut out_base = lo;
    let mut out_len = 0usize;

    loop {
        // Refill input windows on demand.
        if pos_a == len_a && next_a < mid {
            let n = (buf_a.len() as u64).min(mid - next_a) as usize;
            t.mram_read(src(next_a), &mut buf_a[..n])?;
            next_a += n as u64;
            pos_a = 0;
            len_a = n;
        }
        if pos_b == len_b && next_b < hi {
            let n = (buf_b.len() as u64).min(hi - next_b) as usize;
            t.mram_read(src(next_b), &mut buf_b[..n])?;
            next_b += n as u64;
            pos_b = 0;
            len_b = n;
        }
        let a_live = pos_a < len_a;
        let b_live = pos_b < len_b;
        if !a_live && !b_live {
            break;
        }
        let take_a = match (a_live, b_live) {
            (true, true) => buf_a[pos_a] <= buf_b[pos_b],
            (true, false) => true,
            (false, true) => false,
            (false, false) => unreachable!(),
        };
        let key = if take_a {
            pos_a += 1;
            buf_a[pos_a - 1]
        } else {
            pos_b += 1;
            buf_b[pos_b - 1]
        };
        t.charge(MERGE_INSTR_PER_ELEM);
        buf_o[out_len] = key;
        out_len += 1;
        if out_len == buf_o.len() {
            t.mram_write(dst(out_base), &buf_o[..out_len])?;
            out_base += out_len as u64;
            out_len = 0;
        }
    }
    if out_len > 0 {
        t.mram_write(dst(out_base), &buf_o[..out_len])?;
        out_base += out_len as u64;
    }
    debug_assert_eq!(out_base, hi);
    Ok(())
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
