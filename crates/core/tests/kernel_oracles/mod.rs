//! Reference copies of the streaming DPU programs that the `sort` and
//! `remap` kernels execute charge-exactly on the host. Each oracle issues
//! every DMA and charge one call at a time, exactly as the DPU code does,
//! so a property test can hold the host kernels to the same output bytes,
//! per-tasklet instructions, DMA bytes and DMA cycles.

use pim_sim::{DpuContext, SimResult, Tasklet};
use pim_tc::kernel::layout::{Header, MramLayout};
use pim_tc::kernel::{edge_key, edge_unkey, key_first, key_second};

const SORT_INSTR_PER_CMP: u64 = 4;
const MERGE_INSTR_PER_ELEM: u64 = 6;
const LOOKUP_INSTR_PER_PROBE: u64 = 4;
const EDGE_INSTR: u64 = 5;

/// The streaming external merge sort: WRAM-resident runs, rank-parallel
/// merge passes ping-ponging between the sample and scratch regions
/// through three WRAM windows, and a copy back after an odd pass count.
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

    let mut width = run;
    let mut src_is_sample = true;
    while width < len {
        let pairs = len.div_ceil(2 * width);
        ctx.for_each_tasklet(|t| {
            let b = ((t.wram_free() / 8) / 3).max(4);
            let mut bufs = [
                t.alloc_wram::<u64>(b)?,
                t.alloc_wram::<u64>(b)?,
                t.alloc_wram::<u64>(b)?,
            ];
            let mut p = t.id() as u64;
            while p < pairs {
                let lo = p * 2 * width;
                let mid = (lo + width).min(len);
                let hi = (lo + 2 * width).min(len);
                merge_range(t, layout, src_is_sample, (lo, mid, hi), &mut bufs)?;
                p += nr_t;
            }
            Ok(())
        })?;
        src_is_sample = !src_is_sample;
        width *= 2;
    }

    if !src_is_sample {
        let chunk = ((ctx.wram_per_tasklet() / 8) as u64).max(8);
        let blocks = len.div_ceil(chunk);
        ctx.for_each_tasklet(|t| {
            let mut buf = t.alloc_wram::<u64>(chunk as usize)?;
            let mut blk = t.id() as u64;
            while blk < blocks {
                let start = blk * chunk;
                let n = chunk.min(len - start) as usize;
                t.mram_read(layout.scratch_off + start * 8, &mut buf[..n])?;
                t.mram_write(layout.sample_slot(start), &buf[..n])?;
                t.charge(n as u64 * 2);
                blk += nr_t;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// One streaming run merge: `src[lo, mid) ∪ src[mid, hi) → dst[lo, hi)`.
fn merge_range(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    src_is_sample: bool,
    (lo, mid, hi): (u64, u64, u64),
    [buf_a, buf_b, buf_o]: &mut [Vec<u64>; 3],
) -> SimResult<()> {
    let (src, dst) = if src_is_sample {
        (layout.sample_off, layout.scratch_off)
    } else {
        (layout.scratch_off, layout.sample_off)
    };
    let (mut next_a, mut next_b) = (lo, mid);
    let (mut pos_a, mut len_a) = (0usize, 0usize);
    let (mut pos_b, mut len_b) = (0usize, 0usize);
    let mut out_base = lo;
    let mut out_len = 0usize;
    loop {
        if pos_a == len_a && next_a < mid {
            let n = (buf_a.len() as u64).min(mid - next_a) as usize;
            t.mram_read(src + next_a * 8, &mut buf_a[..n])?;
            next_a += n as u64;
            (pos_a, len_a) = (0, n);
        }
        if pos_b == len_b && next_b < hi {
            let n = (buf_b.len() as u64).min(hi - next_b) as usize;
            t.mram_read(src + next_b * 8, &mut buf_b[..n])?;
            next_b += n as u64;
            (pos_b, len_b) = (0, n);
        }
        let (a_live, b_live) = (pos_a < len_a, pos_b < len_b);
        if !a_live && !b_live {
            break;
        }
        let take_a = a_live && (!b_live || buf_a[pos_a] <= buf_b[pos_b]);
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
            t.mram_write(dst + out_base * 8, &buf_o[..out_len])?;
            out_base += out_len as u64;
            out_len = 0;
        }
    }
    if out_len > 0 {
        t.mram_write(dst + out_base * 8, &buf_o[..out_len])?;
    }
    Ok(())
}

/// The streaming remap: every tasklet reads the table into WRAM and
/// rewrites a strided share of the sample one chunk at a time, binary
/// searching the table for both endpoints of every edge.
pub fn remap_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<()> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let table_len = hdr.remap_len as usize;
    let len = hdr.len;
    if table_len == 0 || len == 0 {
        return Ok(());
    }
    let nr_t = ctx.nr_tasklets() as u64;
    ctx.for_each_tasklet(|t| {
        let mut table = t.alloc_wram::<u64>(table_len)?;
        t.mram_read(layout.remap_off, &mut table)?;
        let chunk = ((t.wram_free() / 8) / 2).max(8);
        let mut buf = t.alloc_wram::<u64>(chunk)?;
        let mut block = t.id() as u64;
        let blocks = len.div_ceil(chunk as u64);
        while block < blocks {
            let start = block * chunk as u64;
            let n = (chunk as u64).min(len - start) as usize;
            t.mram_read(layout.sample_slot(start), &mut buf[..n])?;
            let mut probes = 0u64;
            for key in &mut buf[..n] {
                let (u, v) = edge_unkey(*key);
                let (nu, np1) = map(&table, u);
                let (nv, np2) = map(&table, v);
                probes += np1 + np2;
                *key = if nu <= nv {
                    edge_key(nu, nv)
                } else {
                    edge_key(nv, nu)
                };
            }
            t.charge(n as u64 * EDGE_INSTR + probes * LOOKUP_INSTR_PER_PROBE);
            t.mram_write(layout.sample_slot(start), &buf[..n])?;
            block += nr_t;
        }
        Ok(())
    })
}

/// Binary search of the WRAM-resident table: the (possibly unchanged) id
/// and the probe count.
pub fn map(table: &[u64], id: u32) -> (u32, u64) {
    let (mut lo, mut hi) = (0usize, table.len());
    let mut probes = 0u64;
    while lo < hi {
        probes += 1;
        let mid = (lo + hi) / 2;
        if key_first(table[mid]) < id {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < table.len() && key_first(table[lo]) == id {
        (key_second(table[lo]), probes)
    } else {
        (id, probes)
    }
}
