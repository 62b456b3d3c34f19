//! The counting kernel: sorted-intersection edge iteration (§3.4).
//!
//! Each tasklet streams blocks of sample edges into WRAM. For an edge
//! `(u, v)` it binary-searches the region index (in MRAM — charged DMA
//! probes, exactly the pointer-chasing cost the paper describes) for the
//! region of `v`, then intersects the `u`-list (edges following the
//! current one whose first endpoint is still `u`) with `v`'s region.
//!
//! Three interchangeable intersection strategies produce the identical
//! count ([`IntersectStrategy`]):
//!
//! * **Merge** — the paper's streaming merge: with `(u, w)` from the `u`
//!   side and `(v, z)` from `v`'s region, `w == z` closes a triangle and
//!   both sides advance; `w < z` advances `u`; `w > z` advances `v`.
//!   Cost is linear in `|u| + |v|`.
//! * **Gallop** — for skewed pairs (one side tiny, the other huge):
//!   walk the short side and exponentially probe the long side in MRAM
//!   for each key, `O(short · log long)` probes instead of a linear
//!   scan. Each match consumes exactly one long-side slot, replicating
//!   the merge's min-multiplicity handling of duplicate edges.
//! * **Bitmap** — for dense pairs whose `v`-region `z` span fits the
//!   tasklet's WRAM bit array: mark the `v` side (bailing back to merge
//!   if a duplicate bit shows the multiset semantics are needed), then
//!   test each distinct `w` run of the `u` side in O(1).
//!
//! `Adaptive` (the default) picks per pair from the simulator's cost
//! model — probe cost vs. amortized streaming cost — mirroring how
//! hand-tuned DPU code sizes these thresholds offline.

use super::layout::{Header, MramLayout};
use super::{key_first, key_second};
use pim_sim::{DpuContext, SimResult, Tasklet};
use serde::{Deserialize, Serialize};

/// Instructions per merge comparison (two WRAM loads, compare, branch,
/// cursor bump).
const MERGE_INSTR_PER_CMP: u64 = 5;
/// Instructions per binary-search probe beyond the DMA itself.
const PROBE_INSTR: u64 = 8;
/// Instructions of per-edge fixed overhead (unpack, loop control).
const EDGE_INSTR: u64 = 6;
/// Instructions per short-side key in galloping mode (run bookkeeping,
/// loop control) beyond the probes themselves.
const GALLOP_INSTR_PER_KEY: u64 = 6;
/// Instructions to set or test one bitmap bit (shift, mask, or/and).
const BITMAP_INSTR_PER_KEY: u64 = 3;
/// Instructions per 64-bit word to clear the bitmap between pairs.
const BITMAP_INSTR_PER_CLEAR_WORD: u64 = 1;
/// Instructions to evaluate the adaptive strategy choice for one pair.
const STRATEGY_INSTR: u64 = 8;
/// Smallest `min(|u|, |v|)` for which the adaptive mode considers the
/// bitmap: below this the range probes and clear don't amortize.
const BITMAP_MIN_KEYS: u64 = 64;
/// `v`-region length below which the adaptive mode does not pay the
/// full `u`-region index lookup up front: with a tiny `v` side, only a
/// very long `u`-list can make any strategy beat the merge, and that is
/// testable with a single far probe instead of a binary search.
const PROBE_MIN_V: u64 = 16;
/// Far-probe distance for the tiny-`v` gate: if the sample key
/// `LONG_U_PROBE` slots ahead still belongs to `u`, the `u`-list is long
/// enough that galloping the tiny `v` side over it wins and the full
/// lookup is justified.
const LONG_U_PROBE: u64 = 256;

/// How the count kernel locates a node's region in the index table.
/// `BinarySearch` is the paper's design (§3.4); `LinearScan` is the
/// ablation baseline showing why the index probes must be logarithmic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionLookup {
    /// O(log n) MRAM probes per lookup (the paper's design).
    BinarySearch,
    /// O(n) buffered streaming scan per lookup (ablation baseline).
    LinearScan,
}

/// How the count kernel intersects an edge's `u`-list with its `v`
/// region (see the module docs for the mechanics). Every strategy
/// returns the identical triangle count; they differ only in charged
/// work, so `Merge`/`Gallop`/`Bitmap` double as ablation modes for the
/// adaptive default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntersectStrategy {
    /// Per-pair cost-based choice between the three (the default).
    #[default]
    Adaptive,
    /// Always the streaming merge (the pre-optimization behavior).
    Merge,
    /// Always gallop the shorter side over the longer.
    Gallop,
    /// Prefer the WRAM bitmap whenever its range fits, else merge.
    Bitmap,
}

impl std::str::FromStr for IntersectStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "adaptive" => Ok(IntersectStrategy::Adaptive),
            "merge" => Ok(IntersectStrategy::Merge),
            "gallop" => Ok(IntersectStrategy::Gallop),
            "bitmap" => Ok(IntersectStrategy::Bitmap),
            other => Err(format!(
                "unknown intersect strategy `{other}` (expected `adaptive`, \
                 `merge`, `gallop`, or `bitmap`)"
            )),
        }
    }
}

impl std::fmt::Display for IntersectStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IntersectStrategy::Adaptive => "adaptive",
            IntersectStrategy::Merge => "merge",
            IntersectStrategy::Gallop => "gallop",
            IntersectStrategy::Bitmap => "bitmap",
        })
    }
}

/// Counts triangles in the resident (sorted + indexed) sample. Writes the
/// total into the header and returns it.
pub fn count_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<u64> {
    count_kernel_opts(
        ctx,
        layout,
        RegionLookup::BinarySearch,
        IntersectStrategy::Adaptive,
    )
}

/// [`count_kernel`] with an explicit region-lookup strategy.
pub fn count_kernel_with(
    ctx: &mut DpuContext<'_>,
    layout: &MramLayout,
    lookup: RegionLookup,
) -> SimResult<u64> {
    count_kernel_opts(ctx, layout, lookup, IntersectStrategy::Adaptive)
}

/// Which intersection routine handles one `(u-list, v-region)` pair.
enum Pick {
    Merge,
    Gallop,
    Bitmap,
}

/// [`count_kernel`] with explicit region-lookup and intersection
/// strategies.
pub fn count_kernel_opts(
    ctx: &mut DpuContext<'_>,
    layout: &MramLayout,
    lookup: RegionLookup,
    strategy: IntersectStrategy,
) -> SimResult<u64> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let len = hdr.len;
    let index_len = hdr.index_len;
    let nr_t = ctx.nr_tasklets() as u64;
    let mut total = 0u64;
    if len >= 3 && index_len > 0 {
        let mut partials = vec![0u64; ctx.nr_tasklets()];
        let mut tasklet_id = 0usize;
        // Merge/Gallop never touch the bitmap, so they keep the larger
        // three-way WRAM split (and Merge stays charge-identical to the
        // pre-optimization kernel — the ablation baseline).
        let wants_bitmap = matches!(
            strategy,
            IntersectStrategy::Adaptive | IntersectStrategy::Bitmap
        );
        ctx.for_each_tasklet(|t| {
            let ways = if wants_bitmap { 4 } else { 3 };
            let b = ((t.wram_free() / 8) / ways).max(4);
            let mut buf_e = t.alloc_wram::<u64>(b)?;
            let mut buf_u = t.alloc_wram::<u64>(b)?;
            let mut buf_v = t.alloc_wram::<u64>(b)?;
            let mut bitmap: Vec<u64> = if wants_bitmap {
                t.alloc_wram::<u64>(b)?
            } else {
                Vec::new()
            };
            let bitmap_bits = bitmap.len() as u64 * 64;
            // The `u`-region end of the most recent distinct `u`:
            // consecutive edges in a block share `u`, so the extra
            // index search amortizes to ~one per vertex per block.
            let mut u_cache: Option<(u32, u64)> = None;
            // Vertices the tiny-`v` far probe already proved short, so
            // later edges of the same `u` skip straight to the merge.
            let mut short_u_cache: Option<u32> = None;
            let mut count = 0u64;
            // Strided blocks of edges per tasklet.
            let mut block = t.id() as u64;
            let blocks = len.div_ceil(b as u64);
            while block < blocks {
                let start = block * b as u64;
                let n = (b as u64).min(len - start) as usize;
                t.mram_read(layout.sample_slot(start), &mut buf_e[..n])?;
                for (i, &key) in buf_e.iter().enumerate().take(n) {
                    let g = start + i as u64;
                    let (u, v) = (key_first(key), key_second(key));
                    t.charge(EDGE_INSTR);
                    let region = lookup_region(t, layout, lookup, v, index_len, len)?;
                    let Some((v_start, v_end)) = region else {
                        continue;
                    };
                    if matches!(strategy, IntersectStrategy::Merge) {
                        count += merge_intersect(t, layout, u, g + 1, len, v_start, v_end, b)?;
                        continue;
                    }
                    let u_from = g + 1;
                    let v_len = v_end.saturating_sub(v_start);
                    if u_from >= len {
                        continue;
                    }
                    // Cheap u-list emptiness test before any index work:
                    // the sample is sorted, so `u`'s remaining adjacency
                    // is empty iff the next sample key has left `u` — and
                    // that key is usually already resident in `buf_e`.
                    let next = if i + 1 < n {
                        t.charge(1);
                        buf_e[i + 1]
                    } else {
                        t.charge(PROBE_INSTR);
                        t.mram_read_one(layout.sample_slot(u_from))?
                    };
                    if key_first(next) != u {
                        continue; // empty u-list: nothing to intersect
                    }
                    // Tiny-v gate (adaptive only): with a short `v` side,
                    // only a very long `u`-list can beat the merge — test
                    // that with one far probe instead of paying the full
                    // binary-search region lookup, and remember short-`u`
                    // verdicts so runs of the same vertex probe once.
                    if matches!(strategy, IntersectStrategy::Adaptive)
                        && v_len < PROBE_MIN_V
                        && u_cache.is_none_or(|(node, _)| node != u)
                    {
                        let far = u_from + LONG_U_PROBE;
                        let long_u = short_u_cache != Some(u) && far < len && {
                            t.charge(PROBE_INSTR);
                            let probe: u64 = t.mram_read_one(layout.sample_slot(far))?;
                            key_first(probe) == u
                        };
                        if !long_u {
                            short_u_cache = Some(u);
                            count += merge_intersect(t, layout, u, u_from, len, v_start, v_end, b)?;
                            continue;
                        }
                    }
                    let u_end = match u_cache {
                        Some((node, end)) if node == u => end,
                        _ => {
                            let end = lookup_region(t, layout, lookup, u, index_len, len)?
                                .map_or(u_from, |(_, end)| end);
                            u_cache = Some((u, end));
                            end
                        }
                    };
                    let u_len = u_end.saturating_sub(u_from);
                    if u_len == 0 || v_len == 0 {
                        continue;
                    }
                    let pick = match strategy {
                        IntersectStrategy::Gallop => Pick::Gallop,
                        IntersectStrategy::Bitmap => Pick::Bitmap,
                        IntersectStrategy::Adaptive => {
                            t.charge(STRATEGY_INSTR);
                            choose_adaptive(t, u_len, v_len, b, bitmap_bits)
                        }
                        IntersectStrategy::Merge => unreachable!("handled above"),
                    };
                    count += match pick {
                        Pick::Merge => {
                            merge_intersect(t, layout, u, u_from, len, v_start, v_end, b)?
                        }
                        Pick::Gallop => {
                            let (u_side, v_side) = ((u_from, u_end), (v_start, v_end));
                            if u_len <= v_len {
                                gallop_intersect(t, layout, u_side, v_side, b)?
                            } else {
                                gallop_intersect(t, layout, v_side, u_side, b)?
                            }
                        }
                        Pick::Bitmap => {
                            let attempted = if bitmap_bits > 0 {
                                bitmap_intersect(
                                    t,
                                    layout,
                                    u_from,
                                    u_end,
                                    v_start,
                                    v_end,
                                    &mut buf_u,
                                    &mut buf_v,
                                    &mut bitmap,
                                )?
                            } else {
                                None
                            };
                            match attempted {
                                Some(c) => c,
                                None => {
                                    merge_intersect(t, layout, u, u_from, len, v_start, v_end, b)?
                                }
                            }
                        }
                    };
                }
                block += nr_t;
            }
            partials[tasklet_id] = count;
            tasklet_id += 1;
            Ok(())
        })?;
        total = partials.iter().sum();
    }
    let mut t0 = ctx.tasklet(0)?;
    let mut hdr = Header::read(&mut t0)?;
    hdr.result = total;
    hdr.write(&mut t0)?;
    Ok(total)
}

/// The adaptive per-pair choice, from the simulator's cost model: merge
/// costs `(|u| + |v|)` comparisons plus streaming DMA; galloping costs
/// `short · (log₂ long + 2)` setup-dominated MRAM probes; the bitmap
/// streams the same words as the merge but replaces compare-advance
/// instructions with cheaper set/test bit operations, paying two range
/// probes and a clear of its words. The cheapest eligible strategy wins.
fn choose_adaptive(
    t: &Tasklet<'_>,
    u_len: u64,
    v_len: u64,
    buf_len: usize,
    bitmap_bits: u64,
) -> Pick {
    let dma = t.dma_table();
    let probe = dma.probe_cycles() as f64 + PROBE_INSTR as f64;
    let stream = dma.stream_word_cycles(buf_len as u64 * 8);
    let short = u_len.min(v_len);
    let long = u_len.max(v_len);
    let merge_cost = (u_len + v_len) as f64 * (MERGE_INSTR_PER_CMP as f64 + stream);
    let gallop_cost = short as f64
        * (((long as f64).log2() + 2.0) * probe + GALLOP_INSTR_PER_KEY as f64 + stream);
    let bitmap_ok = bitmap_bits > 0 && short >= BITMAP_MIN_KEYS;
    let bitmap_cost = 2.0 * probe
        + (u_len + v_len) as f64 * (BITMAP_INSTR_PER_KEY as f64 + stream)
        + (bitmap_bits / 64) as f64 * BITMAP_INSTR_PER_CLEAR_WORD as f64;
    if gallop_cost < merge_cost && (!bitmap_ok || gallop_cost <= bitmap_cost) {
        Pick::Gallop
    } else if bitmap_ok && bitmap_cost < merge_cost {
        Pick::Bitmap
    } else {
        Pick::Merge
    }
}

/// Locates `node`'s region in the index table: the half-open sample
/// range of edges whose first endpoint is `node`. The index range is
/// checked once; each entry read is charged as one 8-byte probe DMA plus
/// `PROBE_INSTR`, settled in one step.
pub(crate) fn lookup_region(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    lookup: RegionLookup,
    node: u32,
    index_len: u64,
    sample_len: u64,
) -> SimResult<Option<(u64, u64)>> {
    let mut charges = t.charges();
    let mut probes = 0u64;
    let region = {
        let index = t.mram_view(layout.index_slot(0), index_len)?;
        let mut probe = |i: u64| {
            probes += 1;
            index.word(i)
        };
        // The first entry whose node is ≥ `node`, with its position.
        let first_at_least = match lookup {
            RegionLookup::BinarySearch => {
                let (mut lo, mut hi) = (0u64, index_len);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key_first(probe(mid)) < node {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                (lo < index_len).then(|| (lo, probe(lo)))
            }
            // One probe per entry from the start, as a naive kernel
            // without binary search would stream the index.
            RegionLookup::LinearScan => (0..index_len)
                .map(|i| (i, probe(i)))
                .find(|&(_, entry)| key_first(entry) >= node),
        };
        match first_at_least {
            Some((i, entry)) if key_first(entry) == node => {
                let end = if i + 1 < index_len {
                    key_second(probe(i + 1)) as u64
                } else {
                    sample_len
                };
                Some((key_second(entry) as u64, end))
            }
            _ => None,
        }
    };
    charges.dma(probes, 8);
    charges.instr(probes * PROBE_INSTR);
    t.settle(charges);
    Ok(region)
}

/// Streams the `u`-side (edges after the current one while their first
/// node is still `u`) against the `v` region and counts matching second
/// nodes. See [`merge_intersect_with`].
#[allow(clippy::too_many_arguments)]
fn merge_intersect(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    u: u32,
    u_from: u64,
    sample_len: u64,
    v_start: u64,
    v_end: u64,
    b: usize,
) -> SimResult<u64> {
    merge_intersect_with(t, layout, u, u_from, sample_len, v_start, v_end, b, |_| {})
}

/// The merge: with `(u, w)` from the `u` side and `(v, z)` from the `v`
/// region, `w == z` closes a triangle and both sides advance, `w < z`
/// advances `u`, `w > z` advances `v`. `on_match` gets each closing `w`
/// in order (the local-counting extension replays them).
///
/// On the DPU each side refills a `b`-word WRAM buffer from MRAM when it
/// runs dry. Here both sides are checked views of the sample: the merge
/// charges the same sequence of ≤ `b`-word refill DMAs and one
/// `MERGE_INSTR_PER_CMP` per comparison step, but decodes only the words
/// it compares, and settles the charges once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_intersect_with(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    u: u32,
    u_from: u64,
    sample_len: u64,
    v_start: u64,
    v_end: u64,
    b: usize,
    mut on_match: impl FnMut(u32),
) -> SimResult<u64> {
    let b = b as u64;
    let mut charges = t.charges();
    let (mut count, mut steps) = (0u64, 0u64);
    {
        let us = t.mram_view(
            layout.sample_slot(u_from),
            sample_len.saturating_sub(u_from),
        )?;
        let vs = t.mram_view(layout.sample_slot(v_start), v_end.saturating_sub(v_start))?;
        // `i*` is the next word to compare, `*_fetched` the words the
        // side's buffer refills have brought in so far.
        let (mut iu, mut u_fetched) = (0u64, 0u64);
        let (mut iv, mut v_fetched) = (0u64, 0u64);
        loop {
            if iu == u_fetched && u_fetched < us.len() {
                let n = b.min(us.len() - u_fetched);
                charges.dma(1, n * 8);
                u_fetched += n;
            }
            if iv == v_fetched {
                if v_fetched == vs.len() {
                    break; // v side exhausted
                }
                let n = b.min(vs.len() - v_fetched);
                charges.dma(1, n * 8);
                v_fetched += n;
            }
            if iu == u_fetched {
                break; // sample exhausted
            }
            steps += 1;
            let ku = us.word(iu);
            if key_first(ku) != u {
                break; // left u's region
            }
            let w = key_second(ku);
            match w.cmp(&key_second(vs.word(iv))) {
                std::cmp::Ordering::Equal => {
                    count += 1;
                    on_match(w);
                    iu += 1;
                    iv += 1;
                }
                std::cmp::Ordering::Less => iu += 1,
                std::cmp::Ordering::Greater => iv += 1,
            }
        }
    }
    charges.instr(steps * MERGE_INSTR_PER_CMP);
    t.settle(charges);
    Ok(count)
}

/// Galloping intersection of two sorted sample ranges, comparing second
/// endpoints (each range's first endpoint is constant by construction).
/// The short side streams through a `b`-word WRAM buffer; for every
/// short key the long side is probed in MRAM with an exponential +
/// binary search from the last match position. A hit consumes exactly
/// one long-side slot (`long_lo = hit + 1`), which replicates the
/// streaming merge's min-multiplicity handling of duplicate edges
/// element by element. Both ranges are read through views; the refills,
/// probes and per-key instructions are settled once.
fn gallop_intersect(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    (short_start, short_end): (u64, u64),
    (long_start, long_end): (u64, u64),
    b: usize,
) -> SimResult<u64> {
    let mut charges = t.charges();
    let (mut count, mut keys, mut probes) = (0u64, 0u64, 0u64);
    {
        let short = t.mram_view(layout.sample_slot(short_start), short_end - short_start)?;
        let long = t.mram_view(layout.sample_slot(long_start), long_end - long_start)?;
        let mut probe = |i: u64| {
            probes += 1;
            key_second(long.word(i))
        };
        let mut long_lo = 0u64;
        let mut next = 0u64;
        'outer: while next < short.len() {
            let n = (b as u64).min(short.len() - next);
            charges.dma(1, n * 8);
            for i in next..next + n {
                if long_lo >= long.len() {
                    break 'outer;
                }
                let w = key_second(short.word(i));
                keys += 1;
                let lo = gallop_lower_bound(&mut probe, w, long_lo, long.len());
                if lo >= long.len() {
                    break 'outer;
                }
                if probe(lo) == w {
                    count += 1;
                    long_lo = lo + 1;
                } else {
                    long_lo = lo;
                }
            }
            next += n;
        }
    }
    charges.dma(probes, 8);
    charges.instr(keys * GALLOP_INSTR_PER_KEY + probes * PROBE_INSTR);
    t.settle(charges);
    Ok(count)
}

/// First slot in `[lo, end)` whose second endpoint (read by `probe`) is
/// ≥ `w`, by exponential probing from `lo` (runs of nearby matches cost
/// O(1) probes each) followed by a binary search of the overshoot window.
fn gallop_lower_bound(probe: &mut impl FnMut(u64) -> u32, w: u32, lo: u64, end: u64) -> u64 {
    if probe(lo) >= w {
        return lo;
    }
    // Invariant: slot `lo + off` holds a second endpoint < `w`.
    let mut off = 0u64;
    let mut step = 1u64;
    loop {
        let idx = lo + off + step;
        if idx >= end || probe(idx) >= w {
            break;
        }
        off += step;
        step *= 2;
    }
    let mut l = lo + off + 1;
    let mut h = (lo + off + step).min(end);
    while l < h {
        let mid = (l + h) / 2;
        if probe(mid) < w {
            l = mid + 1;
        } else {
            h = mid;
        }
    }
    l
}

/// Bitmap intersection: marks the `v` region's second endpoints in the
/// tasklet's WRAM bit array, then tests each distinct `w` run of the
/// `u` side in O(1). Returns `None` (after restoring the bitmap to
/// zero) when the strategy doesn't apply — the `z` span exceeds the bit
/// array, or the `v` region holds duplicate edges, whose
/// min-multiplicity semantics only the merge/gallop paths express.
#[allow(clippy::too_many_arguments)]
fn bitmap_intersect(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    u_from: u64,
    u_end: u64,
    v_start: u64,
    v_end: u64,
    buf_u: &mut [u64],
    buf_v: &mut [u64],
    bitmap: &mut [u64],
) -> SimResult<Option<u64>> {
    let bitmap_bits = bitmap.len() as u64 * 64;
    // Range probes: the span of `z` values the bit array must cover.
    let z_lo_key: u64 = t.mram_read_one(layout.sample_slot(v_start))?;
    t.charge(PROBE_INSTR);
    let z_hi_key: u64 = t.mram_read_one(layout.sample_slot(v_end - 1))?;
    t.charge(PROBE_INSTR);
    let z_lo = key_second(z_lo_key) as u64;
    let range = key_second(z_hi_key) as u64 - z_lo + 1;
    if range > bitmap_bits {
        return Ok(None);
    }
    let words = range.div_ceil(64) as usize;
    // Mark phase: one bit per distinct z; a duplicate aborts to merge.
    let mut distinct = true;
    let mut next = v_start;
    'mark: while next < v_end {
        let n = (buf_v.len() as u64).min(v_end - next) as usize;
        t.mram_read(layout.sample_slot(next), &mut buf_v[..n])?;
        next += n as u64;
        for &kv in &buf_v[..n] {
            let bit = key_second(kv) as u64 - z_lo;
            t.charge(BITMAP_INSTR_PER_KEY);
            let (word, mask) = (bit as usize / 64, 1u64 << (bit % 64));
            if bitmap[word] & mask != 0 {
                distinct = false;
                break 'mark;
            }
            bitmap[word] |= mask;
        }
    }
    let mut count = 0u64;
    if distinct {
        // Test phase: each distinct `w` run contributes min(mu, 1) = 1
        // when its bit is set; run tracking survives buffer refills.
        let mut last_w: Option<u32> = None;
        let mut next = u_from;
        while next < u_end {
            let n = (buf_u.len() as u64).min(u_end - next) as usize;
            t.mram_read(layout.sample_slot(next), &mut buf_u[..n])?;
            next += n as u64;
            for &ku in &buf_u[..n] {
                let w = key_second(ku);
                t.charge(BITMAP_INSTR_PER_KEY);
                if last_w == Some(w) {
                    continue;
                }
                last_w = Some(w);
                let off = (w as u64).wrapping_sub(z_lo);
                if off < range && bitmap[off as usize / 64] & (1u64 << (off % 64)) != 0 {
                    count += 1;
                }
            }
        }
    }
    // Restore the touched words to zero for the next pair.
    t.charge(words as u64 * BITMAP_INSTR_PER_CLEAR_WORD);
    for word in &mut bitmap[..words] {
        *word = 0;
    }
    Ok(if distinct { Some(count) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{edge_key, index::index_kernel, sort::sort_kernel};
    use pim_graph::{triangle, CooGraph};
    use pim_sim::system::encode_slice;
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    /// Runs the full sort → index → count pipeline on one DPU holding the
    /// whole (normalized) graph.
    fn count_on_dpu(g: &CooGraph, config: PimConfig) -> u64 {
        count_on_dpu_with(g, config, IntersectStrategy::Adaptive, true)
    }

    /// [`count_on_dpu`] with an explicit intersection strategy;
    /// `dedup = false` keeps duplicate edges in the sample to exercise
    /// the min-multiplicity semantics every strategy must share.
    fn count_on_dpu_with(
        g: &CooGraph,
        config: PimConfig,
        strategy: IntersectStrategy,
        dedup: bool,
    ) -> u64 {
        let (mut sys, layout) = indexed_system(g, config, dedup);
        sys.execute(|ctx| count_kernel_opts(ctx, &layout, RegionLookup::BinarySearch, strategy))
            .unwrap()[0]
    }

    /// A one-DPU system holding `g`'s sorted and indexed sample.
    fn indexed_system(g: &CooGraph, config: PimConfig, dedup: bool) -> (PimSystem, MramLayout) {
        let mut edges: Vec<u64> = g
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| {
                let n = e.normalized();
                edge_key(n.u, n.v)
            })
            .collect();
        edges.sort_unstable();
        if dedup {
            edges.dedup();
        }
        // Deliberately deliver unsorted to exercise the sort.
        edges.reverse();
        let needed = (edges.len() as u64 * 24 + 4096).next_power_of_two();
        let config = PimConfig {
            mram_capacity: config.mram_capacity.max(needed),
            ..config
        };
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute(
            config.mram_capacity,
            8,
            0,
            Some((edges.len() as u64).max(3)),
        )
        .unwrap();
        let hdr = Header {
            cap: layout.capacity,
            len: edges.len() as u64,
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
                data: &encode_slice(&edges),
            },
        ])
        .unwrap();
        sys.execute(|ctx| sort_kernel(ctx, &layout)).unwrap();
        sys.execute(|ctx| index_kernel(ctx, &layout)).unwrap();
        (sys, layout)
    }

    const ALL_STRATEGIES: [IntersectStrategy; 4] = [
        IntersectStrategy::Adaptive,
        IntersectStrategy::Merge,
        IntersectStrategy::Gallop,
        IntersectStrategy::Bitmap,
    ];

    #[test]
    fn counts_a_single_triangle() {
        let g = CooGraph::from_pairs([(0, 1), (1, 2), (0, 2)]);
        assert_eq!(count_on_dpu(&g, PimConfig::tiny()), 1);
    }

    #[test]
    fn counts_complete_graphs() {
        for n in [4u32, 6, 10, 15] {
            let g = pim_graph::gen::simple::complete(n);
            let expect = (n as u64) * (n as u64 - 1) * (n as u64 - 2) / 6;
            assert_eq!(count_on_dpu(&g, PimConfig::tiny()), expect, "K_{n}");
        }
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        assert_eq!(
            count_on_dpu(&pim_graph::gen::simple::star(20), PimConfig::tiny()),
            0
        );
        assert_eq!(
            count_on_dpu(&pim_graph::gen::simple::cycle(20), PimConfig::tiny()),
            0
        );
        assert_eq!(
            count_on_dpu(&pim_graph::gen::grid2d(8, 8, 1.0, 0, 1), PimConfig::tiny()),
            0
        );
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..5 {
            let g = pim_graph::gen::erdos_renyi(60, 0.15, seed);
            assert_eq!(
                count_on_dpu(&g, PimConfig::tiny()),
                triangle::count_exact(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_reference_on_skewed_graph() {
        let g = pim_graph::gen::rmat(9, 6, 0.57, 0.19, 0.19, 3);
        assert_eq!(
            count_on_dpu(&g, PimConfig::tiny()),
            triangle::count_exact(&g)
        );
    }

    #[test]
    fn every_strategy_counts_identically() {
        // Skewed (rmat hub-heavy), uniform, and dense graphs, with and
        // without duplicate edges in the sample: all four strategies
        // must return the merge's exact count.
        let graphs = [
            pim_graph::gen::rmat(8, 8, 0.57, 0.19, 0.19, 7),
            pim_graph::gen::erdos_renyi(70, 0.15, 4),
            pim_graph::gen::simple::complete(18),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for dedup in [true, false] {
                let reference =
                    count_on_dpu_with(g, PimConfig::tiny(), IntersectStrategy::Merge, dedup);
                for strategy in ALL_STRATEGIES {
                    assert_eq!(
                        count_on_dpu_with(g, PimConfig::tiny(), strategy, dedup),
                        reference,
                        "graph {gi}, dedup {dedup}, {strategy}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_sample_keeps_min_multiplicity() {
        // A multigraph where edge multiplicities differ per pair: the
        // count must use min-multiplicity on every strategy. Triangle
        // (0,1,2) with (0,1)×3, (0,2)×2, (1,2)×1 plus noise.
        let mut pairs = vec![
            (0u32, 1u32),
            (0, 1),
            (0, 1),
            (0, 2),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 4),
        ];
        // A second, denser triangle cluster with duplicates.
        for _ in 0..2 {
            pairs.extend([(5, 6), (5, 7), (6, 7), (5, 8), (6, 8)]);
        }
        let g = CooGraph::from_pairs(pairs);
        let reference = count_on_dpu_with(&g, PimConfig::tiny(), IntersectStrategy::Merge, false);
        for strategy in ALL_STRATEGIES {
            assert_eq!(
                count_on_dpu_with(&g, PimConfig::tiny(), strategy, false),
                reference,
                "{strategy}"
            );
        }
    }

    #[test]
    fn single_tasklet_agrees_with_many() {
        let g = pim_graph::gen::erdos_renyi(80, 0.12, 9);
        let one = PimConfig {
            nr_tasklets: 1,
            ..PimConfig::tiny()
        };
        let many = PimConfig {
            nr_tasklets: 8,
            ..PimConfig::tiny()
        };
        assert_eq!(count_on_dpu(&g, one), count_on_dpu(&g, many));
    }

    #[test]
    fn header_lengths_past_the_bank_are_errors() {
        use crate::kernel::layout::{HDR_INDEX_LEN, HDR_LEN};
        let g = pim_graph::gen::rmat(8, 8, 0.57, 0.19, 0.19, 5);
        let (sys, layout) = indexed_system(&g, PimConfig::tiny(), true);
        let used = sys.dpu(0).unwrap().mram_used();
        let corruptions = [
            (HDR_LEN, (used - layout.sample_off) / 8 + 1),
            (HDR_LEN, u64::MAX),
            (HDR_INDEX_LEN, (used - layout.index_off) / 8 + 1),
            (HDR_INDEX_LEN, u64::MAX),
        ];
        let lookups = [RegionLookup::BinarySearch, RegionLookup::LinearScan];
        for (word, value) in corruptions {
            for (strategy, lookup) in ALL_STRATEGIES
                .into_iter()
                .flat_map(|s| lookups.map(|l| (s, l)))
            {
                let mut bank = PimSystem::allocate(1, *sys.config(), CostModel::default()).unwrap();
                let image = sys.dpu(0).unwrap().host_read(0, used).unwrap().to_vec();
                let dpu = bank.dpu_mut(0).unwrap();
                dpu.host_write(0, &image).unwrap();
                dpu.host_write(word, &value.to_le_bytes()).unwrap();
                let err = bank
                    .execute(|ctx| count_kernel_opts(ctx, &layout, lookup, strategy))
                    .unwrap_err();
                assert!(
                    matches!(err, pim_sim::SimError::BadAddress { .. }),
                    "header word {word} = {value}, {strategy}, {lookup:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_samples() {
        assert_eq!(count_on_dpu(&CooGraph::new(), PimConfig::tiny()), 0);
        let g = CooGraph::from_pairs([(0, 1)]);
        assert_eq!(count_on_dpu(&g, PimConfig::tiny()), 0);
    }
}
