//! Local (per-vertex) triangle counting — extension beyond the paper.
//!
//! The sampling framework the paper builds on (TRIÈST) estimates *local*
//! counts with the same machinery as global ones; this kernel adds that
//! capability. Every triangle `(u, v, w)` found by the §3.4 merge
//! increments the three vertices' slots in a per-node MRAM region.
//!
//! Increments go through a small direct-mapped WRAM cache per tasklet
//! (hot vertices coalesce); evictions perform a read-modify-write DMA on
//! the 8-byte slot. Tasklets are simulated sequentially, so the
//! read-modify-writes are race-free here; a real-hardware port would give
//! each tasklet a private region and add a reduce pass, which costs one
//! extra streaming read per tasklet — the modeled totals would shift by
//! only that linear term.
//!
//! Not compatible with Misra-Gries remapping: remapped ids fall outside
//! the local region's index space (the config layer rejects the combo).

use super::count::{lookup_region, merge_intersect_with, RegionLookup};
use super::layout::{Header, MramLayout};
use super::{key_first, key_second};
use pim_sim::{DpuContext, SimResult, Tasklet};

/// Instructions per cache probe (hash, compare, branch).
const CACHE_INSTR: u64 = 4;
/// Instructions per edge of fixed overhead (same as the global kernel).
const EDGE_INSTR: u64 = 6;

/// A direct-mapped (node → pending count) cache living in a tasklet's
/// WRAM budget. `slots` must be a power of two.
struct LocalCache {
    /// Packed entries: `node << 32 | pending`, or `u64::MAX` when empty.
    entries: Vec<u64>,
    mask: usize,
}

impl LocalCache {
    fn new(t: &mut Tasklet<'_>, slots: usize) -> SimResult<LocalCache> {
        debug_assert!(slots.is_power_of_two());
        let mut entries = t.alloc_wram::<u64>(slots)?;
        entries.iter_mut().for_each(|e| *e = u64::MAX);
        Ok(LocalCache {
            entries,
            mask: slots - 1,
        })
    }

    /// Adds 1 to `node`, evicting a colliding entry to MRAM if needed.
    fn bump(&mut self, t: &mut Tasklet<'_>, layout: &MramLayout, node: u32) -> SimResult<()> {
        t.charge(CACHE_INSTR);
        let slot = (node as usize).wrapping_mul(0x9E37_79B9) & self.mask;
        let entry = self.entries[slot];
        if entry != u64::MAX && key_first(entry) == node {
            self.entries[slot] = entry + 1;
            return Ok(());
        }
        if entry != u64::MAX {
            flush_entry(t, layout, entry)?;
        }
        self.entries[slot] = ((node as u64) << 32) | 1;
        Ok(())
    }

    /// Writes every pending count back to the MRAM region.
    fn flush_all(&mut self, t: &mut Tasklet<'_>, layout: &MramLayout) -> SimResult<()> {
        for slot in 0..self.entries.len() {
            let entry = self.entries[slot];
            if entry != u64::MAX {
                flush_entry(t, layout, entry)?;
                self.entries[slot] = u64::MAX;
            }
        }
        Ok(())
    }
}

/// Read-modify-write of one node's local-count slot.
fn flush_entry(t: &mut Tasklet<'_>, layout: &MramLayout, entry: u64) -> SimResult<()> {
    let node = key_first(entry) as u64;
    let pending = key_second(entry) as u64;
    if node >= layout.local_nodes {
        // Would silently corrupt the neighboring region: refuse.
        return Err(pim_sim::SimError::BadAddress {
            dpu: t.dpu_id(),
            offset: layout.local_off,
            len: node * 8,
        });
    }
    let slot = layout.local_slot(node);
    let current: u64 = t.mram_read_one(slot)?;
    t.charge(2);
    t.mram_write_one(slot, current + pending)
}

/// Zeroes the local-count region (parallel block memset by all tasklets).
pub fn local_clear_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<()> {
    let nodes = layout.local_nodes;
    if nodes == 0 {
        return Ok(());
    }
    let nr_t = ctx.nr_tasklets() as u64;
    let chunk = ((ctx.wram_per_tasklet() / 8) as u64).max(8);
    let blocks = nodes.div_ceil(chunk);
    ctx.for_each_tasklet(|t| {
        let buf = t.alloc_wram::<u64>(chunk as usize)?; // zero-initialized
        let mut blk = t.id() as u64;
        while blk < blocks {
            let start = blk * chunk;
            let n = chunk.min(nodes - start) as usize;
            t.mram_write(layout.local_slot(start), &buf[..n])?;
            t.charge(n as u64);
            blk += nr_t;
        }
        Ok(())
    })
}

/// The counting kernel with local accumulation: returns the global count
/// (also written to the header) and fills the per-node region.
pub fn local_count_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<u64> {
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
        ctx.for_each_tasklet(|t| {
            // Budget: 3 streaming buffers + the local cache (power of two,
            // ~1/4 of the share).
            let share = t.wram_free() / 8;
            // Largest power of two at most a quarter of the share.
            let cache_slots = 1usize << (usize::BITS - 1 - (share / 4).max(4).leading_zeros());
            let mut cache = LocalCache::new(t, cache_slots)?;
            let b = ((t.wram_free() / 8) / 3).max(4);
            let mut buf_e = t.alloc_wram::<u64>(b)?;
            // The merge's two refill buffers: it reads through views, but
            // the DPU kernel holds them in WRAM.
            t.alloc_wram::<u64>(2 * b)?;
            // Closing vertices of the current merge, replayed into the
            // cache in order once the merge has settled.
            let mut closers = Vec::new();
            let mut count = 0u64;
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
                    let lookup = RegionLookup::BinarySearch;
                    let Some((v_start, v_end)) =
                        lookup_region(t, layout, lookup, v, index_len, len)?
                    else {
                        continue;
                    };
                    closers.clear();
                    count +=
                        merge_intersect_with(t, layout, u, g + 1, len, v_start, v_end, b, |w| {
                            closers.push(w)
                        })?;
                    for &w in &closers {
                        cache.bump(t, layout, u)?;
                        cache.bump(t, layout, v)?;
                        cache.bump(t, layout, w)?;
                    }
                }
                block += nr_t;
            }
            cache.flush_all(t, layout)?;
            partials[t.id()] = count;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{edge_key, index::index_kernel, sort::sort_kernel};
    use pim_graph::{triangle, CooGraph, CsrGraph};
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    /// Full single-DPU pipeline with local counting; returns (total,
    /// per-node counts).
    fn run_local(g: &CooGraph) -> (u64, Vec<u64>) {
        let mut keys: Vec<u64> = g
            .edges()
            .iter()
            .filter(|e| !e.is_self_loop())
            .map(|e| {
                let n = e.normalized();
                edge_key(n.u, n.v)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let nodes = g.num_nodes() as u64;
        let config = PimConfig {
            mram_capacity: ((keys.len() as u64 * 24 + nodes * 8 + 8192).next_power_of_two())
                .max(1 << 16),
            ..PimConfig::tiny()
        };
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute_with_locals(
            config.mram_capacity,
            8,
            0,
            nodes,
            Some((keys.len() as u64).max(3)),
        )
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
                data: &encode_slice(&keys),
            },
        ])
        .unwrap();
        sys.execute(|ctx| local_clear_kernel(ctx, &layout)).unwrap();
        sys.execute(|ctx| sort_kernel(ctx, &layout)).unwrap();
        sys.execute(|ctx| index_kernel(ctx, &layout)).unwrap();
        let total = sys.execute(|ctx| local_count_kernel(ctx, &layout)).unwrap()[0];
        let local: Vec<u64> = decode_slice(
            sys.dpu(0)
                .unwrap()
                .host_read(layout.local_off, nodes * 8)
                .unwrap(),
        );
        (total, local)
    }

    #[test]
    fn single_triangle_localizes() {
        let g = CooGraph::from_pairs([(0, 1), (1, 2), (0, 2), (2, 3)]);
        let (total, local) = run_local(&g);
        assert_eq!(total, 1);
        assert_eq!(local, vec![1, 1, 1, 0]);
    }

    #[test]
    fn matches_reference_local_counts() {
        for seed in 0..3 {
            let g = pim_graph::gen::erdos_renyi(70, 0.15, seed);
            let (total, local) = run_local(&g);
            let csr = CsrGraph::from_coo(&g);
            assert_eq!(total, triangle::count_csr(&csr), "seed {seed}");
            assert_eq!(local, triangle::local_counts(&csr), "seed {seed}");
        }
    }

    #[test]
    fn local_sums_to_three_times_global() {
        let g = pim_graph::gen::rmat(8, 6, 0.57, 0.19, 0.19, 2);
        let (total, local) = run_local(&g);
        assert_eq!(local.iter().sum::<u64>(), 3 * total);
    }

    #[test]
    fn hub_vertex_dominates_local_counts() {
        // Wheel graph: hub 0 participates in every triangle.
        let n = 20u32;
        let mut g = pim_graph::gen::simple::cycle(n - 1);
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, n - 1)).collect();
        for (u, v) in edges {
            g.push(pim_graph::Edge::new(u, v));
        }
        let (total, local) = run_local(&g);
        assert_eq!(total as usize, (n - 1) as usize);
        assert_eq!(local[(n - 1) as usize], total);
    }

    #[test]
    fn empty_graph_has_zero_locals() {
        let g = pim_graph::gen::simple::empty(5);
        let (total, local) = run_local(&g);
        assert_eq!(total, 0);
        assert_eq!(local, vec![0; 5]);
    }
}
