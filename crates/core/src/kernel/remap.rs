//! The heavy-hitter remap kernel (§3.5).
//!
//! The host identifies the top-degree vertices with Misra-Gries and ships
//! an `old_id → new_id` table, where new ids descend from `u32::MAX` and
//! the most frequent node gets the highest id. Remapped nodes therefore
//! sort *after* every original node, so after re-normalization a heavy
//! hitter is (almost) always the second endpoint of its edges — its
//! first-node region is empty or tiny, eliminating the long neighbor scans
//! that stall the edge iterator on high-degree graphs.
//!
//! On the DPU the table is small by construction (validated against the
//! WRAM share), so each tasklet holds it resident, binary-searches it for
//! both endpoints of every edge, and rewrites a strided share of the
//! sample in place, one WRAM chunk at a time. The simulator executes that
//! program charge-exactly on the host (see the `pim_sim::kernel`
//! contract): every tasklet claims the table and chunk buffers, tasklet 0
//! builds one [`RemapLookup`] per launch and rewrites the whole sample
//! through a checked view and store, and each tasklet tallies its table
//! read, its blocks' DMAs and the binary-search probes its keys would make.

use super::layout::{Header, MramLayout};
use super::{edge_key, edge_unkey, key_first, key_second};
use pim_sim::{DpuContext, SimResult};

/// Instructions per endpoint lookup (binary search step count is charged
/// separately per probe).
const LOOKUP_INSTR_PER_PROBE: u64 = 4;
/// Fixed instructions per edge (unpack, normalize, repack).
const EDGE_INSTR: u64 = 5;

/// Applies the resident remap table to every sample edge. No-op when the
/// table is empty. Idempotent: new ids are outside the original id range,
/// so already-remapped endpoints miss the table.
pub fn remap_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<()> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let table_len = hdr.remap_len;
    let len = hdr.len;
    if table_len == 0 || len == 0 {
        return Ok(());
    }
    let nr_t = ctx.nr_tasklets();
    // Binary-search probes per block of `chunk` keys, filled by tasklet 0;
    // every tasklet claims the same buffers, so all share one chunk size.
    let mut block_probes = Vec::new();
    ctx.for_each_tasklet(|t| {
        // The WRAM-resident table, then the chunk buffer in what is left.
        let _table = t.alloc_wram::<u64>(table_len as usize)?;
        let lookup = if t.id() == 0 {
            let table: Vec<u64> = t.mram_view(layout.remap_off, table_len)?.iter().collect();
            Some(RemapLookup::new(&table))
        } else {
            None
        };
        let chunk = ((t.wram_free() / 8) / 2).max(8);
        let _buf = t.alloc_wram::<u64>(chunk)?;
        if let Some(lookup) = lookup {
            let mut keys: Vec<u64> = t.mram_view(layout.sample_off, len)?.iter().collect();
            for block in keys.chunks_mut(chunk) {
                let mut probes = 0;
                for key in block {
                    let (mapped, p) = lookup.map_key(*key);
                    *key = mapped;
                    probes += p;
                }
                block_probes.push(probes);
            }
            t.mram_store(layout.sample_off, &keys)?;
        }
        let mut charges = t.charges();
        charges.dma(1, table_len * 8);
        for block in (t.id()..block_probes.len()).step_by(nr_t) {
            let n = (chunk as u64).min(len - (block * chunk) as u64);
            charges.dma(2, n * 8);
            charges.instr(n * EDGE_INSTR + block_probes[block] * LOOKUP_INSTR_PER_PROBE);
        }
        t.settle(charges);
        Ok(())
    })
}

/// A remap table indexed for lookup: the rank of an id among the table's
/// old ids comes from a bucket index over the old-id range, and each
/// rank's probe count from one walk of the DPU binary search's decision
/// tree, so [`RemapLookup::map_key`] returns exactly what the DPU's
/// search over the sorted table yields and the probes it takes.
#[derive(Clone, Debug)]
pub struct RemapLookup {
    /// Old ids, ascending.
    old: Vec<u32>,
    /// New id of each entry.
    new: Vec<u32>,
    /// Smallest old id.
    base: u32,
    /// Old ids `base + (b << shift) ..` fall in bucket `b`.
    shift: u32,
    /// First rank of each bucket, plus one past the last bucket.
    bucket_start: Vec<u32>,
    /// Binary-search probes for an id of each rank `0..=len`.
    probes_at: Vec<u8>,
}

impl RemapLookup {
    /// Indexes a packed table (`old << 32 | new`, sorted as
    /// [`encode_table`] leaves it).
    pub fn new(table: &[u64]) -> RemapLookup {
        let old: Vec<u32> = table.iter().map(|&e| key_first(e)).collect();
        let new = table.iter().map(|&e| key_second(e)).collect();
        let base = old.first().copied().unwrap_or(0);
        let span = u64::from(old.last().copied().unwrap_or(0) - base) + 1;
        // About 64 buckets per entry, the smallest shift with
        // `span >> shift < 64·len`: nearly every bucket is empty, so most
        // lookups take one load and no data-dependent branch.
        let mut shift = 0;
        while (span >> shift) >= 64 * old.len().max(1) as u64 {
            shift += 1;
        }
        let buckets = (span >> shift) as usize + 1;
        let mut bucket_start = vec![0u32; buckets + 1];
        for &id in &old {
            bucket_start[(u64::from(id - base) >> shift) as usize + 1] += 1;
        }
        for b in 1..=buckets {
            bucket_start[b] += bucket_start[b - 1];
        }
        let mut probes_at = vec![0u8; old.len() + 1];
        walk_probes(0, old.len(), 0, &mut probes_at);
        RemapLookup {
            old,
            new,
            base,
            shift,
            bucket_start,
            probes_at,
        }
    }

    /// The number of old ids below `id`.
    #[inline]
    fn rank(&self, id: u32) -> usize {
        if self.old.is_empty() || id <= self.base {
            return 0;
        }
        let b = (u64::from(id - self.base) >> self.shift) as usize;
        if b + 1 >= self.bucket_start.len() {
            return self.old.len();
        }
        let (lo, hi) = (
            self.bucket_start[b] as usize,
            self.bucket_start[b + 1] as usize,
        );
        lo + self.old[lo..hi].partition_point(|&o| o < id)
    }

    /// `id`'s new id (itself when the table misses) and the DPU binary
    /// search's probe count for it.
    #[inline]
    pub fn map_id(&self, id: u32) -> (u32, u64) {
        let r = self.rank(id);
        let probes = u64::from(self.probes_at[r]);
        match self.old.get(r) {
            Some(&o) if o == id => (self.new[r], probes),
            _ => (id, probes),
        }
    }

    /// The kernel's per-edge rewrite of one packed edge key: both
    /// endpoints mapped, then re-normalized, since remapping can invert
    /// the endpoint order. Returns the key and the probes of both
    /// lookups. Journal replay applies it to re-derive a lost partition's
    /// post-remap sample without any DPU. An empty table is a
    /// pass-through, as the kernel skips its launch.
    #[inline]
    pub fn map_key(&self, key: u64) -> (u64, u64) {
        if self.old.is_empty() {
            return (key, 0);
        }
        let (u, v) = edge_unkey(key);
        let (nu, pu) = self.map_id(u);
        let (nv, pv) = self.map_id(v);
        (edge_key(nu.min(nv), nu.max(nv)), pu + pv)
    }
}

/// Records, for every final rank in `lo..=hi`, the probes the halving
/// search `while lo < hi { mid = (lo + hi) / 2; … }` makes to reach it:
/// an id of rank `r` goes left (`hi = mid`) exactly when `r <= mid`.
fn walk_probes(lo: usize, hi: usize, depth: u8, probes_at: &mut [u8]) {
    if lo == hi {
        probes_at[lo] = depth;
        return;
    }
    let mid = (lo + hi) / 2;
    walk_probes(lo, mid, depth + 1, probes_at);
    walk_probes(mid + 1, hi, depth + 1, probes_at);
}

/// Host-side helper: packs and sorts a remap table for transfer.
pub fn encode_table(pairs: &[(u32, u32)]) -> Vec<u64> {
    let mut table: Vec<u64> = pairs.iter().map(|&(old, new)| edge_key(old, new)).collect();
    table.sort_unstable();
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    fn run_remap(edges: &[(u32, u32)], table: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let config = PimConfig::tiny();
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute(
            config.mram_capacity,
            8,
            table.len() as u64,
            Some((edges.len() as u64).max(3)),
        )
        .unwrap();
        let keys: Vec<u64> = edges.iter().map(|&(u, v)| edge_key(u, v)).collect();
        let packed = encode_table(table);
        let hdr = Header {
            cap: layout.capacity,
            len: keys.len() as u64,
            remap_len: table.len() as u64,
            ..Header::default()
        };
        let (hdr, keys_bytes, table) = (hdr.encode(), encode_slice(&keys), encode_slice(&packed));
        let mut writes = vec![
            HostWrite {
                dpu: 0,
                offset: 0,
                data: &hdr,
            },
            HostWrite {
                dpu: 0,
                offset: layout.sample_off,
                data: &keys_bytes,
            },
        ];
        if !packed.is_empty() {
            writes.push(HostWrite {
                dpu: 0,
                offset: layout.remap_off,
                data: &table,
            });
        }
        sys.push(&writes).unwrap();
        sys.execute(|ctx| remap_kernel(ctx, &layout)).unwrap();
        decode_slice::<u64>(
            sys.dpu(0)
                .unwrap()
                .host_read(layout.sample_off, keys.len() as u64 * 8)
                .unwrap(),
        )
        .into_iter()
        .map(edge_unkey)
        .collect()
    }

    #[test]
    fn remaps_and_renormalizes() {
        const M: u32 = u32::MAX;
        let out = run_remap(&[(1, 5), (2, 5), (5, 9)], &[(5, M)]);
        assert_eq!(out, vec![(1, M), (2, M), (9, M)]);
    }

    #[test]
    fn untouched_edges_pass_through() {
        let out = run_remap(&[(1, 2), (3, 4)], &[(9, u32::MAX)]);
        assert_eq!(out, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn empty_table_is_a_noop() {
        let out = run_remap(&[(1, 2)], &[]);
        assert_eq!(out, vec![(1, 2)]);
    }

    #[test]
    fn both_endpoints_can_remap() {
        const M: u32 = u32::MAX;
        let out = run_remap(&[(3, 7)], &[(3, M), (7, M - 1)]);
        // 3 → MAX, 7 → MAX-1, then normalized.
        assert_eq!(out, vec![(M - 1, M)]);
    }

    #[test]
    fn idempotent_on_already_remapped_ids() {
        const M: u32 = u32::MAX;
        let first = run_remap(&[(1, 5)], &[(5, M)]);
        assert_eq!(first, vec![(1, M)]);
        // Applying the same table to the output changes nothing: M is not
        // an "old" id in the table.
        let second = run_remap(&first, &[(5, M)]);
        assert_eq!(second, first);
    }

    #[test]
    fn host_map_key_matches_the_kernel_rewrite() {
        const M: u32 = u32::MAX;
        let edges = vec![(1, 5), (2, 5), (5, 9), (3, 7), (1, 2), (7, 7)];
        let table = vec![(5, M), (3, M - 1), (7, M - 2)];
        let kernel_out = run_remap(&edges, &table);
        let lookup = RemapLookup::new(&encode_table(&table));
        let host_out: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| edge_unkey(lookup.map_key(edge_key(u, v)).0))
            .collect();
        assert_eq!(host_out, kernel_out);
        // Idempotent, like the kernel.
        for &(u, v) in &host_out {
            let k = edge_key(u, v);
            assert_eq!(lookup.map_key(k).0, k);
        }
        // Empty table is a pass-through.
        let empty = RemapLookup::new(&[]);
        assert_eq!(empty.map_key(edge_key(1, 5)), (edge_key(1, 5), 0));
    }

    #[test]
    fn triangle_count_is_invariant_under_remap() {
        use crate::kernel::{count::count_kernel, index::index_kernel, sort::sort_kernel};
        // A graph with a hub node 0 of high degree.
        let g = pim_graph::gen::simple::star(30);
        let mut edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        edges.push((1, 2));
        edges.push((2, 3));
        edges.push((1, 3)); // triangles (0,1,2),(0,2,3),(0,1,3)? star edges + these
        let count = |table: &[(u32, u32)]| -> u64 {
            let config = PimConfig::tiny();
            let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
            let layout = MramLayout::compute(
                config.mram_capacity,
                8,
                table.len() as u64,
                Some(edges.len() as u64),
            )
            .unwrap();
            let keys: Vec<u64> = edges.iter().map(|&(u, v)| edge_key(u, v)).collect();
            let hdr = Header {
                cap: layout.capacity,
                len: keys.len() as u64,
                remap_len: table.len() as u64,
                ..Header::default()
            };
            let (hdr, keys, packed) = (
                hdr.encode(),
                encode_slice(&keys),
                encode_slice(&encode_table(table)),
            );
            let mut writes = vec![
                HostWrite {
                    dpu: 0,
                    offset: 0,
                    data: &hdr,
                },
                HostWrite {
                    dpu: 0,
                    offset: layout.sample_off,
                    data: &keys,
                },
            ];
            if !table.is_empty() {
                writes.push(HostWrite {
                    dpu: 0,
                    offset: layout.remap_off,
                    data: &packed,
                });
            }
            sys.push(&writes).unwrap();
            sys.execute(|ctx| remap_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| sort_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| index_kernel(ctx, &layout)).unwrap();
            sys.execute(|ctx| count_kernel(ctx, &layout)).unwrap()[0]
        };
        let plain = count(&[]);
        let remapped = count(&[(0, u32::MAX)]);
        assert_eq!(plain, remapped);
        assert!(plain > 0);
    }
}
