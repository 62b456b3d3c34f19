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
//! The table is small by construction (validated against the WRAM share),
//! so each tasklet holds it resident and rewrites a strided share of the
//! sample in place.

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
    let table_len = hdr.remap_len as usize;
    let len = hdr.len;
    if table_len == 0 || len == 0 {
        return Ok(());
    }
    let nr_t = ctx.nr_tasklets() as u64;
    ctx.for_each_tasklet(|t| {
        // Table resident in WRAM: entries packed (old << 32 | new), sorted
        // by old id (host guarantees order).
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
                // Re-normalize: remapping can invert the order.
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

/// Binary search of the WRAM-resident table; returns the (possibly
/// unchanged) id and the probe count for charging.
#[inline]
fn map(table: &[u64], id: u32) -> (u32, u64) {
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

/// Host-side helper: packs and sorts a remap table for transfer.
pub fn encode_table(pairs: &[(u32, u32)]) -> Vec<u64> {
    let mut table: Vec<u64> = pairs.iter().map(|&(old, new)| edge_key(old, new)).collect();
    table.sort_unstable();
    table
}

/// Host-side twin of the kernel's per-edge rewrite: applies a packed,
/// sorted remap table (see [`encode_table`]) to one edge key, including
/// the re-normalization the kernel performs when remapping inverts the
/// endpoint order. Journal replay uses this to re-derive a lost
/// partition's post-remap sample without any DPU.
pub fn map_key(table: &[u64], key: u64) -> u64 {
    if table.is_empty() {
        return key;
    }
    let (u, v) = edge_unkey(key);
    let (nu, _) = map(table, u);
    let (nv, _) = map(table, v);
    if nu <= nv {
        edge_key(nu, nv)
    } else {
        edge_key(nv, nu)
    }
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
        let packed = encode_table(&table);
        let host_out: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| edge_unkey(map_key(&packed, edge_key(u, v))))
            .collect();
        assert_eq!(host_out, kernel_out);
        // Idempotent, like the kernel.
        for &(u, v) in &host_out {
            let k = edge_key(u, v);
            assert_eq!(map_key(&packed, k), k);
        }
        // Empty table is a pass-through.
        assert_eq!(map_key(&[], edge_key(1, 5)), edge_key(1, 5));
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
