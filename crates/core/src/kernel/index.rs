//! The region-index kernel (§3.4, Fig. 2).
//!
//! After sorting, all edges sharing a first node are contiguous. This
//! kernel writes one `(first_node, start_position)` entry per region into
//! the index table, which the count kernel binary-searches to locate a
//! node's neighbor list. Entries are packed like edges (`node << 32 |
//! start`), so numeric order equals node order.

use super::layout::{Header, MramLayout};
use super::{edge_key, key_first};
use pim_sim::{DpuContext, SimResult};

/// Instructions per scanned edge (extract first node, compare with
/// previous, occasional append).
const SCAN_INSTR_PER_EDGE: u64 = 3;

/// Builds the region index over the sorted sample; stores the entry count
/// in the header and returns it.
pub fn index_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<u64> {
    let mut t0 = ctx.tasklet(0)?;
    let mut hdr = Header::read(&mut t0)?;
    let len = hdr.len;
    let mut entries = 0u64;
    if len > 0 {
        let share = t0.wram_free() / 8 / 2;
        let chunk = share.max(8);
        let mut buf_in = t0.alloc_wram::<u64>(chunk)?;
        let mut buf_out = t0.alloc_wram::<u64>(chunk)?;
        let mut out_len = 0usize;
        let mut prev_u = u64::MAX; // sentinel: no previous node
        let mut pos = 0u64;
        while pos < len {
            let n = (chunk as u64).min(len - pos) as usize;
            t0.mram_read(layout.sample_slot(pos), &mut buf_in[..n])?;
            t0.charge(n as u64 * SCAN_INSTR_PER_EDGE);
            for (i, &key) in buf_in[..n].iter().enumerate() {
                let u = key_first(key) as u64;
                if u != prev_u {
                    prev_u = u;
                    buf_out[out_len] = edge_key(u as u32, (pos + i as u64) as u32);
                    out_len += 1;
                    if out_len == buf_out.len() {
                        t0.mram_write(layout.index_slot(entries), &buf_out[..out_len])?;
                        entries += out_len as u64;
                        out_len = 0;
                    }
                }
            }
            pos += n as u64;
        }
        if out_len > 0 {
            t0.mram_write(layout.index_slot(entries), &buf_out[..out_len])?;
            entries += out_len as u64;
        }
    }
    hdr.index_len = entries;
    hdr.write(&mut t0)?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::edge_unkey;
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    fn build_index(sorted_keys: &[u64]) -> Vec<(u32, u32)> {
        let config = PimConfig::tiny();
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute(
            config.mram_capacity,
            8,
            0,
            Some((sorted_keys.len() as u64).max(3)),
        )
        .unwrap();
        let hdr = Header {
            cap: layout.capacity,
            len: sorted_keys.len() as u64,
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
                data: &encode_slice(sorted_keys),
            },
        ])
        .unwrap();
        let entries = sys.execute(|ctx| index_kernel(ctx, &layout)).unwrap()[0];
        let bytes = sys
            .dpu(0)
            .unwrap()
            .host_read(layout.index_off, entries * 8)
            .unwrap();
        decode_slice::<u64>(bytes)
            .into_iter()
            .map(edge_unkey)
            .collect()
    }

    #[test]
    fn regions_are_detected() {
        // Sorted sample: node 1 × 2 edges, node 3 × 1, node 7 × 3.
        let keys = vec![
            edge_key(1, 2),
            edge_key(1, 5),
            edge_key(3, 4),
            edge_key(7, 8),
            edge_key(7, 9),
            edge_key(7, 11),
        ];
        assert_eq!(build_index(&keys), vec![(1, 0), (3, 2), (7, 3)]);
    }

    #[test]
    fn single_region() {
        let keys = vec![edge_key(5, 6), edge_key(5, 7)];
        assert_eq!(build_index(&keys), vec![(5, 0)]);
    }

    #[test]
    fn empty_sample_yields_empty_index() {
        assert_eq!(build_index(&[]), vec![]);
    }

    #[test]
    fn every_edge_has_distinct_first_node() {
        let keys: Vec<u64> = (0..100u32).map(|i| edge_key(i, i + 1)).collect();
        let idx = build_index(&keys);
        assert_eq!(idx.len(), 100);
        for (i, &(node, start)) in idx.iter().enumerate() {
            assert_eq!(node as usize, i);
            assert_eq!(start as usize, i);
        }
    }

    #[test]
    fn node_zero_region_is_indexed() {
        // node 0 packs to a key with high word 0 — ensure the sentinel
        // does not swallow it.
        let keys = vec![edge_key(0, 1), edge_key(0, 2), edge_key(2, 3)];
        assert_eq!(build_index(&keys), vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn index_spans_multiple_output_flushes() {
        // More regions than an output buffer holds (tiny share: 512 B →
        // 32-entry buffers) forces intermediate flushes.
        let keys: Vec<u64> = (0..300u32).map(|i| edge_key(i * 2, i * 2 + 1)).collect();
        let idx = build_index(&keys);
        assert_eq!(idx.len(), 300);
        assert!(idx.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
