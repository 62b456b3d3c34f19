//! DPU-side kernels.
//!
//! Everything in this module runs "on" the simulated PIM cores: it may
//! touch MRAM only through [`pim_sim::Tasklet`] DMA calls into bounded
//! WRAM buffers, or through checked views and stores whose DMAs it
//! tallies (the `pim_sim::kernel` contract), and it accounts instruction
//! work through `charge` hooks or the same tallies.
//! The per-bank data layout is defined by [`layout::MramLayout`]; the
//! processing pipeline for each count is:
//!
//! 1. [`receive`] — drain the host's staging buffer into the edge sample,
//!    applying reservoir sampling when the sample is full (§3.3),
//! 2. [`remap`] — rewrite heavy-hitter vertex ids (§3.5),
//! 3. [`sort`] — bounded-WRAM parallel merge sort of the sample (§3.4),
//! 4. [`index`] — build the first-node region table (§3.4, Fig. 2),
//! 5. [`count`] — the merge-based edge-iterator triangle count (§3.4).

pub mod checksum;
pub mod count;
pub mod index;
pub mod layout;
pub mod local;
pub mod receive;
pub mod remap;
pub mod rng;
pub mod sort;

pub use layout::{Header, MramLayout};

/// Packs an ordered edge `(u, v)` into the 8-byte MRAM record. The packing
/// makes numeric `u64` order equal lexicographic `(u, v)` order, so the
/// sort kernel works directly on packed keys.
#[inline]
pub fn edge_key(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// Unpacks an edge record.
#[inline]
pub fn edge_unkey(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// First node of a packed edge.
#[inline]
pub fn key_first(key: u64) -> u32 {
    (key >> 32) as u32
}

/// Second node of a packed edge.
#[inline]
pub fn key_second(key: u64) -> u32 {
    key as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trip() {
        for (u, v) in [(0u32, 0u32), (1, 2), (u32::MAX, 7), (5, u32::MAX)] {
            let k = edge_key(u, v);
            assert_eq!(edge_unkey(k), (u, v));
            assert_eq!(key_first(k), u);
            assert_eq!(key_second(k), v);
        }
    }

    #[test]
    fn key_order_is_lexicographic() {
        assert!(edge_key(1, 9) < edge_key(2, 0));
        assert!(edge_key(1, 2) < edge_key(1, 3));
        assert!(edge_key(0, u32::MAX) < edge_key(1, 0));
    }
}
