//! Per-bank MRAM layout and the kernel/host shared header.
//!
//! Every DPU's 64 MB bank is carved into fixed regions, mirroring the
//! paper's Fig. 2 (the COO sample plus its region-index table) plus the
//! bookkeeping the full pipeline needs:
//!
//! ```text
//! 0        64          +staging     +remap       +locals      +M·8      +M·8        +(M+1)·8
//! ┌────────┬───────────┬────────────┬────────────┬────────────┬─────────┬───────────┐
//! │ header │ staging   │ remap      │ local      │ edge       │ sort    │ region    │
//! │ (8×u64)│ (host→DPU │ table      │ counts     │ sample S   │ scratch │ index     │
//! │        │  batches) │ (old→new   │ (one u64   │ (M keys)   │         │ table     │
//! │        │           │  id pairs) │  per node) │            │         │           │
//! └────────┴───────────┴────────────┴────────────┴────────────┴─────────┴───────────┘
//! ```
//!
//! The local-count region is empty unless local counting is enabled, and
//! the remap table is empty without Misra-Gries remapping; an empty
//! region starts where the next one does.
//!
//! The header is the host↔kernel mailbox: capacities, lengths, the DPU's
//! RNG state, and the result live there; the host gathers all eight words
//! in one rank-parallel transfer.

use crate::error::TcError;
use pim_sim::{SimResult, Tasklet};

/// Byte size of the header region (8 × u64).
pub const HEADER_BYTES: u64 = 64;

/// Header word offsets (bytes from the start of the bank).
pub const HDR_CAP: u64 = 0;
/// Current number of edges resident in the sample.
pub const HDR_LEN: u64 = 8;
/// Total edges ever routed to this core (`t` in §3.3).
pub const HDR_SEEN: u64 = 16;
/// Kernel RNG state (xorshift64*).
pub const HDR_RNG: u64 = 24;
/// Entries in the remap table.
pub const HDR_REMAP_LEN: u64 = 32;
/// Triangle-count result (written by the count kernel).
pub const HDR_RESULT: u64 = 40;
/// Edges currently waiting in the staging region.
pub const HDR_STAGE_LEN: u64 = 48;
/// Entries in the region index table (written by the index kernel).
pub const HDR_INDEX_LEN: u64 = 56;

/// The decoded header (kernel-side working copy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Header {
    /// Sample capacity `M` in edges.
    pub cap: u64,
    /// Edges resident in the sample.
    pub len: u64,
    /// Edges ever routed to this core (`t`).
    pub seen: u64,
    /// RNG state.
    pub rng: u64,
    /// Remap-table entries.
    pub remap_len: u64,
    /// Last count result.
    pub result: u64,
    /// Edges waiting in staging.
    pub stage_len: u64,
    /// Region-index entries.
    pub index_len: u64,
}

impl Header {
    /// The eight header words in MRAM order.
    pub fn words(&self) -> [u64; 8] {
        [
            self.cap,
            self.len,
            self.seen,
            self.rng,
            self.remap_len,
            self.result,
            self.stage_len,
            self.index_len,
        ]
    }

    fn from_words(w: &[u64]) -> Header {
        Header {
            cap: w[0],
            len: w[1],
            seen: w[2],
            rng: w[3],
            remap_len: w[4],
            result: w[5],
            stage_len: w[6],
            index_len: w[7],
        }
    }

    /// Reads the header from MRAM (one 64-byte DMA).
    pub fn read(t: &mut Tasklet<'_>) -> SimResult<Header> {
        let mut words = [0u64; 8];
        t.mram_read(0, &mut words)?;
        t.charge(8);
        Ok(Header::from_words(&words))
    }

    /// Writes the header back to MRAM (one 64-byte DMA).
    pub fn write(&self, t: &mut Tasklet<'_>) -> SimResult<()> {
        t.charge(8);
        t.mram_write(0, &self.words())
    }

    /// Host-side encoding of an initial header.
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let words = self.words();
        std::array::from_fn(|i| words[i / 8].to_le_bytes()[i % 8])
    }

    /// Host-side decoding of a gathered header.
    pub fn decode(bytes: &[u8]) -> Header {
        Header::from_words(&pim_sim::system::decode_slice::<u64>(bytes))
    }
}

/// Byte offsets of every region in a DPU's bank, plus the derived sample
/// capacity `M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MramLayout {
    /// Sample capacity in edges (`M` in §3.3).
    pub capacity: u64,
    /// Staging capacity in edges.
    pub stage_edges: u64,
    /// Remap-table capacity in entries.
    pub remap_cap: u64,
    /// Local-count slots (one u64 per node id; 0 when local counting is
    /// disabled).
    pub local_nodes: u64,
    /// Start of the staging region.
    pub staging_off: u64,
    /// Start of the remap table.
    pub remap_off: u64,
    /// Start of the edge sample `S`.
    pub sample_off: u64,
    /// Start of the sort scratch region: the DPU merge passes'
    /// ping-pong target. The simulator sorts on the host and never
    /// writes it, but the bank keeps room for it.
    pub scratch_off: u64,
    /// Start of the region index table.
    pub index_off: u64,
    /// Start of the per-node local-count region.
    pub local_off: u64,
    /// One past the last used byte.
    pub end: u64,
}

impl MramLayout {
    /// Computes the layout for a bank of `mram_capacity` bytes.
    ///
    /// The sample gets every byte not claimed by fixed regions, split
    /// three ways (sample + sort scratch + index table, 8 bytes each per
    /// edge); `sample_override` caps it below that maximum (the §4.5
    /// reservoir experiments).
    pub fn compute(
        mram_capacity: u64,
        stage_edges: u64,
        remap_cap: u64,
        sample_override: Option<u64>,
    ) -> Result<MramLayout, TcError> {
        Self::compute_with_locals(mram_capacity, stage_edges, remap_cap, 0, sample_override)
    }

    /// [`MramLayout::compute`] plus a per-node local-count region of
    /// `local_nodes` u64 slots (the local-counting extension).
    pub fn compute_with_locals(
        mram_capacity: u64,
        stage_edges: u64,
        remap_cap: u64,
        local_nodes: u64,
        sample_override: Option<u64>,
    ) -> Result<MramLayout, TcError> {
        // Saturating: oversized regions must fail the fit check below,
        // not overflow.
        let fixed = [stage_edges, remap_cap, local_nodes]
            .iter()
            .fold(HEADER_BYTES, |sum, words| {
                sum.saturating_add(words.saturating_mul(8))
            });
        let avail = mram_capacity.saturating_sub(fixed);
        // M·8 (sample) + M·8 (scratch) + (M+1)·8 (index) ≤ avail.
        let max_capacity = (avail / 8).saturating_sub(1) / 3;
        if max_capacity < 3 {
            return Err(TcError::Config(format!(
                "MRAM of {mram_capacity} bytes leaves no room for an edge sample \
                 (staging {stage_edges} edges, remap {remap_cap} entries, \
                 {local_nodes} local-count slots)"
            )));
        }
        let capacity = match sample_override {
            Some(m) if m > max_capacity => {
                return Err(TcError::Config(format!(
                    "sample_capacity {m} exceeds the bank's maximum {max_capacity}"
                )));
            }
            Some(m) => m,
            None => max_capacity,
        };
        let staging_off = HEADER_BYTES;
        let remap_off = staging_off + stage_edges * 8;
        let local_off = remap_off + remap_cap * 8;
        let sample_off = local_off + local_nodes * 8;
        let scratch_off = sample_off + capacity * 8;
        let index_off = scratch_off + capacity * 8;
        let end = index_off + (capacity + 1) * 8;
        debug_assert!(end <= mram_capacity);
        Ok(MramLayout {
            capacity,
            stage_edges,
            remap_cap,
            local_nodes,
            staging_off,
            remap_off,
            local_off,
            sample_off,
            scratch_off,
            index_off,
            end,
        })
    }

    /// Byte offset of sample slot `i`.
    #[inline]
    pub fn sample_slot(&self, i: u64) -> u64 {
        self.sample_off + i * 8
    }

    /// Byte offset of index entry `i`.
    #[inline]
    pub fn index_slot(&self, i: u64) -> u64 {
        self.index_off + i * 8
    }

    /// Byte offset of staging slot `i`.
    #[inline]
    pub fn staging_slot(&self, i: u64) -> u64 {
        self.staging_off + i * 8
    }

    /// Byte offset of node `n`'s local-count slot.
    #[inline]
    pub fn local_slot(&self, n: u64) -> u64 {
        debug_assert!(n < self.local_nodes);
        self.local_off + n * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = MramLayout::compute(64 << 20, 2048, 256, None).unwrap();
        assert!(HEADER_BYTES <= l.staging_off);
        assert!(l.staging_off < l.remap_off);
        assert!(l.remap_off < l.sample_off);
        assert!(l.sample_off < l.scratch_off);
        assert!(l.scratch_off < l.index_off);
        assert!(l.index_off < l.end);
        assert!(l.end <= 64 << 20);
        // 64 MB bank → M in the ~2.7M-edge range.
        assert!(l.capacity > 2_000_000, "capacity {}", l.capacity);
    }

    #[test]
    fn override_caps_the_sample() {
        let l = MramLayout::compute(64 << 20, 2048, 0, Some(1000)).unwrap();
        assert_eq!(l.capacity, 1000);
        assert_eq!(l.scratch_off - l.sample_off, 8000);
    }

    #[test]
    fn oversized_override_rejected() {
        assert!(MramLayout::compute(1 << 20, 128, 0, Some(10_000_000)).is_err());
    }

    #[test]
    fn hopeless_bank_rejected() {
        assert!(MramLayout::compute(256, 2048, 0, None).is_err());
    }

    #[test]
    fn slots_are_8_aligned() {
        let l = MramLayout::compute(1 << 20, 100, 7, None).unwrap();
        for off in [
            l.staging_off,
            l.remap_off,
            l.sample_off,
            l.scratch_off,
            l.index_off,
        ] {
            assert_eq!(off % 8, 0, "offset {off} unaligned");
        }
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let h = Header {
            cap: 1,
            len: 2,
            seen: 3,
            rng: 4,
            remap_len: 5,
            result: 6,
            stage_len: 7,
            index_len: 8,
        };
        assert_eq!(Header::decode(&h.encode()), h);
    }
}
