//! FNV-1a payload checksums shared by the host and the DPU kernels.
//!
//! The fault-injection plane (see `pim_sim::fault`) can flip a byte of any
//! CPU↔PIM transfer. Hardened sessions therefore seal every staged batch
//! with an FNV-1a-64 digest appended to the payload, and the receive
//! kernel refuses to consume a batch whose digest does not match
//! ([`receive_hardened`][crate::kernel::receive::receive_kernel_hardened]).
//! In the other direction, [`seal_kernel`] lets a DPU publish the digest
//! of an MRAM region so the host can verify a gathered copy
//! (verify-on-gather).
//!
//! FNV-1a is the right tool here: a handful of xors and multiplies per
//! byte (cheap on a 32-bit in-order DPU core), detecting the single-byte
//! transient corruptions the fault model injects with certainty and
//! multi-byte garbage with probability `1 - 2^-64`. It is not a
//! cryptographic MAC and does not defend against an adversary.

use pim_sim::{DpuContext, SimResult};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100000001b3;

/// Sentinel a hardened kernel returns when a checksum check fails. Valid
/// staged-edge counts are far below this, so the host cannot confuse a
/// mismatch report with a real result.
pub const CHECKSUM_MISMATCH: u64 = u64::MAX;

/// Instruction cost of folding one u64 into the digest on a DPU (8 bytes
/// × xor + multiply on a 32-bit core).
const FOLD_INSTR_PER_WORD: u64 = 24;

/// Folds one little-endian u64 into a running FNV-1a digest, byte by
/// byte. Pure arithmetic: host and kernel produce identical digests.
#[inline]
pub fn fnv1a_u64(mut acc: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        acc ^= b as u64;
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// FNV-1a-64 digest of a word slice (the host-side checksum of a staged
/// batch or a gathered region).
pub fn fnv1a_words(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |acc, &w| fnv1a_u64(acc, w))
}

/// DPU kernel: digests `words` u64s starting at MRAM byte offset
/// `region_off` and writes the digest to `out_off`. The host then gathers
/// both the region and the digest and re-checks the math on its side, so
/// a transient corruption of either gather is detected and the gather
/// retried (verify-on-gather).
pub fn seal_kernel(
    ctx: &mut DpuContext<'_>,
    region_off: u64,
    words: u64,
    out_off: u64,
) -> SimResult<u64> {
    let mut t0 = ctx.tasklet(0)?;
    let chunk = ((t0.wram_free() / 8) / 2).max(8) as u64;
    let mut buf = t0.alloc_wram::<u64>(chunk as usize)?;
    let mut acc = FNV_OFFSET;
    let mut pos = 0u64;
    while pos < words {
        let n = chunk.min(words - pos) as usize;
        t0.mram_read(region_off + pos * 8, &mut buf[..n])?;
        for &w in &buf[..n] {
            acc = fnv1a_u64(acc, w);
        }
        t0.charge(n as u64 * FOLD_INSTR_PER_WORD);
        pos += n as u64;
    }
    t0.mram_write_one(out_off, acc)?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::system::encode_slice;
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    #[test]
    fn digest_is_order_sensitive_and_deterministic() {
        let a = fnv1a_words(&[1, 2, 3]);
        assert_eq!(a, fnv1a_words(&[1, 2, 3]));
        assert_ne!(a, fnv1a_words(&[3, 2, 1]));
        assert_ne!(a, fnv1a_words(&[1, 2]));
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET);
    }

    #[test]
    fn single_byte_flip_always_changes_the_digest() {
        let words = [7u64, 0, u64::MAX, 0x0123456789ABCDEF];
        let base = fnv1a_words(&words);
        for i in 0..words.len() {
            for byte in 0..8 {
                let mut w = words;
                w[i] ^= 0xA5u64 << (8 * byte);
                assert_ne!(fnv1a_words(&w), base, "flip at word {i} byte {byte}");
            }
        }
    }

    #[test]
    fn kernel_seal_matches_host_digest() {
        let mut sys = PimSystem::allocate(1, PimConfig::tiny(), CostModel::default()).unwrap();
        let words: Vec<u64> = (0..300u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        sys.push(vec![HostWrite {
            dpu: 0,
            offset: 64,
            data: encode_slice(&words),
        }])
        .unwrap();
        let n = words.len() as u64;
        let sealed = sys
            .execute(|ctx| seal_kernel(ctx, 64, n, 64 + n * 8))
            .unwrap()[0];
        assert_eq!(sealed, fnv1a_words(&words));
        let bytes = sys.dpu(0).unwrap().host_read(64 + n * 8, 8).unwrap();
        assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), sealed);
    }
}
