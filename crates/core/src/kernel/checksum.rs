//! Word digests shared by the host and the DPU kernels.
//!
//! The fault-injection plane (see `pim_sim::fault`) can flip a byte of any
//! CPU↔PIM transfer. Hardened sessions therefore seal every staged slice
//! with the digest of its keys, which the receive kernel checks before it
//! consumes the slice. In the other direction, [`seal_kernel`] lets a DPU
//! publish the digest of an MRAM region so the host can verify a
//! gathered copy (verify-on-gather).
//!
//! The digest of words `w_0 .. w_n` is the wrapping sum of FNV-1a over
//! each word, seeded by its position, so the receive kernel's tasklets can
//! digest their blocks apart and add them. A flipped byte changes exactly
//! one term, and FNV-1a over one word changes under any single-byte flip,
//! so the single-byte corruptions the fault model injects are detected
//! with certainty and multi-byte garbage with probability `1 - 2^-64`. It
//! is not a cryptographic MAC and does not defend against an adversary.

use pim_sim::{DpuContext, SimResult};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Sentinel a hardened kernel returns when a checksum check fails. Valid
/// staged-edge counts are far below this, so the host cannot confuse a
/// mismatch report with a real result.
pub const CHECKSUM_MISMATCH: u64 = u64::MAX;

/// Instruction cost of adding one u64 to the digest on a DPU: 8 bytes ×
/// (xor + multiply) on a 32-bit core, plus the position seed and the add.
pub(crate) const FOLD_INSTR_PER_WORD: u64 = 26;

/// FNV-1a over the eight little-endian bytes of `word`, from `acc`.
#[inline]
fn fnv1a_u64(mut acc: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        acc ^= b as u64;
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Digest of `words` sitting at positions `start..` (`start = 0` for a
/// whole slice). Pure arithmetic, and a partial sum: the partials of
/// disjoint position ranges add (wrapping) to the digest of the whole.
pub fn digest_at(start: u64, words: &[u64]) -> u64 {
    (start..).zip(words).fold(0, |acc, (i, &w)| {
        acc.wrapping_add(fnv1a_u64(FNV_OFFSET ^ i, w))
    })
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
    let mut acc = 0u64;
    let mut pos = 0u64;
    while pos < words {
        let n = chunk.min(words - pos) as usize;
        t0.mram_read(region_off + pos * 8, &mut buf[..n])?;
        acc = acc.wrapping_add(digest_at(pos, &buf[..n]));
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
        let a = digest_at(0, &[1, 2, 3]);
        assert_eq!(a, digest_at(0, &[1, 2, 3]));
        assert_ne!(a, digest_at(0, &[3, 2, 1]));
        assert_ne!(a, digest_at(0, &[1, 2]));
        assert_eq!(digest_at(0, &[]), 0);
        // Any split digests to the same value.
        let words: Vec<u64> = (0..50u64).map(|i| i * i + 7).collect();
        for cut in [0, 1, 17, 49, 50] {
            let (head, tail) = words.split_at(cut);
            let sum = digest_at(0, head).wrapping_add(digest_at(cut as u64, tail));
            assert_eq!(sum, digest_at(0, &words), "split at {cut}");
        }
    }

    #[test]
    fn single_byte_flip_always_changes_the_digest() {
        let words = [7u64, 0, u64::MAX, 0x0123456789ABCDEF];
        let base = digest_at(0, &words);
        for i in 0..words.len() {
            for byte in 0..8 {
                for mask in [0x01u64, 0xA5, 0xFF] {
                    let mut w = words;
                    w[i] ^= mask << (8 * byte);
                    assert_ne!(digest_at(0, &w), base, "flip at word {i} byte {byte}");
                }
            }
        }
    }

    #[test]
    fn kernel_seal_matches_host_digest() {
        let mut sys = PimSystem::allocate(1, PimConfig::tiny(), CostModel::default()).unwrap();
        let words: Vec<u64> = (0..300u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        sys.push(&[HostWrite {
            dpu: 0,
            offset: 64,
            data: &encode_slice(&words),
        }])
        .unwrap();
        let n = words.len() as u64;
        let sealed = sys
            .execute(|ctx| seal_kernel(ctx, 64, n, 64 + n * 8))
            .unwrap()[0];
        assert_eq!(sealed, digest_at(0, &words));
        let bytes = sys.dpu(0).unwrap().host_read(64 + n * 8, 8).unwrap();
        assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), sealed);
    }
}
