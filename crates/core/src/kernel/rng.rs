//! The DPU-resident pseudo-random generator.
//!
//! Reservoir sampling needs randomness *inside* the PIM core. Real DPU
//! code embeds a small PRNG; we use xorshift64*, which needs only shifts,
//! xors, and one multiply — cheap on a 32-bit in-order core. State lives
//! in the bank header so it persists across kernel launches.
//!
//! [`reservoir_slot`] is the one reservoir rule: the receive kernel
//! decides each overflowing key with it, and journal replay re-derives a
//! lost bank with it.

use pim_sim::Tasklet;

/// Instruction cost of one xorshift64* draw on the DPU (6 shifts/xors on
/// 64-bit values ≈ 12 32-bit ALU ops, plus the multiply charged
/// separately).
const DRAW_INSTR: u64 = 12;

/// The pure xorshift64* step: advances the state and returns the next
/// 64-bit value.
#[inline]
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    debug_assert!(x != 0, "xorshift state must be nonzero");
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Uniform draw in `[0, n)` (by modulo — bias is negligible for the
/// stream lengths involved and matches what terse DPU code does).
#[inline]
pub fn below_pure(state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    xorshift64star(state) % n
}

/// Where the reservoir puts one key of a partition's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// The sample has room: the key goes after the resident ones.
    Append,
    /// The key replaces the resident key in this slot.
    Replace(u64),
    /// The key is not sampled.
    Drop,
}

impl Slot {
    /// RNG draws the decision took: none to append, the `M/t` coin to
    /// drop, the coin and the victim slot to replace.
    #[inline]
    pub fn draws(self) -> u64 {
        match self {
            Slot::Append => 0,
            Slot::Drop => 1,
            Slot::Replace(_) => 2,
        }
    }

    /// Applies the decision for `key` to a host-resident sample.
    #[inline]
    pub fn apply(self, sample: &mut Vec<u64>, key: u64) {
        match self {
            Slot::Append => sample.push(key),
            Slot::Replace(victim) => sample[victim as usize] = key,
            Slot::Drop => {}
        }
    }
}

/// The reservoir rule (§3.3) for the `seen`-th key (1-based) of a
/// stream into a sample holding `len` of `cap` keys. While `len < cap`
/// the key is appended and nothing is drawn. Past that, a coin with
/// heads probability `cap/seen` is drawn from `state` first, and on
/// heads the victim slot, uniform over the `len` resident keys. The
/// receive kernel runs this on the core and journal replay runs it on
/// the host, so a replayed bank makes the core's decisions by
/// construction.
#[inline]
pub fn reservoir_slot(state: &mut u64, seen: u64, len: u64, cap: u64) -> Slot {
    if len < cap {
        Slot::Append
    } else if below_pure(state, seen) < cap {
        Slot::Replace(below_pure(state, len))
    } else {
        Slot::Drop
    }
}

/// Charges the tasklet for `n` draws: the xorshift64* step, its
/// multiply, and the modulo that bounds it.
#[inline]
pub fn charge_draws(t: &mut Tasklet<'_>, n: u64) {
    t.charge(n * DRAW_INSTR);
    t.charge_muldiv(2 * n);
}

/// Derives a nonzero per-DPU seed from the master seed.
pub fn seed_for_dpu(master: u64, dpu: usize) -> u64 {
    // SplitMix64 step keeps streams decorrelated across DPUs.
    let mut z = master ^ (dpu as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z = z ^ (z >> 31);
    if z == 0 {
        0xDEADBEEF
    } else {
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::layout::{Header, MramLayout};
    use crate::kernel::receive::receive_kernel;
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    /// Streams `0..n` through the rule into a `cap`-key sample.
    fn sample_of(n: u64, cap: u64, seed: u64) -> (Vec<u64>, u64) {
        let mut state = seed_for_dpu(seed, 0);
        let mut sample = Vec::new();
        for (i, key) in (0..n).enumerate() {
            reservoir_slot(&mut state, i as u64 + 1, sample.len() as u64, cap)
                .apply(&mut sample, key);
        }
        (sample, state)
    }

    #[test]
    fn draws_are_well_distributed() {
        let mut state = seed_for_dpu(42, 0);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[below_pure(&mut state, 8) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((800..1200).contains(&b), "bucket {i}: {b}");
        }
    }

    #[test]
    fn pure_step_matches_the_charged_kernel_path() {
        // The receive kernel's reservoir loop and a host loop over the
        // rule leave the same sample, stream position and RNG state.
        let (cap, n) = (8u64, 64u64);
        let config = PimConfig::tiny();
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout = MramLayout::compute(config.mram_capacity, n, 0, Some(cap)).unwrap();
        let hdr = Header {
            cap,
            rng: seed_for_dpu(99, 0),
            stage_len: n,
            ..Header::default()
        };
        let keys: Vec<u64> = (0..n).collect();
        let (hdr, keys) = (hdr.encode(), encode_slice(&keys));
        sys.push(&[
            HostWrite {
                dpu: 0,
                offset: 0,
                data: &hdr,
            },
            HostWrite {
                dpu: 0,
                offset: layout.staging_off,
                data: &keys,
            },
        ])
        .unwrap();
        sys.execute(|ctx| receive_kernel(ctx, &layout, false))
            .unwrap();
        let bank = sys.dpu(0).unwrap();
        let hdr = Header::decode(bank.host_read(0, 64).unwrap());
        let sample: Vec<u64> = decode_slice(bank.host_read(layout.sample_off, cap * 8).unwrap());
        assert_eq!((sample, hdr.rng), sample_of(n, cap, 99));
        assert_eq!(hdr.seen, n);
    }

    #[test]
    fn fills_before_replacing() {
        let mut state = seed_for_dpu(0, 0);
        for seen in 1..=3 {
            let slot = reservoir_slot(&mut state, seen, seen - 1, 3);
            assert_eq!(slot, Slot::Append);
            assert_eq!(slot.draws(), 0);
        }
        // Nothing was drawn while the sample had room.
        assert_eq!(state, seed_for_dpu(0, 0));
        assert_eq!(sample_of(3, 3, 0).0, [0, 1, 2]);
    }

    #[test]
    fn overflow_keeps_size_fixed() {
        let mut state = seed_for_dpu(1, 0);
        let mut sample = Vec::new();
        let mut draws = 0;
        for seen in 1..=10_000u64 {
            let slot = reservoir_slot(&mut state, seen, sample.len() as u64, 10);
            draws += slot.draws();
            slot.apply(&mut sample, seen);
            assert!(sample.len() <= 10);
        }
        assert_eq!(sample.len(), 10);
        // Every overflowing key drew the coin, and the kept ones a victim.
        assert!(draws > 9_990 && draws < 2 * 9_990);
    }

    #[test]
    fn inclusion_is_uniform() {
        // Every stream item is resident with probability M/t; check by
        // repetition that early and late items are retained equally.
        let (m, t, trials) = (20u64, 200u64, 2000u64);
        let first_half: u64 = (0..trials)
            .map(|trial| {
                let (sample, _) = sample_of(t, m, trial);
                sample.iter().filter(|&&x| x < t / 2).count() as u64
            })
            .sum();
        let expected = trials as f64 * m as f64 / 2.0;
        let dev = (first_half as f64 - expected).abs() / expected;
        assert!(dev < 0.05, "first-half retention off by {dev}");
    }

    #[test]
    fn seeds_differ_across_dpus_and_are_nonzero() {
        let a = seed_for_dpu(1, 0);
        let b = seed_for_dpu(1, 1);
        assert_ne!(a, b);
        assert_ne!(a, 0);
        // Identical master seed reproduces.
        assert_eq!(seed_for_dpu(1, 5), seed_for_dpu(1, 5));
    }

    #[test]
    fn draws_are_charged() {
        let mut sys = PimSystem::allocate(1, PimConfig::tiny(), CostModel::default()).unwrap();
        sys.execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            charge_draws(&mut t, 3);
            Ok(())
        })
        .unwrap();
        let muldiv = CostModel::default().muldiv_cycles;
        let instructions = sys.dpu(0).unwrap().lifetime_instructions();
        assert_eq!(instructions, 3 * (DRAW_INSTR + 2 * muldiv));
    }
}
