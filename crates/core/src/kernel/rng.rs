//! The DPU-resident pseudo-random generator.
//!
//! Reservoir sampling needs randomness *inside* the PIM core. Real DPU
//! code embeds a small PRNG; we use xorshift64*, which needs only shifts,
//! xors, and one multiply — cheap on a 32-bit in-order core. State lives
//! in the bank header so it persists across kernel launches.

use pim_sim::Tasklet;

/// Instruction cost of one xorshift64* draw on the DPU (6 shifts/xors on
/// 64-bit values ≈ 12 32-bit ALU ops, plus the multiply charged
/// separately).
const DRAW_INSTR: u64 = 12;

/// The pure xorshift64* step: advances the state and returns the next
/// 64-bit value. This is the arithmetic the DPU kernel runs; the host's
/// journal replay calls it directly so a replayed reservoir makes the
/// exact same victim decisions as the core it reconstructs.
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

/// Pure uniform draw in `[0, n)`; the host-side twin of [`below`].
#[inline]
pub fn below_pure(state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    xorshift64star(state) % n
}

/// Advances the state and returns the next 64-bit value, charging the
/// tasklet for the work.
#[inline]
pub fn next(t: &mut Tasklet<'_>, state: &mut u64) -> u64 {
    t.charge(DRAW_INSTR);
    t.charge_muldiv(1);
    xorshift64star(state)
}

/// Uniform draw in `[0, n)` (by modulo — bias is negligible for the
/// stream lengths involved and matches what terse DPU code does).
#[inline]
pub fn below(t: &mut Tasklet<'_>, state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    let x = next(t, state);
    t.charge_muldiv(1);
    x % n
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
    use pim_sim::{CostModel, PimBackend, PimConfig, PimSystem};

    #[test]
    fn draws_are_well_distributed() {
        // Run inside a real kernel so charging paths are exercised.
        let mut sys = PimSystem::allocate(1, PimConfig::tiny(), CostModel::default()).unwrap();
        let buckets = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                let mut state = seed_for_dpu(42, 0);
                let mut buckets = [0u32; 8];
                for _ in 0..8000 {
                    buckets[below(&mut t, &mut state, 8) as usize] += 1;
                }
                Ok(buckets)
            })
            .unwrap()[0];
        for (i, &b) in buckets.iter().enumerate() {
            assert!((800..1200).contains(&b), "bucket {i}: {b}");
        }
    }

    #[test]
    fn pure_step_matches_the_charged_kernel_path() {
        let mut sys = PimSystem::allocate(1, PimConfig::tiny(), CostModel::default()).unwrap();
        let (kernel_vals, kernel_state) = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                let mut state = seed_for_dpu(99, 3);
                let mut vals = [0u64; 16];
                for v in vals.iter_mut() {
                    *v = below(&mut t, &mut state, 1000);
                }
                Ok((vals, state))
            })
            .unwrap()[0];
        let mut state = seed_for_dpu(99, 3);
        let host_vals: Vec<u64> = (0..16).map(|_| below_pure(&mut state, 1000)).collect();
        assert_eq!(host_vals, kernel_vals.to_vec());
        assert_eq!(state, kernel_state);
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
            let mut state = 123;
            let _ = next(&mut t, &mut state);
            Ok(())
        })
        .unwrap();
        assert!(sys.dpu(0).unwrap().lifetime_instructions() > 0);
    }
}
