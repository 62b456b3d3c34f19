//! Uniform edge sampling at the host (§3.2, after DOULION).
//!
//! While reading the input, each edge is kept with probability `p` and
//! discarded otherwise, shrinking both batch-creation work and CPU→PIM
//! transfer volume. A triangle survives iff all three edges survive
//! (probability `p³`), so the counted total is divided by `p³` to form an
//! unbiased estimate.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A Bernoulli edge filter with keep-probability `p`, drawing from a
/// seeded ChaCha8 stream.
#[derive(Clone, Debug)]
pub struct UniformSampler {
    p: f64,
    rng: ChaCha8Rng,
    offered: u64,
    kept: u64,
}

impl UniformSampler {
    /// Creates a sampler keeping each edge with probability `p ∈ [0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        UniformSampler {
            p,
            rng: ChaCha8Rng::seed_from_u64(seed),
            offered: 0,
            kept: 0,
        }
    }

    /// The keep-probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Decides the fate of the next edge.
    #[inline]
    pub fn keep(&mut self) -> bool {
        self.offered += 1;
        // Fast paths avoid RNG consumption so p = 1.0 is bit-exact.
        let kept = if self.p >= 1.0 {
            true
        } else if self.p <= 0.0 {
            false
        } else {
            self.rng.gen_bool(self.p)
        };
        if kept {
            self.kept += 1;
        }
        kept
    }

    /// Edges offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Edges kept so far.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// The estimator divisor `p³` (§3.2): divide the triangle count
    /// obtained on the sampled graph by this to estimate the true count.
    pub fn triangle_probability(&self) -> f64 {
        self.p * self.p * self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_one_keeps_everything() {
        let mut s = UniformSampler::new(1.0, 0);
        assert!((0..1000).all(|_| s.keep()));
        assert_eq!(s.kept(), 1000);
    }

    #[test]
    fn p_zero_keeps_nothing() {
        let mut s = UniformSampler::new(0.0, 0);
        assert!((0..1000).all(|_| !s.keep()));
        assert_eq!(s.kept(), 0);
        assert_eq!(s.offered(), 1000);
    }

    #[test]
    fn keep_rate_approximates_p() {
        let mut s = UniformSampler::new(0.25, 77);
        for _ in 0..40_000 {
            s.keep();
        }
        let rate = s.kept() as f64 / s.offered() as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn estimator_divisor_is_p_cubed() {
        let s = UniformSampler::new(0.5, 0);
        assert!((s.triangle_probability() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_seed() {
        let run = || {
            let mut s = UniformSampler::new(0.5, 9);
            (0..100).map(|_| s.keep()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_p() {
        UniformSampler::new(1.5, 0);
    }

    #[test]
    fn stream_is_replayable_mid_flight() {
        // A copy taken mid-stream carries the sampler's whole state.
        let mut live = UniformSampler::new(0.5, 11);
        let _head: Vec<bool> = (0..64).map(|_| live.keep()).collect();
        let mut resumed = live.clone();
        let tail_a: Vec<bool> = (0..64).map(|_| resumed.keep()).collect();
        let tail_b: Vec<bool> = (0..64).map(|_| live.keep()).collect();
        assert_eq!(tail_a, tail_b);
        assert_eq!(resumed.offered(), live.offered());
    }
}
