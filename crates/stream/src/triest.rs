//! Host-side TRIÈST reference estimators (De Stefani et al., KDD'16).
//!
//! The paper's PIM pipeline uses the *post-hoc* form of reservoir
//! estimation: sample edges, count triangles on the final sample, divide
//! by the triple survival probability (§3.3). TRIÈST's stronger variants
//! estimate *at insertion time* instead:
//!
//! * [`TriestBase`] — counts the triangles each admitted edge closes
//!   within the current sample and scales by the triple probability at
//!   that moment; same expectation as §3.3 but usable online.
//! * [`TriestImpr`] — never decrements and weights each closure by
//!   `η(t) = max(1, (t−1)(t−2)/(M(M−1)))`, cutting variance (the paper's
//!   "improved" variant).
//! * [`TriestFd`] — fully dynamic: supports edge *deletions* via random
//!   pairing, the capability the paper leaves to future work for the PIM
//!   setting.
//!
//! These run on the host over full edge streams; they serve as references
//! for estimator-quality comparisons (see the `ext_estimators` bench) and
//! document exactly what the DPU pipeline trades away by estimating
//! post-hoc.

use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Adjacency over the resident edge sample.
#[derive(Default, Debug)]
struct SampleGraph {
    adj: HashMap<u32, HashSet<u32>>,
}

impl SampleGraph {
    fn insert(&mut self, u: u32, v: u32) {
        self.adj.entry(u).or_default().insert(v);
        self.adj.entry(v).or_default().insert(u);
    }

    fn remove(&mut self, u: u32, v: u32) {
        if let Some(s) = self.adj.get_mut(&u) {
            s.remove(&v);
        }
        if let Some(s) = self.adj.get_mut(&v) {
            s.remove(&u);
        }
    }

    /// Common neighbors of `u` and `v` in the sample.
    fn closures(&self, u: u32, v: u32) -> u64 {
        match (self.adj.get(&u), self.adj.get(&v)) {
            (Some(a), Some(b)) => {
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().filter(|x| large.contains(x)).count() as u64
            }
            _ => 0,
        }
    }
}

/// TRIÈST-BASE: maintains `τ`, the number of triangles *inside the
/// sample* (updated incrementally as edges enter and leave), and scales
/// by the inverse triple survival probability at query time — the
/// online-maintained equivalent of the paper's post-hoc §3.3 estimate.
#[derive(Debug)]
pub struct TriestBase {
    capacity: u64,
    sample: Vec<(u32, u32)>,
    graph: SampleGraph,
    seen: u64,
    /// Triangles currently closed within the sample.
    tau: f64,
}

impl TriestBase {
    /// Creates an estimator with sample capacity `m ≥ 1`.
    pub fn new(m: u64) -> Self {
        assert!(m >= 1, "capacity must be positive");
        TriestBase {
            capacity: m,
            sample: Vec::new(),
            graph: SampleGraph::default(),
            seen: 0,
            tau: 0.0,
        }
    }

    /// Edges observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Offers the next stream edge.
    pub fn insert<R: Rng>(&mut self, u: u32, v: u32, rng: &mut R) {
        self.seen += 1;
        let t = self.seen;
        if (self.sample.len() as u64) < self.capacity {
            self.tau += self.graph.closures(u, v) as f64;
            self.sample.push((u, v));
            self.graph.insert(u, v);
        } else if rng.gen_range(0..t) < self.capacity {
            // Evict first (decrementing its closures), then admit.
            let victim = rng.gen_range(0..self.sample.len());
            let (a, b) = self.sample[victim];
            self.graph.remove(a, b);
            self.tau -= self.graph.closures(a, b) as f64;
            self.sample[victim] = (u, v);
            self.tau += self.graph.closures(u, v) as f64;
            self.graph.insert(u, v);
        }
    }

    /// The current global triangle estimate:
    /// `τ / (M(M−1)(M−2) / (t(t−1)(t−2)))`.
    pub fn estimate(&self) -> f64 {
        let p = crate::reservoir::triple_probability(self.capacity, self.seen);
        if p <= 0.0 {
            0.0
        } else {
            self.tau / p
        }
    }
}

/// TRIÈST-IMPR: like BASE, but counts closures *before* deciding sample
/// admission and weights them with `η(t) = max(1, (t−1)(t−2)/(M(M−1)))`;
/// the estimate never decreases and has strictly lower variance.
#[derive(Debug)]
pub struct TriestImpr {
    capacity: u64,
    sample: Vec<(u32, u32)>,
    graph: SampleGraph,
    seen: u64,
    estimate: f64,
}

impl TriestImpr {
    /// Creates an estimator with sample capacity `m ≥ 1`.
    pub fn new(m: u64) -> Self {
        assert!(m >= 1, "capacity must be positive");
        TriestImpr {
            capacity: m,
            sample: Vec::new(),
            graph: SampleGraph::default(),
            seen: 0,
            estimate: 0.0,
        }
    }

    /// Edges observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Offers the next stream edge.
    pub fn insert<R: Rng>(&mut self, u: u32, v: u32, rng: &mut R) {
        self.seen += 1;
        let t = self.seen;
        let m = self.capacity;
        let eta = if t <= m {
            1.0
        } else {
            (((t - 1) * (t - 2)) as f64 / (m * (m - 1)) as f64).max(1.0)
        };
        self.estimate += eta * self.graph.closures(u, v) as f64;
        if (self.sample.len() as u64) < m {
            self.sample.push((u, v));
            self.graph.insert(u, v);
        } else if rng.gen_range(0..t) < m {
            let victim = rng.gen_range(0..self.sample.len());
            let (a, b) = self.sample[victim];
            self.graph.remove(a, b);
            self.sample[victim] = (u, v);
            self.graph.insert(u, v);
        }
    }

    /// The current global triangle estimate.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }
}

/// TRIÈST-FD: fully-dynamic estimation over insert *and* delete streams,
/// via random pairing (Gemulla et al.): deletions of sampled edges create
/// "slots" that future insertions refill before the reservoir grows.
#[derive(Debug)]
pub struct TriestFd {
    capacity: u64,
    sample: Vec<(u32, u32)>,
    graph: SampleGraph,
    /// Deletions charged against sampled (`d_i`) and unsampled (`d_o`)
    /// edges, awaiting compensation.
    d_in: u64,
    d_out: u64,
    /// Net edges currently alive in the stream (s in the paper).
    alive: i64,
    counter: f64,
}

impl TriestFd {
    /// Creates an estimator with sample capacity `m ≥ 1`.
    pub fn new(m: u64) -> Self {
        assert!(m >= 1, "capacity must be positive");
        TriestFd {
            capacity: m,
            sample: Vec::new(),
            graph: SampleGraph::default(),
            d_in: 0,
            d_out: 0,
            alive: 0,
            counter: 0.0,
        }
    }

    /// Net alive edges.
    pub fn alive(&self) -> i64 {
        self.alive
    }

    fn update_counter(&mut self, u: u32, v: u32, sign: f64) {
        self.counter += sign * self.graph.closures(u, v) as f64;
    }

    /// Processes an edge insertion.
    pub fn insert<R: Rng>(&mut self, u: u32, v: u32, rng: &mut R) {
        self.alive += 1;
        if self.d_out > 0 {
            // Random pairing: compensate an unsampled deletion.
            self.d_out -= 1;
            return;
        }
        if self.d_in > 0 {
            // Compensate a sampled deletion: this edge takes its slot.
            self.d_in -= 1;
            self.update_counter(u, v, 1.0);
            self.sample.push((u, v));
            self.graph.insert(u, v);
            return;
        }
        if (self.sample.len() as u64) < self.capacity {
            self.update_counter(u, v, 1.0);
            self.sample.push((u, v));
            self.graph.insert(u, v);
        } else if rng.gen_range(0..self.alive.max(1) as u64) < self.capacity {
            let victim = rng.gen_range(0..self.sample.len());
            let (a, b) = self.sample[victim];
            self.update_counter(a, b, -1.0);
            self.graph.remove(a, b);
            self.sample[victim] = (u, v);
            self.graph.insert(u, v);
            self.update_counter(u, v, 1.0);
        }
    }

    /// Processes an edge deletion.
    pub fn delete(&mut self, u: u32, v: u32) {
        self.alive -= 1;
        if let Some(pos) = self
            .sample
            .iter()
            .position(|&(a, b)| (a, b) == (u, v) || (b, a) == (u, v))
        {
            self.update_counter(u, v, -1.0);
            self.sample.swap_remove(pos);
            self.graph.remove(u, v);
            self.d_in += 1;
        } else {
            self.d_out += 1;
        }
    }

    /// The current global triangle estimate (counter scaled by the
    /// sampling probability of a triple among alive edges).
    pub fn estimate(&self) -> f64 {
        let s = self.alive.max(0) as u64;
        let p = crate::reservoir::triple_probability(self.sample.len() as u64, s);
        if p <= 0.0 {
            0.0
        } else {
            (self.counter / p).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// All edges of K_n, shuffled deterministically.
    fn clique_stream(n: u32, seed: u64) -> Vec<(u32, u32)> {
        use rand::seq::SliceRandom;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        edges.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        edges
    }

    fn triangles_of_clique(n: u64) -> f64 {
        (n * (n - 1) * (n - 2) / 6) as f64
    }

    #[test]
    fn base_replays_bit_identically_for_a_seed() {
        // Estimators are pure functions of (stream order, RNG draws): the
        // same seed replays the same estimate and leaves the RNG at the
        // same position.
        let run = || {
            let mut est = TriestBase::new(40);
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            for (u, v) in clique_stream(25, 2) {
                est.insert(u, v, &mut rng);
            }
            (est.estimate(), rng.next_u64())
        };
        let (a, next_a) = run();
        let (b, next_b) = run();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(next_a, next_b);
    }

    #[test]
    fn base_is_exact_when_sample_fits() {
        let mut est = TriestBase::new(10_000);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for (u, v) in clique_stream(20, 1) {
            est.insert(u, v, &mut rng);
        }
        assert_eq!(est.estimate(), triangles_of_clique(20));
    }

    #[test]
    fn impr_is_exact_when_sample_fits() {
        let mut est = TriestImpr::new(10_000);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for (u, v) in clique_stream(20, 1) {
            est.insert(u, v, &mut rng);
        }
        assert_eq!(est.estimate(), triangles_of_clique(20));
    }

    #[test]
    fn estimators_are_roughly_unbiased_under_pressure() {
        // K_30 (4060 triangles) through a 150-edge sample (of 435).
        let exact = triangles_of_clique(30);
        let trials = 60;
        let (mut sum_base, mut sum_impr) = (0.0, 0.0);
        for trial in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(trial);
            let mut base = TriestBase::new(150);
            let mut impr = TriestImpr::new(150);
            for (u, v) in clique_stream(30, trial + 1000) {
                base.insert(u, v, &mut rng);
                impr.insert(u, v, &mut rng);
            }
            sum_base += base.estimate();
            sum_impr += impr.estimate();
        }
        let mean_base = sum_base / trials as f64;
        let mean_impr = sum_impr / trials as f64;
        assert!(
            (mean_base - exact).abs() / exact < 0.25,
            "base mean {mean_base} vs {exact}"
        );
        assert!(
            (mean_impr - exact).abs() / exact < 0.15,
            "impr mean {mean_impr} vs {exact}"
        );
    }

    #[test]
    fn impr_has_lower_variance_than_base() {
        let trials = 80;
        let (mut base_sq, mut impr_sq) = (0.0, 0.0);
        let (mut base_sum, mut impr_sum) = (0.0, 0.0);
        for trial in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(trial);
            let mut base = TriestBase::new(100);
            let mut impr = TriestImpr::new(100);
            for (u, v) in clique_stream(26, trial + 7) {
                base.insert(u, v, &mut rng);
                impr.insert(u, v, &mut rng);
            }
            base_sum += base.estimate();
            base_sq += base.estimate() * base.estimate();
            impr_sum += impr.estimate();
            impr_sq += impr.estimate() * impr.estimate();
        }
        let n = trials as f64;
        let var_base = base_sq / n - (base_sum / n) * (base_sum / n);
        let var_impr = impr_sq / n - (impr_sum / n) * (impr_sum / n);
        assert!(var_impr < var_base, "impr {var_impr} !< base {var_base}");
    }

    #[test]
    fn fd_is_exact_when_sample_fits_with_deletions() {
        // Insert K_10, delete the edges of one triangle's vertex pair set,
        // all within capacity: estimate tracks the alive graph exactly.
        let mut fd = TriestFd::new(10_000);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (u, v) in clique_stream(10, 2) {
            fd.insert(u, v, &mut rng);
        }
        assert_eq!(fd.estimate(), triangles_of_clique(10));
        // Deleting edge (0,1) removes exactly n-2 = 8 triangles.
        fd.delete(0, 1);
        assert_eq!(fd.estimate(), triangles_of_clique(10) - 8.0);
        // Re-inserting restores them.
        fd.insert(0, 1, &mut rng);
        assert_eq!(fd.estimate(), triangles_of_clique(10));
    }

    #[test]
    fn fd_tracks_alive_count() {
        let mut fd = TriestFd::new(100);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        fd.insert(1, 2, &mut rng);
        fd.insert(2, 3, &mut rng);
        fd.delete(1, 2);
        assert_eq!(fd.alive(), 1);
        fd.delete(9, 9); // unsampled deletion
        assert_eq!(fd.alive(), 0);
    }

    #[test]
    fn estimators_are_deterministic_for_a_seed() {
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let mut est = TriestBase::new(50);
            for (u, v) in clique_stream(25, 5) {
                est.insert(u, v, &mut rng);
            }
            est.estimate()
        };
        assert_eq!(run(), run());
    }
}
