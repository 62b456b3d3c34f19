//! Reservoir sampling (§3.3, after TRIÈST).
//!
//! When a PIM core's allotted MRAM cannot hold all edges routed to it, the
//! `t`-th incoming edge replaces a uniform-random resident edge with
//! probability `M/t`. The resulting sample is a uniform `M`-subset of the
//! stream, and any specific triple of edges survives with probability
//! `M(M−1)(M−2) / (t(t−1)(t−2))` — the correction factor applied to each
//! core's triangle count. The sampling itself runs on the cores (the
//! receive kernel's reservoir rule in `pim-tc`); this module holds the
//! correction it implies.

/// The §3.3 correction factor for sample size `m` and stream length `t`.
/// Returns 1.0 when the stream fits entirely (`t ≤ m`) and 0.0 when a
/// triple cannot fit (`m < 3`).
pub fn triple_probability(m: u64, t: u64) -> f64 {
    if t <= m {
        return 1.0;
    }
    if m < 3 {
        return 0.0;
    }
    let num = (m * (m - 1) * (m - 2)) as f64;
    let den = t as f64 * (t - 1) as f64 * (t - 2) as f64;
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_probability_formula() {
        assert_eq!(triple_probability(10, 5), 1.0);
        assert_eq!(triple_probability(10, 10), 1.0);
        let p = triple_probability(10, 20);
        let expect = (10.0 * 9.0 * 8.0) / (20.0 * 19.0 * 18.0);
        assert!((p - expect).abs() < 1e-12);
        assert_eq!(triple_probability(2, 100), 0.0);
    }
}
