//! Sample statistics: medians, the tail-percentile rule, and the
//! attempted/failed tally every workload reports.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Throughput as the median over whole `window`-second windows of
/// `(completion offset, amount)` events, so that a burst of contention
/// from outside the run moves one window rather than the result. Runs
/// shorter than one window fall back to the total over `span` seconds.
pub fn windowed_rate(events: &[(f64, f64)], window: f64, span: f64) -> f64 {
    let windows = (span / window).floor() as usize;
    if windows == 0 {
        let total: f64 = events.iter().map(|e| e.1).sum();
        return if span > 0.0 { total / span } else { 0.0 };
    }
    let mut per = vec![0.0; windows];
    for &(at, amount) in events {
        let i = (at / window).floor();
        if i >= 0.0 && (i as usize) < windows {
            per[i as usize] += amount;
        }
    }
    median(&per) / window
}

/// Whether a run has timed enough set-ups for a steady median: at least
/// 7, and more until they add up to a quarter second or number 51.
pub fn enough_setups(samples: &[f64]) -> bool {
    let n = samples.len();
    n >= 7 && (samples.iter().sum::<f64>() >= 0.25 || n >= 51)
}

/// Percentiles the tail rule may report, highest first. p99 is the top:
/// above it a tail rests on a handful of scheduler hiccups per run.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: which percentile, its value, and how many samples lie
/// strictly beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile reported, in percent.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest candidate percentile that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n.saturating_sub(rank);
        (n > 0 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Operations attempted and failed. An operation is a rep, a dynamic
/// update, or a served request; a wrong count, an error, or a non-ok
/// reply fails it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_reports_p99_once_ten_samples_lie_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond p99.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 has 9 beyond, so p95 (rank 950) is reported.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 950.0, 49));
    }

    #[test]
    fn tail_falls_back_to_lower_percentiles_then_none() {
        // 40 samples: p99 → 0 beyond, p95 → 2, p90 → 4, p75 → 10.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        // 20 samples: only the median has 10 beyond it.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 10));
        // 19 samples: not even the median does.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windowed_rate_takes_the_median_whole_window() {
        // Windows of 1 s over 3.5 s: 10, 30 and 20 units; the half
        // window after 3 s is dropped.
        let events = [
            (0.2, 10.0),
            (1.1, 10.0),
            (1.9, 20.0),
            (2.5, 20.0),
            (3.2, 99.0),
        ];
        assert_eq!(windowed_rate(&events, 1.0, 3.5), 20.0);
        // Shorter than a window: the plain total rate.
        assert_eq!(windowed_rate(&[(0.1, 5.0)], 1.0, 0.5), 10.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        let mut total = Tally::default();
        total.absorb(t);
        total.absorb(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!((total.attempted, total.failed), (8, 1));
    }
}
