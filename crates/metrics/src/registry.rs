//! A lightweight, dependency-free metrics registry.
//!
//! Three primitive types, all lock-free on the hot path:
//!
//! * [`Counter`] — monotonically increasing `u64`,
//! * [`Gauge`] — an `f64` cell supporting set / add / max,
//! * [`Histogram`] — fixed-bucket `u64` observations.
//!
//! Metrics are registered by name in a [`Registry`]; labeled families are
//! additional series under the same name distinguished by a sorted label
//! set. [`Registry::render_prometheus`] renders everything in the
//! Prometheus text exposition format with deterministic ordering (names
//! sorted, then label strings sorted), so the output is pinnable in tests
//! and scrapeable by a real Prometheus.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed bucket upper bounds (in DPU cycles) for the per-launch
/// `pim_launch_max_cycles` histogram: decades from 1e3 to 1e8.
pub const LAUNCH_CYCLE_BUCKETS: [u64; 6] =
    [1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Fixed bucket upper bounds (in bytes) for the per-DPU
/// `pim_hist_dpu_dma_bytes` histogram: decades from 1e2 to 1e7.
pub const DMA_BYTES_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Nearest-rank percentile over an ascending-sorted slice: the value at
/// rank `ceil(p/100 * n)` (1-based, clamped), or 0 when empty.
///
/// This is the definition behind [`crate::LaunchDist`]'s p50/p99, which
/// the `hist` events and the simulator's kernel ledger share.
pub fn nearest_rank_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A monotonically increasing atomic counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge (stored as bits in an atomic word).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `value` if it is larger (high-water mark).
    pub fn max(&self, value: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= value {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Ascending bucket upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// One count per bound, plus the `+Inf` bucket (non-cumulative).
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        let mut sorted = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let counts = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: sorted,
            counts,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation: the first bucket whose upper bound is
    /// `>= value` (or `+Inf`) is incremented.
    pub fn observe(&self, value: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket counts (non-cumulative), `+Inf` last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: Option<String>,
    /// Series keyed by rendered label string (`""` for the unlabeled one).
    series: BTreeMap<String, Series>,
}

/// Renders a sorted label set as `{k="v",...}` (empty string when no
/// labels), escaping `\` and `"` in values per the Prometheus text format.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// A named collection of metrics.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Attaches help text to a metric name (rendered as `# HELP`).
    pub fn describe(&self, name: &str, help: &str) {
        let mut families = self.families.lock().expect("registry poisoned");
        families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: None,
                series: BTreeMap::new(),
            })
            .help = Some(help.to_string());
    }

    fn series_with<F>(&self, name: &str, labels: &[(&str, &str)], make: F) -> Series
    where
        F: FnOnce() -> Series,
    {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: None,
            series: BTreeMap::new(),
        });
        let series = family.series.entry(label_key(labels)).or_insert_with(make);
        match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    /// The unlabeled counter `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter `name{labels}` (registered on first use). Mixing
    /// metric types under one name keeps the first registration's type.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series_with(name, labels, || Series::Counter(Counter::default())) {
            Series::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// The unlabeled gauge `name` (registered on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge `name{labels}` (registered on first use).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series_with(name, labels, || Series::Gauge(Gauge::default())) {
            Series::Gauge(g) => g,
            _ => Gauge::default(),
        }
    }

    /// The unlabeled histogram `name` with the given bucket upper bounds
    /// (registered on first use; later calls reuse the first bounds).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// The histogram `name{labels}` (registered on first use). The series'
    /// labels are merged with the per-bucket `le` label when rendered.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        match self.series_with(name, labels, || Series::Histogram(Histogram::new(bounds))) {
            Series::Histogram(h) => h,
            _ => Histogram::new(bounds),
        }
    }

    /// Every counter series under `name` as `(label string, value)` pairs
    /// in deterministic label order (`""` for the unlabeled series).
    /// Empty when the family does not exist or is not a counter family.
    pub fn counter_values(&self, name: &str) -> Vec<(String, u64)> {
        let families = self.families.lock().expect("registry poisoned");
        let Some(family) = families.get(name) else {
            return Vec::new();
        };
        family
            .series
            .iter()
            .filter_map(|(labels, series)| match series {
                Series::Counter(c) => Some((labels.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Every gauge series under `name` as `(label string, value)` pairs in
    /// deterministic label order. Empty when absent or not a gauge family.
    pub fn gauge_values(&self, name: &str) -> Vec<(String, f64)> {
        let families = self.families.lock().expect("registry poisoned");
        let Some(family) = families.get(name) else {
            return Vec::new();
        };
        family
            .series
            .iter()
            .filter_map(|(labels, series)| match series {
                Series::Gauge(g) => Some((labels.clone(), g.get())),
                _ => None,
            })
            .collect()
    }

    /// The sum of every counter series under `name` (0 when absent): the
    /// family total regardless of how it is labeled (`op`, `rank`, ...).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counter_values(name).iter().map(|(_, v)| *v).sum()
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// deterministically ordered (names sorted, then label sets sorted).
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            if family.series.is_empty() {
                continue;
            }
            if let Some(help) = &family.help {
                let _ = writeln!(out, "# HELP {name} {help}");
            }
            let kind = match family.series.values().next() {
                Some(Series::Counter(_)) => "counter",
                Some(Series::Gauge(_)) => "gauge",
                Some(Series::Histogram(_)) => "histogram",
                None => continue,
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {:?}", g.get());
                    }
                    Series::Histogram(h) => {
                        // A labeled series merges its own labels with the
                        // per-bucket `le` label.
                        let with_le = |le: &str| {
                            if labels.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                            }
                        };
                        let mut cumulative = 0u64;
                        for (bound, count) in h.bounds().iter().zip(h.bucket_counts()) {
                            cumulative += count;
                            let le = with_le(&bound.to_string());
                            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        }
                        let inf = with_le("+Inf");
                        let _ = writeln!(out, "{name}_bucket{inf} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("ops_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ops_total").get(), 5);

        let g = reg.gauge("fill");
        g.set(0.25);
        g.add(0.5);
        assert!((reg.gauge("fill").get() - 0.75).abs() < 1e-12);
        g.max(0.5); // below current → unchanged
        assert!((g.get() - 0.75).abs() < 1e-12);
        g.max(2.0);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn labeled_families_are_distinct_series() {
        let reg = Registry::new();
        reg.counter_with("ops", &[("op", "push")]).add(3);
        reg.counter_with("ops", &[("op", "gather")]).add(7);
        assert_eq!(reg.counter_with("ops", &[("op", "push")]).get(), 3);
        assert_eq!(reg.counter_with("ops", &[("op", "gather")]).get(), 7);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter_with("m", &[("a", "1"), ("b", "2")]).inc();
        reg.counter_with("m", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.counter_with("m", &[("a", "1"), ("b", "2")]).get(), 2);
    }

    #[test]
    fn histogram_bucketing_is_exact() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 101, 5000, 1000] {
            h.observe(v);
        }
        // Buckets: <=10 → {0,10}=2; <=100 → {11,100}=2; <=1000 → {101,1000}=2;
        // +Inf → {5000}=1.
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 10 + 11 + 100 + 101 + 5000 + 1000);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let h = Histogram::new(&[100, 10, 100, 1]);
        assert_eq!(h.bounds(), &[1, 10, 100]);
        h.observe(1);
        h.observe(2);
        assert_eq!(h.bucket_counts(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn labeled_histograms_merge_le_with_series_labels() {
        let reg = Registry::new();
        let h = reg.histogram_with("cycles", &[("rank", "1")], &[10]);
        h.observe(5);
        h.observe(50);
        let text = reg.render_prometheus();
        assert!(
            text.contains("cycles_bucket{rank=\"1\",le=\"10\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cycles_bucket{rank=\"1\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("cycles_sum{rank=\"1\"} 55"), "{text}");
        assert!(text.contains("cycles_count{rank=\"1\"} 2"), "{text}");
    }

    #[test]
    fn read_apis_enumerate_series_deterministically() {
        let reg = Registry::new();
        reg.counter_with("faults", &[("kind", "kill")]).add(2);
        reg.counter_with("faults", &[("kind", "corrupt")]).add(1);
        reg.counter("bytes").add(100);
        reg.gauge_with("p50", &[("label", "count")]).set(42.0);
        assert_eq!(
            reg.counter_values("faults"),
            vec![
                ("{kind=\"corrupt\"}".to_string(), 1),
                ("{kind=\"kill\"}".to_string(), 2),
            ]
        );
        assert_eq!(reg.counter_total("faults"), 3);
        assert_eq!(reg.counter_values("bytes"), vec![(String::new(), 100)]);
        assert_eq!(
            reg.gauge_values("p50"),
            vec![("{label=\"count\"}".to_string(), 42.0)]
        );
        assert!(reg.counter_values("missing").is_empty());
        assert_eq!(reg.counter_total("missing"), 0);
        // A gauge family yields no counter values and vice versa.
        assert!(reg.counter_values("p50").is_empty());
        assert!(reg.gauge_values("faults").is_empty());
    }

    #[test]
    fn nearest_rank_percentile_matches_launch_profile_definition() {
        assert_eq!(nearest_rank_percentile(&[], 50.0), 0);
        assert_eq!(nearest_rank_percentile(&[7], 50.0), 7);
        assert_eq!(nearest_rank_percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank_percentile(&v, 50.0), 50);
        assert_eq!(nearest_rank_percentile(&v, 99.0), 99);
        assert_eq!(nearest_rank_percentile(&v, 100.0), 100);
        assert_eq!(
            nearest_rank_percentile(&[1100, 2200, 3300, 4400], 50.0),
            2200
        );
        assert_eq!(
            nearest_rank_percentile(&[1100, 2200, 3300, 4400], 99.0),
            4400
        );
    }

    #[test]
    fn prometheus_rendering_is_pinned() {
        let reg = Registry::new();
        reg.describe("pim_transfer_bytes_total", "Total CPU<->PIM bytes moved.");
        reg.counter("pim_transfer_bytes_total").add(4096);
        reg.counter_with("pim_retries_total", &[("op", "receive")])
            .add(2);
        reg.counter_with("pim_retries_total", &[("op", "headers")])
            .inc();
        reg.gauge("pim_reservoir_fill_max").set(0.5);
        let h = reg.histogram("pim_launch_max_cycles", &[1000, 10000]);
        h.observe(500);
        h.observe(1500);
        h.observe(999_999);

        let text = reg.render_prometheus();
        let expected = "\
# TYPE pim_launch_max_cycles histogram
pim_launch_max_cycles_bucket{le=\"1000\"} 1
pim_launch_max_cycles_bucket{le=\"10000\"} 2
pim_launch_max_cycles_bucket{le=\"+Inf\"} 3
pim_launch_max_cycles_sum 1001999
pim_launch_max_cycles_count 3
# TYPE pim_reservoir_fill_max gauge
pim_reservoir_fill_max 0.5
# TYPE pim_retries_total counter
pim_retries_total{op=\"headers\"} 1
pim_retries_total{op=\"receive\"} 2
# HELP pim_transfer_bytes_total Total CPU<->PIM bytes moved.
# TYPE pim_transfer_bytes_total counter
pim_transfer_bytes_total 4096
";
        assert_eq!(text, expected);
    }
}
