//! Straggler/imbalance watchdog over the live registry.
//!
//! A [`Watchdog`] is polled between ops by the driving loop (never from a
//! sink — sinks run under the hub's emission lock, and raising an anomaly
//! emits an event). Each [`Watchdog::check`] compares the registry against
//! the previous check and raises structured anomalies:
//!
//! * `straggler` — a kernel's last launch had `max_cycles` more than
//!   `straggler_factor` × its p50 (per label/rank series, reported once
//!   per series, ignoring launches below `straggler_min_cycles`);
//! * `dpu_death` / `rank_death` — new `kill` / `rank_dead` faults landed
//!   since the previous check;
//! * `retry_spike` — at least `retry_spike` retries landed since the
//!   previous check;
//! * `stall` — no event of any kind landed between two consecutive
//!   checks (the hub's sequence watermark did not advance).
//!
//! Raised anomalies become `anomaly` events and `pim_anomalies_total`
//! counter bumps via [`MetricsHub::anomaly`], so they show up on the
//! JSONL stream, the Prometheus scrape, `/healthz`, and
//! `pimtc metrics-summary` alike. A clean run raises nothing.

use crate::hub::MetricsHub;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Thresholds for [`Watchdog::check`].
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// A launch is a straggler when `max_cycles > straggler_factor * p50`.
    pub straggler_factor: f64,
    /// Launches with `max_cycles` below this are never stragglers (tiny
    /// kernels have noisy ratios).
    pub straggler_min_cycles: f64,
    /// Retries per check interval at or above which `retry_spike` fires.
    pub retry_spike: u64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            straggler_factor: 4.0,
            straggler_min_cycles: 10_000.0,
            retry_spike: 8,
        }
    }
}

/// One raised anomaly.
#[derive(Clone, Debug)]
pub struct Anomaly {
    /// Kind tag: `straggler` / `dpu_death` / `rank_death` / `retry_spike`
    /// / `stall`.
    pub kind: String,
    /// Human-readable one-line detail.
    pub detail: String,
}

/// The watchdog: delta state between checks plus the anomalies raised so
/// far. See the module docs for the checks performed.
pub struct Watchdog {
    hub: Arc<MetricsHub>,
    config: WatchdogConfig,
    checks: u64,
    last_seq: u64,
    last_retries: u64,
    last_kills: u64,
    last_rank_deaths: u64,
    reported_stragglers: BTreeSet<String>,
    fired: Vec<Anomaly>,
}

impl Watchdog {
    /// A watchdog over `hub`'s registry with the given thresholds.
    pub fn new(hub: Arc<MetricsHub>, config: WatchdogConfig) -> Watchdog {
        Watchdog {
            hub,
            config,
            checks: 0,
            last_seq: 0,
            last_retries: 0,
            last_kills: 0,
            last_rank_deaths: 0,
            reported_stragglers: BTreeSet::new(),
            fired: Vec::new(),
        }
    }

    /// Runs all checks against the live registry, emits an `anomaly` event
    /// per finding, and returns the newly raised anomalies.
    pub fn check(&mut self) -> Vec<Anomaly> {
        let mut found = Vec::new();
        let reg = self.hub.registry();

        // Straggler: last launch's max against its p50, per series.
        let p50s = reg.gauge_values("pim_hist_last_p50_cycles");
        for (labels, max) in reg.gauge_values("pim_hist_last_max_cycles") {
            let Some((_, p50)) = p50s.iter().find(|(l, _)| *l == labels) else {
                continue;
            };
            if *p50 > 0.0
                && max >= self.config.straggler_min_cycles
                && max > self.config.straggler_factor * p50
                && self.reported_stragglers.insert(labels.clone())
            {
                found.push(Anomaly {
                    kind: "straggler".into(),
                    detail: format!(
                        "{labels}: slowest DPU {max:.0} cycles > {}x p50 {p50:.0}",
                        self.config.straggler_factor
                    ),
                });
            }
        }

        // Core/rank deaths since the previous check.
        let kills = labeled_total(reg.counter_values("pim_faults_total"), "kind=\"kill\"");
        if kills > self.last_kills {
            found.push(Anomaly {
                kind: "dpu_death".into(),
                detail: format!(
                    "{} DPU core(s) died since last check",
                    kills - self.last_kills
                ),
            });
        }
        self.last_kills = kills;
        let rank_deaths =
            labeled_total(reg.counter_values("pim_faults_total"), "kind=\"rank_dead\"");
        if rank_deaths > self.last_rank_deaths {
            found.push(Anomaly {
                kind: "rank_death".into(),
                detail: format!(
                    "{} whole rank(s) died since last check",
                    rank_deaths - self.last_rank_deaths
                ),
            });
        }
        self.last_rank_deaths = rank_deaths;

        // Retry-rate spike since the previous check.
        let retries = reg.counter_total("pim_retries_total");
        if retries - self.last_retries >= self.config.retry_spike {
            found.push(Anomaly {
                kind: "retry_spike".into(),
                detail: format!(
                    "{} retries since last check (threshold {})",
                    retries - self.last_retries,
                    self.config.retry_spike
                ),
            });
        }
        self.last_retries = retries;

        // Stalled progress: the event watermark did not move between two
        // consecutive checks (skipped on the first check — there is no
        // interval yet).
        let seq = self.hub.last_seq();
        if self.checks > 0 && seq == self.last_seq {
            found.push(Anomaly {
                kind: "stall".into(),
                detail: format!("no events since last check (seq watermark {seq})"),
            });
        }
        self.last_seq = seq;
        self.checks += 1;

        for a in &found {
            self.hub.anomaly(&a.kind, &a.detail);
        }
        // Raising anomalies advanced the watermark; don't count our own
        // events as progress for the next stall check.
        if !found.is_empty() {
            self.last_seq = self.hub.last_seq();
        }
        self.fired.extend(found.iter().cloned());
        found
    }

    /// Every anomaly raised across all checks so far.
    pub fn fired(&self) -> &[Anomaly] {
        &self.fired
    }

    /// One-line verdict for CLI output: `"clean"` or a kind breakdown.
    pub fn summary(&self) -> String {
        if self.fired.is_empty() {
            return "clean".into();
        }
        let mut by_kind: std::collections::BTreeMap<&str, u64> = Default::default();
        for a in &self.fired {
            *by_kind.entry(a.kind.as_str()).or_default() += 1;
        }
        let parts: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} x{n}")).collect();
        format!("{} anomalies ({})", self.fired.len(), parts.join(", "))
    }
}

/// Sums counter series whose label string contains `needle` (e.g.
/// `kind="kill"` matches both `{kind="kill"}` and
/// `{kind="kill",rank="3"}`).
fn labeled_total(values: Vec<(String, u64)>, needle: &str) -> u64 {
    values
        .iter()
        .filter(|(labels, _)| labels.contains(needle))
        .map(|(_, v)| *v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemorySink;

    /// `launch_hist` for a `count` launch over its live cores.
    fn count_hist(hub: &MetricsHub, cycles: &[u64], dma: &[u64]) {
        let dist = crate::LaunchDist::of(cycles);
        hub.launch_hist("count", "triangle_count", &dist, cycles, dma);
    }

    fn hub_with_sink() -> (Arc<MetricsHub>, MemorySink) {
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        (hub, sink)
    }

    #[test]
    fn clean_run_raises_nothing() {
        let (hub, sink) = hub_with_sink();
        let mut wd = Watchdog::new(Arc::clone(&hub), WatchdogConfig::default());
        hub.transfer("push", "setup", 1, 100, 0.0, true);
        count_hist(&hub, &[90_000, 100_000, 110_000], &[8, 8, 8]);
        assert!(wd.check().is_empty());
        hub.transfer("push", "setup", 1, 100, 0.0, true);
        assert!(wd.check().is_empty());
        assert!(wd.fired().is_empty());
        assert_eq!(wd.summary(), "clean");
        assert!(sink.events().iter().all(|e| e.kind != "anomaly"));
    }

    #[test]
    fn straggler_fires_once_per_series() {
        let (hub, sink) = hub_with_sink();
        let mut wd = Watchdog::new(Arc::clone(&hub), WatchdogConfig::default());
        // One DPU 10x slower than the median.
        count_hist(&hub, &[100_000, 100_000, 100_000, 1_000_000], &[8, 8, 8, 8]);
        let found = wd.check();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "straggler");
        assert!(
            found[0].detail.contains("label=\"count\""),
            "{}",
            found[0].detail
        );
        // Same series still skewed: reported once, not every check.
        count_hist(&hub, &[100_000, 100_000, 100_000, 1_000_000], &[8, 8, 8, 8]);
        assert!(wd.check().is_empty());
        assert_eq!(wd.fired().len(), 1);
        let anomalies: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == "anomaly")
            .collect();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].str_field("anomaly_kind"), "straggler");
        assert_eq!(
            hub.registry()
                .counter_with("pim_anomalies_total", &[("kind", "straggler")])
                .get(),
            1
        );
    }

    #[test]
    fn small_launches_are_not_stragglers() {
        let (hub, _sink) = hub_with_sink();
        let mut wd = Watchdog::new(Arc::clone(&hub), WatchdogConfig::default());
        // 10x skew but far below straggler_min_cycles.
        count_hist(&hub, &[100, 100, 1000], &[8, 8, 8]);
        assert!(wd.check().is_empty());
    }

    #[test]
    fn deaths_and_retry_spikes_fire_on_deltas() {
        let (hub, _sink) = hub_with_sink();
        let mut wd = Watchdog::new(
            Arc::clone(&hub),
            WatchdogConfig {
                retry_spike: 3,
                ..WatchdogConfig::default()
            },
        );
        assert!(wd.check().is_empty());
        hub.fault("kill", "triangle_count", 9, Some(2));
        hub.with_rank(1)
            .fault("rank_dead", "triangle_count", 4, None);
        for _ in 0..3 {
            hub.host("retry:receive", "triangle_count", 1e-4);
        }
        let kinds: Vec<String> = wd.check().into_iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec!["dpu_death", "rank_death", "retry_spike"]);
        // Deltas reset: a quiet interval raises only what actually moved.
        hub.transfer("push", "setup", 1, 1, 0.0, true);
        assert!(wd.check().is_empty());
    }

    #[test]
    fn stall_fires_when_watermark_freezes() {
        let (hub, _sink) = hub_with_sink();
        let mut wd = Watchdog::new(Arc::clone(&hub), WatchdogConfig::default());
        hub.phase_change("setup");
        assert!(wd.check().is_empty()); // first check: no interval yet
        let found = wd.check(); // nothing emitted since
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, "stall");
        // The anomaly event itself must not count as progress...
        let found = wd.check();
        assert_eq!(found.len(), 1, "stall persists while frozen");
        // ...but real traffic clears it.
        hub.phase_change("triangle_count");
        assert!(wd.check().is_empty());
    }

    #[test]
    fn summary_breaks_down_by_kind() {
        let (hub, _sink) = hub_with_sink();
        let mut wd = Watchdog::new(Arc::clone(&hub), WatchdogConfig::default());
        hub.fault("kill", "triangle_count", 1, Some(0));
        hub.fault("kill", "triangle_count", 2, Some(1));
        wd.check();
        assert_eq!(wd.summary(), "1 anomalies (dpu_death x1)");
    }
}
