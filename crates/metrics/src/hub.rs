//! The [`MetricsHub`]: one object that owns the registry, the sequence
//! counter, and the sink fan-out.
//!
//! Instrumented code calls the typed emitters (`transfer`, `launch`,
//! `host`, ...); each one updates the corresponding registry series *and*
//! appends a sequenced [`Event`] to every attached sink. Sequence numbers
//! start at 1 and are strictly increasing across all event kinds, assigned
//! under one lock, so a recorded JSONL stream can be validated for
//! completeness by checking `seq` monotonicity alone.

use crate::event::{Event, FieldValue, MetricsSink};
use crate::registry::{
    nearest_rank_percentile, Counter, Gauge, Histogram, Registry, DMA_BYTES_BUCKETS,
    LAUNCH_CYCLE_BUCKETS,
};
use std::sync::{Arc, Mutex};

/// The per-DPU cycle distribution of one kernel launch over the cores
/// that ran it (dead cores excluded). Computed once per launch; the
/// `launch` and `hist` events and the simulator's kernel ledger all read
/// the same value.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaunchDist {
    /// Live cores that executed the kernel.
    pub dpus: u64,
    /// Cycles of the slowest core (the launch's critical path).
    pub max_cycles: u64,
    /// Mean cycles over the live cores.
    pub mean_cycles: f64,
    /// Nearest-rank median of per-core cycles.
    pub p50_cycles: u64,
    /// Nearest-rank p99 of per-core cycles.
    pub p99_cycles: u64,
    /// `max / mean` (1.0 = perfectly even, and when the mean is zero).
    pub imbalance: f64,
}

impl LaunchDist {
    /// The distribution of `cycles`, one entry per live core.
    pub fn of(cycles: &[u64]) -> LaunchDist {
        let mut sorted = cycles.to_vec();
        sorted.sort_unstable();
        let max_cycles = sorted.last().copied().unwrap_or(0);
        let mean_cycles = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
        };
        LaunchDist {
            dpus: sorted.len() as u64,
            max_cycles,
            mean_cycles,
            p50_cycles: nearest_rank_percentile(&sorted, 50.0),
            p99_cycles: nearest_rank_percentile(&sorted, 99.0),
            imbalance: if mean_cycles > 0.0 {
                max_cycles as f64 / mean_cycles
            } else {
                1.0
            },
        }
    }
}

/// Observations for one kernel launch, emitted by a backend after the
/// launch completes (or fails).
#[derive(Clone, Debug)]
pub struct LaunchObs {
    /// Kernel label (e.g. `"tc_count"`).
    pub label: String,
    /// Phase name the launch was charged to.
    pub phase: &'static str,
    /// Per-core cycle distribution (empty for a failed launch).
    pub dist: LaunchDist,
    /// Instructions retired across all live DPUs in this launch.
    pub instructions: u64,
    /// MRAM DMA bytes moved across all live DPUs in this launch.
    pub dma_bytes: u64,
    /// Modeled wall-clock seconds charged for the launch.
    pub seconds: f64,
    /// `false` when the launch was killed by an injected fault.
    pub ok: bool,
}

/// Observations for one streamed edge chunk processed by a `TcSession`.
#[derive(Clone, Debug)]
pub struct ChunkObs {
    /// Zero-based chunk index within the run.
    pub index: u64,
    /// Edges contained in the chunk.
    pub edges: u64,
    /// Edges offered to reservoirs (post-routing).
    pub offered: u64,
    /// Edges actually kept by reservoirs.
    pub kept: u64,
    /// Bytes of routed per-DPU buffers staged for this chunk.
    pub routed_bytes: u64,
    /// High-water mark of routed bytes across all chunks so far.
    pub peak_routed_bytes: u64,
    /// Current Misra–Gries heavy-hitter summary size.
    pub mg_summary: u64,
}

struct HubState {
    seq: u64,
    sinks: Vec<Box<dyn MetricsSink>>,
}

/// Shared core of a hub: the registry plus the sequenced sink fan-out.
/// Per-rank views ([`MetricsHub::with_rank`]) share one inner, so a
/// cluster's ranks interleave into a single stream under one `seq`.
struct HubInner {
    registry: Registry,
    state: Mutex<HubState>,
}

/// The live metrics plane: a [`Registry`] plus a sequenced event stream
/// fanned out to attached [`MetricsSink`]s.
///
/// A hub can be scoped to one rank of a multi-rank cluster with
/// [`MetricsHub::with_rank`]: the view shares the parent's registry,
/// sequence counter, and sinks, but stamps every emitted event with a
/// `rank` field and every registry series with a `rank` label. An
/// unscoped hub (the default) emits exactly the historical shape — no
/// `rank` anywhere — so single-rank streams stay byte-compatible.
pub struct MetricsHub {
    inner: Arc<HubInner>,
    /// When set, every event carries `rank` and every series a
    /// `rank="N"` label.
    rank: Option<u32>,
    /// Cached decimal rendering of `rank` (`""` when unscoped).
    rank_str: String,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

impl MetricsHub {
    /// A hub with no sinks attached (registry-only).
    pub fn new() -> MetricsHub {
        MetricsHub {
            inner: Arc::new(HubInner {
                registry: Registry::new(),
                state: Mutex::new(HubState {
                    seq: 0,
                    sinks: Vec::new(),
                }),
            }),
            rank: None,
            rank_str: String::new(),
        }
    }

    /// A view of this hub scoped to `rank`: shares the registry, sequence
    /// counter, and sinks, but stamps everything it emits with the rank.
    pub fn with_rank(&self, rank: u32) -> Arc<MetricsHub> {
        Arc::new(MetricsHub {
            inner: Arc::clone(&self.inner),
            rank: Some(rank),
            rank_str: rank.to_string(),
        })
    }

    /// The rank this view is scoped to (`None` for the root hub).
    pub fn rank(&self) -> Option<u32> {
        self.rank
    }

    /// Attaches a sink; it receives every event emitted from now on.
    pub fn add_sink(&self, sink: Box<dyn MetricsSink>) {
        self.inner
            .state
            .lock()
            .expect("hub poisoned")
            .sinks
            .push(sink);
    }

    /// The underlying registry (for ad-hoc series or Prometheus render).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.inner.registry.render_prometheus()
    }

    /// Flushes all sinks; returns the first sink error encountered, if any.
    pub fn flush(&self) -> Result<(), String> {
        let mut state = self.inner.state.lock().expect("hub poisoned");
        let mut first_err = None;
        for sink in state.sinks.iter_mut() {
            sink.flush();
            if first_err.is_none() {
                first_err = sink.error();
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Assigns the next sequence number and fans the event out. Rank-scoped
    /// views append their `rank` field here, so every event kind carries it
    /// uniformly.
    pub fn emit(&self, kind: &str, mut fields: Vec<(String, FieldValue)>) {
        if let Some(r) = self.rank {
            fields.push(("rank".into(), FieldValue::U64(r as u64)));
        }
        let mut state = self.inner.state.lock().expect("hub poisoned");
        state.seq += 1;
        let event = Event {
            seq: state.seq,
            kind: kind.to_string(),
            fields,
        };
        for sink in state.sinks.iter_mut() {
            sink.record(&event);
        }
    }

    /// The counter `name`, rank-labeled when this view is rank-scoped.
    fn ctr(&self, name: &str) -> Counter {
        self.ctr_with(name, &[])
    }

    /// The counter `name{labels}`, plus a `rank` label when scoped.
    fn ctr_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.rank {
            None => self.inner.registry.counter_with(name, labels),
            Some(_) => {
                let mut all = labels.to_vec();
                all.push(("rank", self.rank_str.as_str()));
                self.inner.registry.counter_with(name, &all)
            }
        }
    }

    /// The gauge `name`, rank-labeled when this view is rank-scoped.
    fn gge(&self, name: &str) -> Gauge {
        self.gge_with(name, &[])
    }

    /// The gauge `name{labels}`, plus a `rank` label when scoped.
    fn gge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.rank {
            None => self.inner.registry.gauge_with(name, labels),
            Some(_) => {
                let mut all = labels.to_vec();
                all.push(("rank", self.rank_str.as_str()));
                self.inner.registry.gauge_with(name, &all)
            }
        }
    }

    /// The histogram `name`, rank-labeled when this view is rank-scoped.
    fn hist(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.hist_with(name, &[], bounds)
    }

    /// The histogram `name{labels}`, plus a `rank` label when scoped.
    fn hist_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        match self.rank {
            None => self.inner.registry.histogram_with(name, labels, bounds),
            Some(_) => {
                let mut all = labels.to_vec();
                all.push(("rank", self.rank_str.as_str()));
                self.inner.registry.histogram_with(name, &all, bounds)
            }
        }
    }

    /// The most recently assigned event sequence number (0 before any
    /// event). A watchdog compares this across checks to detect a stalled
    /// run: no new events means no transfers, launches, or chunks landed.
    pub fn last_seq(&self) -> u64 {
        self.inner.state.lock().expect("hub poisoned").seq
    }

    /// System allocation: `nr_dpus` ranks brought up in `seconds`.
    pub fn alloc(&self, nr_dpus: u64, seconds: f64) {
        self.gge("pim_nr_dpus").set(nr_dpus as f64);
        self.gge("pim_alloc_seconds").set(seconds);
        self.emit(
            "alloc",
            vec![
                ("nr_dpus".into(), FieldValue::U64(nr_dpus)),
                ("seconds".into(), FieldValue::F64(seconds)),
            ],
        );
    }

    /// Phase transition.
    pub fn phase_change(&self, to: &'static str) {
        self.emit("phase", vec![("to".into(), FieldValue::Str(to.into()))]);
    }

    /// One host↔DPU transfer (`op` is `push` / `gather`).
    /// Failed transfers are emitted with `ok = false`, `bytes = 0`, and the
    /// wasted bus seconds, so the stream's seconds still close against the
    /// simulator's phase times.
    pub fn transfer(
        &self,
        op: &'static str,
        phase: &'static str,
        writes: u64,
        bytes: u64,
        seconds: f64,
        ok: bool,
    ) {
        self.ctr_with("pim_transfer_ops_total", &[("op", op)]).inc();
        if ok {
            self.ctr("pim_transfer_bytes_total").add(bytes);
        } else {
            self.ctr_with("pim_transfer_failed_ops_total", &[("op", op)])
                .inc();
        }
        self.gge("pim_transfer_seconds_total").add(seconds);
        self.emit(
            "transfer",
            vec![
                ("op".into(), FieldValue::Str(op.into())),
                ("phase".into(), FieldValue::Str(phase.into())),
                ("writes".into(), FieldValue::U64(writes)),
                ("bytes".into(), FieldValue::U64(bytes)),
                ("seconds".into(), FieldValue::F64(seconds)),
                ("ok".into(), FieldValue::Bool(ok)),
            ],
        );
    }

    /// One kernel launch (see [`LaunchObs`]).
    pub fn launch(&self, obs: LaunchObs) {
        let dist = obs.dist;
        self.ctr_with("pim_launches_total", &[("label", &obs.label)])
            .inc();
        self.ctr_with("pim_kernel_cycles_total", &[("label", &obs.label)])
            .add(dist.max_cycles);
        self.ctr("pim_instructions_total").add(obs.instructions);
        self.ctr("pim_dma_bytes_total").add(obs.dma_bytes);
        self.gge("pim_launch_seconds_total").add(obs.seconds);
        self.hist("pim_launch_max_cycles", &LAUNCH_CYCLE_BUCKETS)
            .observe(dist.max_cycles);
        self.emit(
            "launch",
            vec![
                ("label".into(), FieldValue::Str(obs.label)),
                ("phase".into(), FieldValue::Str(obs.phase.into())),
                ("dpus".into(), FieldValue::U64(dist.dpus)),
                ("max_cycles".into(), FieldValue::U64(dist.max_cycles)),
                ("mean_cycles".into(), FieldValue::F64(dist.mean_cycles)),
                ("instructions".into(), FieldValue::U64(obs.instructions)),
                ("dma_bytes".into(), FieldValue::U64(obs.dma_bytes)),
                ("seconds".into(), FieldValue::F64(obs.seconds)),
                ("ok".into(), FieldValue::Bool(obs.ok)),
            ],
        );
    }

    /// The per-DPU cycle/DMA distribution of one kernel launch, streamed
    /// live so imbalance is visible mid-run. `per_dpu_cycles` and
    /// `per_dpu_dma_bytes` hold one entry per live core, the cores `dist`
    /// was computed over. Each entry is observed into
    /// `pim_hist_dpu_{cycles,dma_bytes}{label}`, and the gauges
    /// `pim_hist_last_{max,p50,p99}_cycles{label}` and
    /// `pim_hist_last_imbalance{label}` snapshot the launch for the
    /// watchdog's straggler check (rank-labeled on a rank-scoped view).
    pub fn launch_hist(
        &self,
        label: &str,
        phase: &'static str,
        dist: &LaunchDist,
        per_dpu_cycles: &[u64],
        per_dpu_dma_bytes: &[u64],
    ) {
        let cycles_hist = self.hist_with(
            "pim_hist_dpu_cycles",
            &[("label", label)],
            &LAUNCH_CYCLE_BUCKETS,
        );
        for &c in per_dpu_cycles {
            cycles_hist.observe(c);
        }
        let dma_hist = self.hist_with(
            "pim_hist_dpu_dma_bytes",
            &[("label", label)],
            &DMA_BYTES_BUCKETS,
        );
        for &b in per_dpu_dma_bytes {
            dma_hist.observe(b);
        }
        self.gge_with("pim_hist_last_max_cycles", &[("label", label)])
            .set(dist.max_cycles as f64);
        self.gge_with("pim_hist_last_p50_cycles", &[("label", label)])
            .set(dist.p50_cycles as f64);
        self.gge_with("pim_hist_last_p99_cycles", &[("label", label)])
            .set(dist.p99_cycles as f64);
        self.gge_with("pim_hist_last_imbalance", &[("label", label)])
            .set(dist.imbalance);
        self.emit(
            "hist",
            vec![
                ("label".into(), FieldValue::Str(label.into())),
                ("phase".into(), FieldValue::Str(phase.into())),
                ("dpus".into(), FieldValue::U64(dist.dpus)),
                ("max_cycles".into(), FieldValue::U64(dist.max_cycles)),
                ("mean_cycles".into(), FieldValue::F64(dist.mean_cycles)),
                ("p50_cycles".into(), FieldValue::U64(dist.p50_cycles)),
                ("p99_cycles".into(), FieldValue::U64(dist.p99_cycles)),
                ("imbalance".into(), FieldValue::F64(dist.imbalance)),
                (
                    "dma_bytes".into(),
                    FieldValue::U64(per_dpu_dma_bytes.iter().sum()),
                ),
            ],
        );
    }

    /// A watchdog anomaly: a structured `anomaly` event plus a
    /// `pim_anomalies_total{kind}` counter bump, so raised anomalies are
    /// visible on the stream, the scrape, and `/healthz` alike.
    pub fn anomaly(&self, kind: &str, detail: &str) {
        self.ctr_with("pim_anomalies_total", &[("kind", kind)])
            .inc();
        self.emit(
            "anomaly",
            vec![
                ("anomaly_kind".into(), FieldValue::Str(kind.into())),
                ("detail".into(), FieldValue::Str(detail.into())),
            ],
        );
    }

    /// Host-side work charged to the modeled clock. Labels of the form
    /// `retry:<op>` are additionally counted as retries of `<op>` (with the
    /// backoff seconds accumulated separately).
    pub fn host(&self, label: &str, phase: &'static str, seconds: f64) {
        if let Some(op) = label.strip_prefix("retry:") {
            self.ctr_with("pim_retries_total", &[("op", op)]).inc();
            self.gge("pim_retry_backoff_seconds_total").add(seconds);
        }
        self.gge_with("pim_host_seconds_total", &[("label", label)])
            .add(seconds);
        self.emit(
            "host",
            vec![
                ("label".into(), FieldValue::Str(label.into())),
                ("phase".into(), FieldValue::Str(phase.into())),
                ("seconds".into(), FieldValue::F64(seconds)),
            ],
        );
    }

    /// One injected fault firing. `op` is the fault plan's operation
    /// counter at the time it fired; `dpu` is set when a specific core was
    /// the victim (kill and corrupt faults).
    pub fn fault(&self, kind: &'static str, phase: &'static str, op: u64, dpu: Option<u64>) {
        self.ctr_with("pim_faults_total", &[("kind", kind)]).inc();
        let mut fields = vec![
            ("fault_kind".into(), FieldValue::Str(kind.into())),
            ("phase".into(), FieldValue::Str(phase.into())),
            ("op".into(), FieldValue::U64(op)),
        ];
        if let Some(d) = dpu {
            fields.push(("dpu".into(), FieldValue::U64(d)));
        }
        self.emit("fault", fields);
    }

    /// One streamed edge chunk processed (see [`ChunkObs`]).
    pub fn chunk(&self, obs: ChunkObs) {
        self.ctr("pim_chunks_total").inc();
        self.ctr("pim_edges_total").add(obs.edges);
        self.ctr("pim_edges_offered_total").add(obs.offered);
        self.ctr("pim_edges_kept_total").add(obs.kept);
        self.ctr("pim_edges_routed_bytes_total")
            .add(obs.routed_bytes);
        self.gge("pim_peak_routed_bytes")
            .max(obs.peak_routed_bytes as f64);
        self.gge("pim_mg_summary_size").set(obs.mg_summary as f64);
        self.emit(
            "chunk",
            vec![
                ("index".into(), FieldValue::U64(obs.index)),
                ("edges".into(), FieldValue::U64(obs.edges)),
                ("offered".into(), FieldValue::U64(obs.offered)),
                ("kept".into(), FieldValue::U64(obs.kept)),
                ("routed".into(), FieldValue::U64(obs.routed_bytes)),
                (
                    "peak_routed_bytes".into(),
                    FieldValue::U64(obs.peak_routed_bytes),
                ),
                ("mg_summary".into(), FieldValue::U64(obs.mg_summary)),
            ],
        );
    }

    /// Reservoir occupancy at count time: `resident` edges across all DPUs
    /// out of `capacity`, and the maximum per-DPU fill fraction.
    pub fn reservoir(&self, resident: u64, capacity: u64, max_fill: f64) {
        self.gge("pim_reservoir_resident_edges")
            .set(resident as f64);
        self.gge("pim_reservoir_capacity_edges")
            .set(capacity as f64);
        self.gge("pim_reservoir_fill_max").max(max_fill);
        self.emit(
            "reservoir",
            vec![
                ("resident".into(), FieldValue::U64(resident)),
                ("capacity".into(), FieldValue::U64(capacity)),
                ("max_fill".into(), FieldValue::F64(max_fill)),
            ],
        );
    }

    /// A dead DPU's partition was failed over to a spare core.
    pub fn failover(&self, partition: u64, spare: u64) {
        self.ctr("pim_failovers_total").inc();
        self.emit(
            "failover",
            vec![
                ("partition".into(), FieldValue::U64(partition)),
                ("spare".into(), FieldValue::U64(spare)),
            ],
        );
    }

    /// A partition's bank was re-derived by replaying its RNG journal —
    /// `keys` staged edges pushed through the receive kernel's decision
    /// stream plus `marks` remap/sort barriers — onto core `target`.
    pub fn journal_replay(&self, partition: u64, target: u64, keys: u64, marks: u64) {
        self.ctr("pim_journal_replays_total").inc();
        self.ctr("pim_journal_replayed_keys_total").add(keys);
        self.emit(
            "journal_replay",
            vec![
                ("partition".into(), FieldValue::U64(partition)),
                ("target".into(), FieldValue::U64(target)),
                ("keys".into(), FieldValue::U64(keys)),
                ("marks".into(), FieldValue::U64(marks)),
            ],
        );
    }

    /// One proactive scrub sweep over `partitions` live banks: `repaired`
    /// were reinstalled in place from their journals, `failed_over` moved
    /// to spare cores because their home had died.
    pub fn scrub(&self, partitions: u64, repaired: u64, failed_over: u64) {
        self.ctr("pim_scrub_sweeps_total").inc();
        self.ctr("pim_scrub_repairs_total").add(repaired);
        self.emit(
            "scrub",
            vec![
                ("partitions".into(), FieldValue::U64(partitions)),
                ("repaired".into(), FieldValue::U64(repaired)),
                ("failed_over".into(), FieldValue::U64(failed_over)),
            ],
        );
    }

    /// A session snapshot was captured at stream position `watermark`:
    /// `partitions` banks holding `sample_keys` resident edge keys.
    pub fn checkpoint(&self, partitions: u64, sample_keys: u64, watermark: u64) {
        self.emit(
            "checkpoint",
            vec![
                ("partitions".into(), FieldValue::U64(partitions)),
                ("sample_keys".into(), FieldValue::U64(sample_keys)),
                ("watermark".into(), FieldValue::U64(watermark)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemorySink;

    /// `launch_hist` for a `count` launch over its live cores.
    fn count_hist(hub: &MetricsHub, cycles: &[u64], dma: &[u64]) {
        let dist = LaunchDist::of(cycles);
        hub.launch_hist("count", "triangle_count", &dist, cycles, dma);
    }

    #[test]
    fn seq_is_strictly_increasing_across_kinds() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        hub.alloc(64, 0.5);
        hub.phase_change("setup");
        hub.transfer("push", "setup", 64, 4096, 1e-5, true);
        hub.host("route_edges", "sample_creation", 2e-6);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
        }
    }

    #[test]
    fn launch_updates_registry_aggregates() {
        let hub = MetricsHub::new();
        hub.launch(LaunchObs {
            label: "tc_count".into(),
            phase: "triangle_count",
            dist: LaunchDist {
                dpus: 4,
                max_cycles: 2000,
                mean_cycles: 1500.0,
                ..LaunchDist::default()
            },
            instructions: 6000,
            dma_bytes: 1024,
            seconds: 5e-6,
            ok: true,
        });
        hub.launch(LaunchObs {
            label: "tc_count".into(),
            phase: "triangle_count",
            dist: LaunchDist {
                dpus: 4,
                max_cycles: 500,
                mean_cycles: 400.0,
                ..LaunchDist::default()
            },
            instructions: 1600,
            dma_bytes: 256,
            seconds: 2e-6,
            ok: true,
        });
        let reg = hub.registry();
        assert_eq!(
            reg.counter_with("pim_launches_total", &[("label", "tc_count")])
                .get(),
            2
        );
        assert_eq!(
            reg.counter_with("pim_kernel_cycles_total", &[("label", "tc_count")])
                .get(),
            2500
        );
        assert_eq!(reg.counter("pim_instructions_total").get(), 7600);
        assert_eq!(reg.counter("pim_dma_bytes_total").get(), 1280);
        let h = reg.histogram("pim_launch_max_cycles", &LAUNCH_CYCLE_BUCKETS);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn rank_views_share_seq_and_label_series() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let r0 = hub.with_rank(0);
        let r1 = hub.with_rank(1);
        r0.transfer("push", "setup", 1, 100, 0.0, true);
        r1.transfer("push", "setup", 1, 200, 0.0, true);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // One shared sequence across ranks.
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[0].u64_field("rank"), 0);
        assert_eq!(events[1].u64_field("rank"), 1);
        let reg = hub.registry();
        assert_eq!(
            reg.counter_with("pim_transfer_bytes_total", &[("rank", "0")])
                .get(),
            100
        );
        assert_eq!(
            reg.counter_with("pim_transfer_bytes_total", &[("rank", "1")])
                .get(),
            200
        );
        // The unscoped series stays untouched.
        assert_eq!(reg.counter("pim_transfer_bytes_total").get(), 0);
    }

    #[test]
    fn unscoped_hub_emits_no_rank_field_or_label() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        hub.transfer("push", "setup", 1, 100, 0.0, true);
        assert!(sink.events()[0].get("rank").is_none());
        assert!(!hub.render_prometheus().contains("rank"));
    }

    #[test]
    fn launch_hist_streams_launch_profile_math() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        count_hist(&hub, &[1100, 2200, 3300, 4400], &[10, 20, 30, 40]);
        let e = &sink.events()[0];
        assert_eq!(e.kind, "hist");
        assert_eq!(e.u64_field("dpus"), 4);
        assert_eq!(e.u64_field("max_cycles"), 4400);
        assert_eq!(e.u64_field("p50_cycles"), 2200);
        assert_eq!(e.u64_field("p99_cycles"), 4400);
        assert!((e.f64_field("mean_cycles") - 2750.0).abs() < 1e-9);
        assert!((e.f64_field("imbalance") - 1.6).abs() < 1e-12);
        assert_eq!(e.u64_field("dma_bytes"), 100);
        let reg = hub.registry();
        let h = reg.histogram_with(
            "pim_hist_dpu_cycles",
            &[("label", "count")],
            &LAUNCH_CYCLE_BUCKETS,
        );
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 11000);
        assert_eq!(
            reg.gauge_with("pim_hist_last_max_cycles", &[("label", "count")])
                .get(),
            4400.0
        );
        assert_eq!(
            reg.gauge_with("pim_hist_last_p50_cycles", &[("label", "count")])
                .get(),
            2200.0
        );
        assert_eq!(
            reg.gauge_with("pim_hist_last_imbalance", &[("label", "count")])
                .get(),
            1.6
        );
    }

    #[test]
    fn launch_hist_all_dead_reports_unit_imbalance() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        count_hist(&hub, &[], &[]);
        let e = &sink.events()[0];
        assert_eq!(e.u64_field("dpus"), 0);
        assert_eq!(e.u64_field("max_cycles"), 0);
        assert_eq!(e.f64_field("imbalance"), 1.0);
    }

    #[test]
    fn rank_scoped_launch_hist_labels_series_and_events() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let r1 = hub.with_rank(1);
        count_hist(&r1, &[100, 300], &[8, 8]);
        assert_eq!(sink.events()[0].u64_field("rank"), 1);
        let text = hub.render_prometheus();
        assert!(
            text.contains("pim_hist_dpu_cycles_count{label=\"count\",rank=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pim_hist_last_max_cycles{label=\"count\",rank=\"1\"} 300"),
            "{text}"
        );
    }

    #[test]
    fn anomaly_bumps_counter_and_emits_event() {
        let hub = MetricsHub::new();
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        hub.anomaly("straggler", "count: max 9000 > 4x p50 1000");
        let e = &sink.events()[0];
        assert_eq!(e.kind, "anomaly");
        assert_eq!(e.str_field("anomaly_kind"), "straggler");
        assert_eq!(
            hub.registry()
                .counter_with("pim_anomalies_total", &[("kind", "straggler")])
                .get(),
            1
        );
    }

    #[test]
    fn last_seq_tracks_emitted_events() {
        let hub = MetricsHub::new();
        assert_eq!(hub.last_seq(), 0);
        hub.phase_change("setup");
        hub.phase_change("triangle_count");
        assert_eq!(hub.last_seq(), 2);
    }

    #[test]
    fn retry_labels_feed_retry_counters() {
        let hub = MetricsHub::new();
        hub.host("retry:receive", "triangle_count", 1e-4);
        hub.host("retry:receive", "triangle_count", 2e-4);
        hub.host("route_edges", "sample_creation", 1e-6);
        let reg = hub.registry();
        assert_eq!(
            reg.counter_with("pim_retries_total", &[("op", "receive")])
                .get(),
            2
        );
        let backoff = reg.gauge("pim_retry_backoff_seconds_total").get();
        assert!((backoff - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn failed_transfer_counts_no_bytes() {
        let hub = MetricsHub::new();
        hub.transfer("push", "setup", 8, 0, 3e-6, false);
        hub.transfer("push", "setup", 8, 512, 3e-6, true);
        let reg = hub.registry();
        assert_eq!(reg.counter("pim_transfer_bytes_total").get(), 512);
        assert_eq!(
            reg.counter_with("pim_transfer_failed_ops_total", &[("op", "push")])
                .get(),
            1
        );
        assert_eq!(
            reg.counter_with("pim_transfer_ops_total", &[("op", "push")])
                .get(),
            2
        );
    }
}
