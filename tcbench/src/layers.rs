//! Per-layer accounting from the metrics hub's event stream.
//!
//! The benchmark attaches a [`Recorder`] to the hub it passes to
//! `TcSession::start_cluster_metered`. Every run uses it to fold the
//! modeled clock ([`modeled_seconds`]); a traced run also stamps each event
//! with its arrival time, and [`attribute`] splits the wall time of each
//! call (size, start, append, count) over the events it emitted. [`Layers`]
//! sums those charges by layer, and [`Spans`] keeps them as a span tree
//! (workload → rep → call → op) written out as JSONL when the run ends.

use crate::Metric;
use pim_metrics::{Event, MetricsHub, MetricsSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One hub event, with its arrival time when the run is traced.
#[derive(Clone, Debug)]
pub struct Stamped {
    /// Arrival time; `None` in untraced runs.
    pub at: Option<Instant>,
    /// The event as the hub emitted it.
    pub event: Event,
}

/// A sink keeping every event of one session in memory.
#[derive(Clone)]
pub struct Recorder {
    stamp: bool,
    log: Arc<Mutex<Vec<Stamped>>>,
}

impl Recorder {
    /// Attaches a new recorder to `hub`; `stamp` records arrival times.
    pub fn attach(hub: &MetricsHub, stamp: bool) -> Recorder {
        let rec = Recorder {
            stamp,
            log: Arc::default(),
        };
        hub.add_sink(Box::new(rec.clone()));
        rec
    }

    /// A copy of the events recorded so far.
    #[cfg(test)]
    pub fn events(&self) -> Vec<Stamped> {
        self.log.lock().expect("recorder poisoned").clone()
    }
}

impl MetricsSink for Recorder {
    fn record(&mut self, event: &Event) {
        let at = self.stamp.then(Instant::now);
        self.log.lock().expect("recorder poisoned").push(Stamped {
            at,
            event: event.clone(),
        });
    }
}

/// Modeled PIM-device seconds: per phase, the maximum across ranks of the
/// seconds on `alloc`, `launch` and `transfer` events, summed over
/// phases. `host` spans are left out, whether measured or modeled, so the
/// number repeats exactly for a given input. `alloc` events belong to the
/// setup phase; events without a `rank` field belong to rank 0.
pub fn modeled_seconds<'a>(events: impl IntoIterator<Item = &'a Event>) -> f64 {
    let mut per_rank: BTreeMap<(String, u64), f64> = BTreeMap::new();
    for e in events {
        let phase = match e.kind.as_str() {
            "alloc" => "setup",
            "launch" | "transfer" => e.str_field("phase"),
            _ => continue,
        };
        *per_rank
            .entry((phase.to_string(), e.u64_field("rank")))
            .or_default() += e.f64_field("seconds");
    }
    let mut per_phase: BTreeMap<String, f64> = BTreeMap::new();
    for ((phase, _), seconds) in per_rank {
        let slot = per_phase.entry(phase).or_default();
        *slot = slot.max(seconds);
    }
    per_phase.values().sum()
}

/// Whether an event marks the end of a unit of work that wall time can be
/// charged to. Besides the data-plane events this takes in the session's
/// bookkeeping: a `hist` event ends the per-DPU histogram of the launch
/// before it, a `chunk` event ends a chunk's counters, and a `reservoir`
/// event ends the decoding of the headers the gather before it fetched.
/// Only `phase` changes mark no work.
fn is_charged(e: &Event) -> bool {
    matches!(
        e.kind.as_str(),
        "alloc" | "host" | "transfer" | "launch" | "hist" | "chunk" | "reservoir"
    )
}

/// One call's wall time split over its events.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// `(event index, seconds, start)`: each charged event gets the wall
    /// time since the previous charged event, or since the call started.
    pub charges: Vec<(usize, f64, Instant)>,
    /// Wall time after the last charged event, up to the call's end.
    pub tail: f64,
}

/// Splits the wall time of a call running from `start` to `end` over the
/// stamped `events` it emitted. Events that mark no work are not charged
/// and do not restart the clock.
pub fn attribute(start: Instant, end: Instant, events: &[Stamped]) -> Attribution {
    let mut charges = Vec::new();
    let mut last = start;
    for (i, s) in events.iter().enumerate() {
        let Some(at) = s.at else { continue };
        if is_charged(&s.event) {
            charges.push((i, at.saturating_duration_since(last).as_secs_f64(), last));
            last = last.max(at);
        }
    }
    Attribution {
        charges,
        tail: end.saturating_duration_since(last).as_secs_f64(),
    }
}

/// Which session call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// Sizing the banks with `pim_tc::host::dpu_loads`.
    Size,
    /// `TcSession::start_cluster_metered`.
    Start,
    /// `TcSession::append`.
    Append,
    /// `TcSession::count`.
    Count,
}

impl CallKind {
    fn name(self) -> &'static str {
        match self {
            CallKind::Size => "size",
            CallKind::Start => "start",
            CallKind::Append => "append",
            CallKind::Count => "count",
        }
    }

    /// What the wall time after a call's last charged event is spent on:
    /// sizing emits no events at all, a start reads the bank headers it
    /// just pushed back, a count decodes the gathered headers and corrects
    /// the estimate, and an append has nothing left to do.
    fn tail_name(self) -> &'static str {
        match self {
            CallKind::Size => "dpu_loads",
            CallKind::Start => "verify",
            CallKind::Append => "unattributed",
            CallKind::Count => "correction",
        }
    }
}

/// One timed session call and the events it emitted.
pub struct Call {
    /// Which call.
    pub kind: CallKind,
    /// Wall-clock start.
    pub start: Instant,
    /// Wall-clock end.
    pub end: Instant,
    /// The stamped events the call emitted, in order.
    pub events: Vec<Stamped>,
}

/// Times the calls of one session. When stamping, it keeps each call with
/// the events it emitted.
pub struct CallLog {
    rec: Recorder,
    calls: Vec<Call>,
}

impl CallLog {
    /// Attaches a [`Recorder`] to `hub`.
    pub fn new(hub: &MetricsHub, stamp: bool) -> CallLog {
        CallLog {
            rec: Recorder::attach(hub, stamp),
            calls: Vec::new(),
        }
    }

    /// Runs `f` as one call of `kind`; returns its value and wall seconds.
    pub fn time<T>(&mut self, kind: CallKind, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.rec.log.lock().expect("recorder poisoned").len();
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if self.rec.stamp {
            let events = self.rec.log.lock().expect("recorder poisoned")[before..].to_vec();
            self.calls.push(Call {
                kind,
                start,
                end,
                events,
            });
        }
        (value, end.duration_since(start).as_secs_f64())
    }

    /// [`modeled_seconds`] over every event so far.
    pub fn modeled_s(&self) -> f64 {
        let log = self.rec.log.lock().expect("recorder poisoned");
        modeled_seconds(log.iter().map(|s| &s.event))
    }

    /// Folds the recorded calls into `layers` and adds them to `spans`
    /// under `parent`.
    pub fn record_into(&self, layers: &mut Layers, spans: &mut Spans, parent: u64) {
        for call in &self.calls {
            let att = layers.add(call);
            spans.push_call(parent, call, &att);
        }
    }
}

/// Per-kernel sums.
#[derive(Default)]
struct KernelAgg {
    wall_s: f64,
    launches: u64,
    instructions: u64,
    sum_max_cycles: f64,
    sum_mean_cycles: f64,
    cycles_by_rank: BTreeMap<u64, u64>,
    modeled_by_rank: BTreeMap<u64, f64>,
}

/// Nearest-rank 99th percentile of unsorted `values` (0 when empty).
fn p99(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    crate::stats::percentile(&v, 99.0)
}

/// Kernels the per-layer report names, whether or not a workload runs
/// them (a workload that skips one reports zeros).
const KERNELS: [&str; 5] = ["receive", "remap", "sort", "index", "count"];

/// Layer totals over the traced calls of a run.
#[derive(Default)]
pub struct Layers {
    route_s: f64,
    route_edges: u64,
    routed_keys: u64,
    offered: u64,
    kept: u64,
    charged_by_rank: BTreeMap<u64, f64>,
    push_s: f64,
    push_ops: u64,
    push_bytes: u64,
    gather_s: f64,
    gather_bytes: u64,
    retries: u64,
    accounting_s: f64,
    kernels: BTreeMap<String, KernelAgg>,
    correction_s: f64,
    size_s: Vec<f64>,
    start_s: Vec<f64>,
    mg_entries: u64,
    reservoir_max_fill: f64,
    /// Share of each append's wall time after its last charged event.
    unattributed: Vec<f64>,
}

impl Layers {
    /// Folds one call into the totals and returns its attribution.
    pub fn add(&mut self, call: &Call) -> Attribution {
        let att = attribute(call.start, call.end, &call.events);
        for &(i, wall, _) in &att.charges {
            let e = &call.events[i].event;
            let rank = e.u64_field("rank");
            match e.kind.as_str() {
                "host" if e.str_field("label") == "route_edges" => {
                    self.route_s += wall;
                    *self.charged_by_rank.entry(rank).or_default() += e.f64_field("seconds");
                }
                "host" if e.str_field("label").starts_with("retry:") => self.retries += 1,
                "transfer" if e.str_field("op") == "gather" => {
                    self.gather_s += wall;
                    self.gather_bytes += e.u64_field("bytes");
                }
                "reservoir" => self.gather_s += wall,
                "hist" | "chunk" => self.accounting_s += wall,
                "transfer" => {
                    self.push_s += wall;
                    self.push_ops += 1;
                    self.push_bytes += e.u64_field("bytes");
                }
                "launch" => {
                    let k = self
                        .kernels
                        .entry(e.str_field("label").to_string())
                        .or_default();
                    k.wall_s += wall;
                    k.launches += 1;
                    k.instructions += e.u64_field("instructions");
                    k.sum_max_cycles += e.u64_field("max_cycles") as f64;
                    k.sum_mean_cycles += e.f64_field("mean_cycles");
                    *k.cycles_by_rank.entry(rank).or_default() += e.u64_field("max_cycles");
                    *k.modeled_by_rank.entry(rank).or_default() += e.f64_field("seconds");
                }
                _ => {}
            }
        }
        for s in &call.events {
            let e = &s.event;
            match e.kind.as_str() {
                "chunk" => {
                    self.route_edges += e.u64_field("edges");
                    self.routed_keys += e.u64_field("routed") / 8;
                    self.offered += e.u64_field("offered");
                    self.kept += e.u64_field("kept");
                    self.mg_entries = self.mg_entries.max(e.u64_field("mg_summary"));
                }
                "reservoir" => {
                    self.reservoir_max_fill = self.reservoir_max_fill.max(e.f64_field("max_fill"))
                }
                _ => {}
            }
        }
        let wall = call.end.saturating_duration_since(call.start).as_secs_f64();
        match call.kind {
            CallKind::Count => self.correction_s += att.tail,
            CallKind::Size => self.size_s.push(wall),
            // The tail of a start reads the freshly pushed bank headers
            // back; it stays inside `session.start_s`.
            CallKind::Start => self.start_s.push(wall),
            CallKind::Append if wall > 0.0 => self.unattributed.push(att.tail / wall),
            CallKind::Append => {}
        }
        att
    }

    /// The per-layer metrics, with sums divided by `units` (traced reps
    /// or streams) so that runs of different lengths compare.
    pub fn metrics(&self, units: f64) -> Vec<Metric> {
        let per = |x: f64| if units > 0.0 { x / units } else { 0.0 };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let max_rank = |m: &BTreeMap<u64, f64>| m.values().copied().fold(0.0, f64::max);
        let mut out = vec![
            Metric::new("host.route_s", per(self.route_s), "s"),
            Metric::new(
                "host.route_eps",
                ratio(self.route_edges as f64, self.route_s),
                "edges/s",
            ),
            Metric::new("host.routed_keys", per(self.routed_keys as f64), "count"),
            Metric::new(
                "host.kept_frac",
                ratio(self.kept as f64, self.offered as f64),
                "ratio",
            ),
            Metric::new(
                "host.charged_modeled_s",
                per(max_rank(&self.charged_by_rank)),
                "s",
            ),
            Metric::new("sim.push_s", per(self.push_s), "s"),
            Metric::new("sim.push_ops", per(self.push_ops as f64), "count"),
            Metric::new("sim.push_bytes", per(self.push_bytes as f64), "bytes"),
            Metric::new("sim.gather_s", per(self.gather_s), "s"),
            Metric::new("sim.gather_bytes", per(self.gather_bytes as f64), "bytes"),
            Metric::new("sim.retries", per(self.retries as f64), "count"),
        ];
        let empty = KernelAgg::default();
        for name in KERNELS {
            let k = self.kernels.get(name).unwrap_or(&empty);
            let cycles = k.cycles_by_rank.values().copied().max().unwrap_or(0);
            out.extend([
                Metric::new(&format!("kernel.{name}.wall_s"), per(k.wall_s), "s"),
                Metric::new(
                    &format!("kernel.{name}.launches"),
                    per(k.launches as f64),
                    "count",
                ),
                Metric::new(
                    &format!("kernel.{name}.cycles"),
                    per(cycles as f64),
                    "cycles",
                ),
                Metric::new(
                    &format!("kernel.{name}.modeled_s"),
                    per(max_rank(&k.modeled_by_rank)),
                    "s",
                ),
                Metric::new(
                    &format!("kernel.{name}.imbalance"),
                    ratio(k.sum_max_cycles, k.sum_mean_cycles),
                    "ratio",
                ),
                Metric::new(
                    &format!("kernel.{name}.instr_per_s"),
                    ratio(k.instructions as f64, k.wall_s),
                    "instr/s",
                ),
            ]);
        }
        out.extend([
            Metric::new("accounting.s", per(self.accounting_s), "s"),
            Metric::new("correction.s", per(self.correction_s), "s"),
            Metric::new("session.size_s", crate::stats::median(&self.size_s), "s"),
            Metric::new("session.start_s", crate::stats::median(&self.start_s), "s"),
            Metric::new("stream.mg_entries", self.mg_entries as f64, "count"),
            Metric::new(
                "stream.reservoir_max_fill",
                self.reservoir_max_fill,
                "ratio",
            ),
            // p99 rather than the maximum: over thousands of microsecond
            // appends one interrupt would decide the maximum.
            Metric::new("unattributed_frac", p99(&self.unattributed), "ratio"),
        ]);
        out
    }
}

/// Per-layer metrics of a traced run as a whole: the sampled estimate's
/// error, what tracing cost, and what the hardened pipeline costs.
pub fn run_metrics(
    rel_err: f64,
    trace_overhead_frac: f64,
    hardened_overhead_frac: f64,
) -> [Metric; 3] {
    [
        Metric::new("stream.rel_err", rel_err, "ratio"),
        Metric::new("metrics.trace_overhead_frac", trace_overhead_frac, "ratio"),
        Metric::new(
            "hardened.append_overhead_frac",
            hardened_overhead_frac,
            "ratio",
        ),
    ]
}

/// One span of the trace tree.
struct Span {
    parent: u64,
    name: String,
    start: Instant,
    dur: f64,
}

/// Spans kept in memory during a run, written out as JSONL at its end.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty tree whose times are measured from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Adds a span and returns its id (ids start at 1; parent 0 is the
    /// root).
    pub fn push(&mut self, parent: u64, name: &str, start: Instant, end: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start,
            dur: end.saturating_duration_since(start).as_secs_f64(),
        });
        id
    }

    /// Sets the end of span `id`.
    pub fn end(&mut self, id: u64, at: Instant) {
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.dur = at.saturating_duration_since(s.start).as_secs_f64();
        }
    }

    /// Adds a call span under `parent` with one child per charged event
    /// and one for the tail.
    pub fn push_call(&mut self, parent: u64, call: &Call, att: &Attribution) {
        let id = self.push(parent, call.kind.name(), call.start, call.end);
        let mut last = call.start;
        for &(i, wall, start) in &att.charges {
            let e = &call.events[i].event;
            let detail = match e.kind.as_str() {
                "transfer" => e.str_field("op"),
                _ => e.str_field("label"),
            };
            let name = if detail.is_empty() {
                e.kind.clone()
            } else {
                format!("{}:{detail}", e.kind)
            };
            let end = start + std::time::Duration::from_secs_f64(wall);
            self.push(id, &name, start, end);
            last = end;
        }
        self.push(id, call.kind.tail_name(), last, call.end);
    }

    /// Writes one JSON object per span:
    /// `{"id","parent","name","start_us","dur_us"}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in (1..).zip(&self.spans) {
            let start_us = s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                id,
                s.parent,
                serde_json::to_string(&s.name).expect("string serializes"),
                start_us,
                s.dur * 1e6
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_metrics::FieldValue;
    use std::time::Duration;

    fn ev(kind: &str, fields: &[(&str, FieldValue)]) -> Event {
        Event {
            seq: 0,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    fn s(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }

    fn at(base: Instant, ms: u64) -> Option<Instant> {
        Some(base + Duration::from_millis(ms))
    }

    #[test]
    fn attribution_charges_each_event_the_time_since_the_previous_one() {
        let t0 = Instant::now();
        let events = vec![
            // A phase change marks no work: it neither takes a charge nor
            // restarts the clock.
            Stamped {
                at: at(t0, 10),
                event: ev("phase", &[("to", s("sample_creation"))]),
            },
            Stamped {
                at: at(t0, 30),
                event: ev("host", &[("label", s("route_edges"))]),
            },
            Stamped {
                at: at(t0, 50),
                event: ev("transfer", &[("op", s("push"))]),
            },
            Stamped {
                at: at(t0, 90),
                event: ev("launch", &[("label", s("receive"))]),
            },
            Stamped {
                at: at(t0, 95),
                event: ev("hist", &[("label", s("receive"))]),
            },
            Stamped {
                at: at(t0, 110),
                event: ev("launch", &[("label", s("receive"))]),
            },
            Stamped {
                at: at(t0, 112),
                event: ev("chunk", &[]),
            },
        ];
        let att = attribute(t0, t0 + Duration::from_millis(120), &events);
        let charged: Vec<(usize, u64)> = att
            .charges
            .iter()
            .map(|&(i, w, _)| (i, (w * 1e3).round() as u64))
            .collect();
        assert_eq!(
            charged,
            vec![(1, 30), (2, 20), (3, 40), (4, 5), (5, 15), (6, 2)]
        );
        assert!((att.tail - 0.008).abs() < 1e-9);
        let total: f64 = att.charges.iter().map(|c| c.1).sum::<f64>() + att.tail;
        assert!((total - 0.120).abs() < 1e-9, "charges cover the call");
    }

    #[test]
    fn layers_sort_charges_by_layer_and_take_count_tails_as_correction() {
        let t0 = Instant::now();
        let mut layers = Layers::default();
        let append = Call {
            kind: CallKind::Append,
            start: t0,
            end: t0 + Duration::from_millis(100),
            events: vec![
                Stamped {
                    at: at(t0, 40),
                    event: ev(
                        "host",
                        &[
                            ("label", s("route_edges")),
                            ("seconds", FieldValue::F64(0.04)),
                        ],
                    ),
                },
                Stamped {
                    at: at(t0, 90),
                    event: ev(
                        "transfer",
                        &[("op", s("push")), ("bytes", FieldValue::U64(4096))],
                    ),
                },
            ],
        };
        let count = Call {
            kind: CallKind::Count,
            start: t0 + Duration::from_millis(100),
            end: t0 + Duration::from_millis(200),
            events: vec![
                Stamped {
                    at: at(t0, 160),
                    event: ev(
                        "launch",
                        &[
                            ("label", s("count")),
                            ("max_cycles", FieldValue::U64(300)),
                            ("mean_cycles", FieldValue::F64(200.0)),
                            ("instructions", FieldValue::U64(6000)),
                            ("seconds", FieldValue::F64(0.5)),
                        ],
                    ),
                },
                Stamped {
                    at: at(t0, 170),
                    event: ev("hist", &[("label", s("count"))]),
                },
                Stamped {
                    at: at(t0, 180),
                    event: ev(
                        "transfer",
                        &[("op", s("gather")), ("bytes", FieldValue::U64(64))],
                    ),
                },
            ],
        };
        layers.add(&append);
        layers.add(&count);
        let m: BTreeMap<String, f64> = layers
            .metrics(1.0)
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        let near = |k: &str, v: f64| assert!((m[k] - v).abs() < 1e-9, "{k} = {}", m[k]);
        near("host.route_s", 0.040);
        near("host.charged_modeled_s", 0.04);
        near("sim.push_s", 0.050);
        near("sim.push_bytes", 4096.0);
        near("kernel.count.wall_s", 0.060);
        near("kernel.count.imbalance", 1.5);
        near("kernel.count.instr_per_s", 100_000.0);
        near("kernel.count.modeled_s", 0.5);
        near("accounting.s", 0.010);
        near("sim.gather_s", 0.010);
        near("correction.s", 0.020);
        near("unattributed_frac", 0.1);
        near("kernel.remap.launches", 0.0);
    }

    #[test]
    fn modeled_fold_skips_host_spans_and_takes_the_slowest_rank_per_phase() {
        let mut events = Vec::new();
        for rank in 0..4u64 {
            let r = ("rank", FieldValue::U64(rank));
            let secs = |x: f64| ("seconds", FieldValue::F64(x));
            events.push(ev("alloc", &[r.clone(), secs(0.5)]));
            // Host work is charged once per rank: excluded entirely.
            events.push(ev(
                "host",
                &[("phase", s("sample_creation")), r.clone(), secs(9.0)],
            ));
            events.push(ev(
                "transfer",
                &[
                    ("phase", s("sample_creation")),
                    r.clone(),
                    secs(0.1 * (rank + 1) as f64),
                ],
            ));
            events.push(ev(
                "launch",
                &[
                    ("phase", s("triangle_count")),
                    r.clone(),
                    secs(if rank == 2 { 3.0 } else { 1.0 }),
                ],
            ));
            events.push(ev("hist", &[r, secs(100.0)]));
        }
        let modeled = modeled_seconds(events.iter());
        // setup 0.5 + sample_creation max 0.4 + triangle_count max 3.0
        assert!((modeled - 3.9).abs() < 1e-12, "{modeled}");
    }

    #[test]
    fn modeled_fold_matches_phase_times_minus_host_spans_on_a_real_run() {
        use pim_sim::{RankCluster, TimedBackend};
        use pim_tc::{ExecBackend, TcConfig, TcSession};
        let mut g = pim_graph::gen::rmat(8, 8, 0.57, 0.19, 0.19, 5);
        pim_graph::prep::preprocess(&mut g, 5);
        let config = TcConfig::builder()
            .colors(3)
            .ranks(1)
            .backend(ExecBackend::Timed)
            .build()
            .unwrap();
        let hub = Arc::new(MetricsHub::new());
        let rec = Recorder::attach(&hub, false);
        let mut session =
            TcSession::<RankCluster<TimedBackend>>::start_cluster_metered(&config, Some(hub))
                .unwrap();
        session.append(g.edges()).unwrap();
        let result = session.count().unwrap();
        let events: Vec<Event> = rec.events().into_iter().map(|s| s.event).collect();
        let host: f64 = events
            .iter()
            .filter(|e| e.kind == "host")
            .map(|e| e.f64_field("seconds"))
            .sum();
        assert!(host > 0.0, "routing is charged to the modeled clock");
        let expected = result.times.total() - host;
        let modeled = modeled_seconds(events.iter());
        assert!(
            (modeled - expected).abs() <= 1e-12 * expected.max(1.0),
            "{modeled} vs {expected}"
        );
    }
}
