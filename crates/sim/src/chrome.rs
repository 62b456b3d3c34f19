//! Chrome trace export, rendered from the metric event stream.
//!
//! Every operation an engine settles is emitted once, as a
//! [`pim_metrics::Event`] on the attached hub. [`chrome_trace`] draws
//! that stream as a timeline in the Chrome trace-event JSON format
//! (loadable in `chrome://tracing` or <https://ui.perfetto.dev>). A
//! `MemorySink` on the hub holds the stream of a live run; a JSONL
//! capture (`--metrics-out`) parsed with `pim_metrics::parse_jsonl`
//! renders the same trace after the fact.

use crate::phase::Phase;
use pim_metrics::Event;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The three §4.1 phases double as Chrome trace "threads" (tracks); a
/// phase's track id is its index.
const PHASE_TRACKS: [Phase; 3] = [Phase::Setup, Phase::SampleCreation, Phase::TriangleCount];

/// The event kinds on the modeled clock. Every other kind is skipped.
const CLOCK_KINDS: [&str; 6] = ["alloc", "phase", "transfer", "launch", "host", "fault"];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn str_value(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// The phase with metric name `name`, if it is one.
fn phase_named(name: &str) -> Option<(u64, Phase)> {
    let tid = PHASE_TRACKS.iter().position(|p| p.metric_name() == name)?;
    Some((tid as u64, PHASE_TRACKS[tid]))
}

/// The track of the phase an event names (Setup when it names none).
fn track(e: &Event) -> u64 {
    phase_named(e.str_field("phase")).map_or(0, |(tid, _)| tid)
}

/// The rank an event was emitted under, if any.
fn rank_of(e: &Event) -> Option<u64> {
    e.get_u64("rank")
}

/// A rank's process: `rank + 1`, or 1 for a stream without ranks.
fn pid(rank: Option<u64>) -> u64 {
    rank.map_or(1, |r| r.saturating_add(1))
}

/// The span length of `e` in µs on a clock at `clock_us`: its `seconds`,
/// or zero when those are negative or would run the clock past `f64`
/// (only a damaged stream carries either).
fn span_us(clock_us: f64, e: &Event) -> f64 {
    let dur = e.f64_field("seconds") * 1e6;
    if dur > 0.0 && (clock_us + dur).is_finite() {
        dur
    } else {
        0.0
    }
}

/// Renders a metric event stream as a Chrome trace.
///
/// Layout: one "thread" (track) per §4.1 phase, named via `"M"`
/// `thread_name` metadata. Events that carry a `rank` group under one
/// process per rank (`pid = rank + 1`, a `process_name` of `"rank r"`,
/// the rank repeated in each track's metadata); events without one sit
/// under `pid` 1. Each process runs its own modeled clock:
///
/// * `alloc`, `transfer`, `launch` and `host` events become `"X"`
///   complete spans named `allocate`, `<op>`, `kernel:<label>` and
///   `host:<label>`, on the track of their phase, at the process clock
///   before the event, with `ts`/`dur` in microseconds;
/// * `phase` and `fault` events become `"i"` instants named
///   `phase:<Phase>` and `fault:<kind>`;
/// * each launch also emits a `"C"` counter sample,
///   `dpu_utilization_pct` = 100 · mean / max cycles over the cores that
///   ran it, so load imbalance shows up as a dip in the counter track.
///
/// The summed `dur` of a process's spans equals the seconds its events
/// carry: for a stream that covers a run from allocation, that rank's
/// `PhaseTimes::total()`.
pub fn chrome_trace(events: &[Event]) -> Value {
    let clocked: Vec<&Event> = (events.iter())
        .filter(|e| CLOCK_KINDS.contains(&e.kind.as_str()))
        .collect();
    let mut ranks: BTreeSet<Option<u64>> = clocked.iter().map(|e| rank_of(e)).collect();
    if ranks.is_empty() {
        ranks.insert(None);
    }
    let mut out: Vec<Value> = Vec::new();
    for &rank in &ranks {
        let pid = Value::U64(pid(rank));
        if let Some(r) = rank {
            out.push(obj(vec![
                ("name", str_value("process_name")),
                ("ph", str_value("M")),
                ("pid", pid.clone()),
                (
                    "args",
                    obj(vec![
                        ("name", str_value(format!("rank {r}"))),
                        ("rank", Value::U64(r)),
                    ]),
                ),
            ]));
        }
        for (tid, phase) in PHASE_TRACKS.iter().enumerate() {
            let mut args = vec![("name", str_value(format!("{phase:?}")))];
            if let Some(r) = rank {
                args.push(("rank", Value::U64(r)));
            }
            out.push(obj(vec![
                ("name", str_value("thread_name")),
                ("ph", str_value("M")),
                ("pid", pid.clone()),
                ("tid", Value::U64(tid as u64)),
                ("args", obj(args)),
            ]));
        }
    }

    let mut clocks: BTreeMap<u64, f64> = BTreeMap::new();
    for e in clocked {
        let pid_of = pid(rank_of(e));
        let clock_us = clocks.entry(pid_of).or_insert(0.0);
        let pid = Value::U64(pid_of);
        let ts = Value::F64(*clock_us);
        let instant = |name: String, tid: u64| {
            vec![
                ("name", str_value(name)),
                ("ph", str_value("i")),
                ("pid", pid.clone()),
                ("tid", Value::U64(tid)),
                ("ts", ts.clone()),
                ("s", str_value("g")),
            ]
        };
        let u64_arg = |name: &'static str, field: &str| (name, Value::U64(e.u64_field(field)));
        let (name, tid, args) = match e.kind.as_str() {
            "phase" => {
                let to = e.str_field("to");
                let (tid, name) = match phase_named(to) {
                    Some((tid, phase)) => (tid, format!("{phase:?}")),
                    None => (0, to.to_string()),
                };
                out.push(obj(instant(format!("phase:{name}"), tid)));
                continue;
            }
            "fault" => {
                let mut args = vec![u64_arg("op", "op")];
                if let Some(dpu) = e.get_u64("dpu") {
                    args.push(("dpu", Value::U64(dpu)));
                }
                let mut fault = instant(format!("fault:{}", e.str_field("fault_kind")), track(e));
                fault.push(("args", obj(args)));
                out.push(obj(fault));
                continue;
            }
            "alloc" => (
                "allocate".to_string(),
                0,
                vec![u64_arg("nr_dpus", "nr_dpus")],
            ),
            "transfer" => {
                // A gather's `writes` counts the cores it read, not writes.
                let op = e.str_field("op");
                let mut args = vec![u64_arg("writes", "writes"), u64_arg("bytes", "bytes")];
                if op == "gather" {
                    args.remove(0);
                }
                (op.to_string(), track(e), args)
            }
            "launch" => (
                format!("kernel:{}", e.str_field("label")),
                track(e),
                vec![
                    u64_arg("max_cycles", "max_cycles"),
                    u64_arg("nr_dpus", "dpus"),
                    u64_arg("total_instructions", "instructions"),
                    u64_arg("total_dma_bytes", "dma_bytes"),
                ],
            ),
            _ => (format!("host:{}", e.str_field("label")), track(e), vec![]),
        };
        let dur = span_us(*clock_us, e);
        out.push(obj(vec![
            ("name", str_value(name)),
            ("ph", str_value("X")),
            ("pid", pid.clone()),
            ("tid", Value::U64(tid)),
            ("ts", ts.clone()),
            ("dur", Value::F64(dur)),
            ("args", obj(args)),
        ]));
        if e.kind == "launch" {
            // A launch no core ran (max 0) reads as full, and so does a
            // damaged mean or one rounded past the max.
            let max = e.u64_field("max_cycles") as f64;
            let pct = 100.0 * e.f64_field("mean_cycles") / max;
            let utilization = if (0.0..=100.0).contains(&pct) {
                pct
            } else {
                100.0
            };
            out.push(obj(vec![
                ("name", str_value("dpu_utilization_pct")),
                ("ph", str_value("C")),
                ("pid", pid),
                ("ts", ts),
                ("args", obj(vec![("utilization", Value::F64(utilization))])),
            ]));
        }
        *clock_us += dur;
    }
    obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", str_value("ms")),
    ])
}

/// Attaches a hub with an in-memory sink to `sys` and returns the sink.
#[cfg(test)]
pub(crate) fn metered<B: crate::PimBackend>(sys: &mut B) -> pim_metrics::MemorySink {
    let hub = std::sync::Arc::new(pim_metrics::MetricsHub::new());
    let sink = pim_metrics::MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    sys.attach_metrics(hub);
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, CostModel, FaultPlan, HostWrite, PimBackend, PimConfig, PimSystem};
    use crate::{PhaseTimes, RankCluster, TimedBackend};
    use pim_metrics::{JsonlSink, MemorySink, MetricsHub};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Drives a push, a skewed labeled launch and a gather on `sys`.
    fn drive<B: PimBackend>(sys: &mut B) {
        sys.set_phase(Phase::SampleCreation);
        let writes: Vec<HostWrite> = (0..sys.nr_dpus())
            .map(|dpu| HostWrite {
                dpu,
                offset: 0,
                data: &[0; 8],
            })
            .collect();
        sys.push(&writes).unwrap();
        sys.set_phase(Phase::TriangleCount);
        sys.execute_labeled("probe", |ctx| {
            let work = 10 * (ctx.dpu_id() as u64 + 1);
            let mut t = ctx.tasklet(0)?;
            t.charge(work);
            Ok(())
        })
        .unwrap();
        sys.gather(0, 8).unwrap();
    }

    /// A metered two-core system after [`drive`], and its stream.
    fn traced_system() -> (PimSystem, MemorySink) {
        let mut sys = PimSystem::allocate(2, PimConfig::tiny(), CostModel::default()).unwrap();
        let sink = metered(&mut sys);
        drive(&mut sys);
        (sys, sink)
    }

    /// A metered two-rank cluster of two cores per rank after [`drive`].
    fn traced_cluster() -> (RankCluster<TimedBackend>, MemorySink) {
        let spec = ClusterSpec::new(4, 0, 2);
        let mut sys =
            RankCluster::allocate_cluster(spec, PimConfig::tiny(), CostModel::default()).unwrap();
        let sink = metered(&mut sys);
        drive(&mut sys);
        (sys, sink)
    }

    fn trace_events(chrome: &Value) -> &[Value] {
        chrome.get("traceEvents").unwrap().as_array().unwrap()
    }

    fn field<'a>(e: &'a Value, key: &str) -> &'a Value {
        e.get(key).unwrap_or_else(|| panic!("no `{key}` in {e:?}"))
    }

    fn name(e: &Value) -> &str {
        field(e, "name").as_str().unwrap()
    }

    fn ph(e: &Value) -> &str {
        field(e, "ph").as_str().unwrap()
    }

    fn arg(e: &Value, key: &str) -> f64 {
        field(field(e, "args"), key).as_f64().unwrap()
    }

    /// The X spans of `pid`, in order.
    fn spans(chrome: &Value, pid: u64) -> Vec<&Value> {
        (trace_events(chrome).iter())
            .filter(|e| ph(e) == "X" && field(e, "pid").as_u64() == Some(pid))
            .collect()
    }

    /// Summed span duration of `pid`, in seconds.
    fn span_seconds(chrome: &Value, pid: u64) -> f64 {
        let us: f64 = spans(chrome, pid)
            .iter()
            .map(|e| field(e, "dur").as_f64().unwrap())
            .sum();
        us / 1e6
    }

    /// Checks what every rendered trace must hold, damaged input or not:
    /// it survives a JSON round trip, every event has a known `ph`, and
    /// each process's timestamps are finite and non-decreasing.
    fn assert_valid(chrome: &Value) {
        let text = serde_json::to_string(chrome).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(&parsed, chrome);
        let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
        for e in trace_events(chrome) {
            assert!(
                matches!(ph(e), "X" | "M" | "C" | "i"),
                "unexpected ph in {e:?}"
            );
            if ph(e) == "M" {
                continue;
            }
            let ts = field(e, "ts").as_f64().unwrap();
            let last = last_ts
                .entry(field(e, "pid").as_u64().unwrap())
                .or_insert(0.0);
            assert!(
                ts.is_finite() && ts >= *last,
                "timestamps must be monotonic"
            );
            *last = ts;
            if ph(e) == "X" {
                let dur = field(e, "dur").as_f64().unwrap();
                assert!(dur.is_finite() && dur >= 0.0);
            }
        }
    }

    #[test]
    fn empty_stream_renders_only_track_metadata() {
        let chrome = chrome_trace(&[]);
        let events = trace_events(&chrome);
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| name(e) == "thread_name" && field(e, "pid").as_u64() == Some(1)));
        // An engine without a hub emits nothing to render.
        let mut sys = PimSystem::allocate(2, PimConfig::tiny(), CostModel::default()).unwrap();
        drive(&mut sys);
        let sink = metered(&mut sys);
        assert_eq!(sink.events().len(), 1, "only the attach-time `alloc`");
    }

    #[test]
    fn rendered_trace_captures_the_pipeline() {
        let (_sys, sink) = traced_system();
        let chrome = chrome_trace(&sink.events());
        let spans = spans(&chrome, 1);
        let names: Vec<&str> = spans.iter().map(|e| name(e)).collect();
        assert_eq!(names, vec!["allocate", "push", "kernel:probe", "gather"]);
        assert_eq!(arg(spans[0], "nr_dpus"), 2.0);
        assert_eq!(
            (arg(spans[1], "writes"), arg(spans[1], "bytes")),
            (2.0, 16.0)
        );
        assert_eq!(arg(spans[3], "bytes"), 16.0);
        let instants: Vec<&str> = (trace_events(&chrome).iter())
            .filter(|e| ph(e) == "i")
            .map(name)
            .collect();
        assert_eq!(
            instants,
            vec!["phase:SampleCreation", "phase:TriangleCount"]
        );
        assert!(span_seconds(&chrome, 1) > 0.0);
    }

    #[test]
    fn kernel_events_carry_per_dpu_breakdowns() {
        let (sys, sink) = traced_system();
        let chrome = chrome_trace(&sink.events());
        let kernel = *spans(&chrome, 1)
            .iter()
            .find(|e| name(e) == "kernel:probe")
            .unwrap();
        // The per-DPU breakdown of the last launch is in the cores' own
        // counters; the span carries its totals.
        let cost = sys.cost();
        let (mut cycles, mut instr, mut dma) = (Vec::new(), Vec::new(), Vec::new());
        for id in 0..2 {
            let d = sys.dpu(id).unwrap();
            cycles.push(cost.dpu_cycles(&d.tasklet_instr, d.dma_cycles));
            instr.push(d.tasklet_instr.iter().sum::<u64>());
            dma.push(d.kernel_dma_bytes);
        }
        assert_eq!(instr, vec![10, 20]);
        assert_eq!(dma, vec![0, 0]);
        // DPU 1 charged twice the instructions, so it is the slowest.
        assert!(cycles[1] > cycles[0]);
        assert_eq!(arg(kernel, "max_cycles"), cycles[1] as f64);
        assert_eq!(arg(kernel, "nr_dpus"), 2.0);
        assert_eq!(arg(kernel, "total_instructions"), 30.0);
        assert_eq!(arg(kernel, "total_dma_bytes"), 0.0);
    }

    #[test]
    fn jsonl_stream_renders_the_same_trace() {
        // A `--metrics-out` file holds the whole timeline: the trace of a
        // parsed JSONL capture equals the one rendered live.
        let path = std::env::temp_dir().join(format!("pim_chrome_{}.jsonl", std::process::id()));
        let spec = ClusterSpec::new(4, 0, 2);
        let config = PimConfig {
            fault: Some(FaultPlan::parse("seed=4,corrupt=400000").unwrap()),
            ..PimConfig::tiny()
        };
        let mut sys =
            RankCluster::<TimedBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        let hub = Arc::new(MetricsHub::new());
        let memory = MemorySink::new();
        hub.add_sink(Box::new(memory.clone()));
        hub.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
        sys.attach_metrics(Arc::clone(&hub));
        drive(&mut sys);
        hub.flush().unwrap();
        let parsed = pim_metrics::parse_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = memory.events();
        assert!(
            events.iter().any(|e| e.kind == "fault"),
            "the plan must fire"
        );
        assert_eq!(chrome_trace(&parsed), chrome_trace(&events));
    }

    #[test]
    fn span_total_matches_phase_times() {
        // The hub attached right after allocation, so the stream (its
        // `alloc` included) accounts for all time.
        let (sys, sink) = traced_system();
        let chrome = chrome_trace(&sink.events());
        let total = sys.phase_times().total();
        assert!((span_seconds(&chrome, 1) - total).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let (sys, sink) = traced_system();
        let chrome = chrome_trace(&sink.events());
        assert_valid(&chrome);

        let counters: Vec<f64> = (trace_events(&chrome).iter())
            .filter(|e| ph(e) == "C")
            .map(|e| arg(e, "utilization"))
            .collect();
        assert!(
            !counters.is_empty(),
            "kernel launches must emit utilization counters"
        );
        assert!(counters.iter().all(|pct| (0.0..=100.0).contains(pct)));

        // Summed span durations cover the full modeled runtime.
        let total = sys.phase_times().total();
        let span_s = span_seconds(&chrome, 1);
        assert!(
            (span_s - total).abs() < 1e-9,
            "span sum {span_s} s vs total {total} s"
        );

        // All three phase tracks are named.
        let thread_names: Vec<&str> = (trace_events(&chrome).iter())
            .filter(|e| ph(e) == "M")
            .map(|e| field(e, "args").get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            thread_names,
            vec!["Setup", "SampleCreation", "TriangleCount"]
        );
    }

    #[test]
    fn cluster_chrome_trace_groups_tracks_per_rank() {
        let (sys, sink) = traced_cluster();
        let chrome = chrome_trace(&sink.events());
        assert_valid(&chrome);
        let events = trace_events(&chrome);

        // One process_name metadata event per rank, pid = rank + 1, with
        // the rank id in the metadata args.
        let process_names: Vec<(u64, &str, f64)> = events
            .iter()
            .filter(|e| name(e) == "process_name")
            .map(|e| {
                let args = field(e, "args");
                (
                    field(e, "pid").as_u64().unwrap(),
                    args.get("name").unwrap().as_str().unwrap(),
                    arg(e, "rank"),
                )
            })
            .collect();
        assert_eq!(process_names, vec![(1, "rank 0", 0.0), (2, "rank 1", 1.0)]);

        // Both ranks have kernel spans under their own pid, and each
        // rank's spans sum to its own clock.
        for (r, rank) in sys.rank_backends().iter().enumerate() {
            let pid = r as u64 + 1;
            assert!(spans(&chrome, pid)
                .iter()
                .any(|e| name(e) == "kernel:probe"));
            let total = rank.phase_times().total();
            assert!((span_seconds(&chrome, pid) - total).abs() < 1e-12);
        }
        // Track metadata carries the rank.
        let rank_tagged = events
            .iter()
            .filter(|e| name(e) == "thread_name")
            .all(|e| field(e, "args").get("rank").is_some());
        assert!(rank_tagged, "cluster tracks must carry rank metadata");

        // A stream without ranks keeps the flat layout: no rank metadata,
        // everything under pid 1.
        let (_solo, solo_sink) = traced_system();
        let solo = chrome_trace(&solo_sink.events());
        let solo_events = trace_events(&solo);
        assert!(solo_events.iter().all(|e| name(e) != "process_name"
            && field(e, "pid").as_u64() == Some(1)
            && e.get("args").and_then(|a| a.get("rank")).is_none()));
    }

    #[test]
    fn launch_counter_and_core_count_cover_live_cores_only() {
        // Op 0 kills core 1 before the launch runs; the retry runs on the
        // three survivors, with DPU 3 the slowest.
        let config = PimConfig {
            fault: Some(FaultPlan::parse("kill=1@0").unwrap()),
            ..PimConfig::tiny()
        };
        let mut sys = PimSystem::allocate(4, config, CostModel::default()).unwrap();
        let sink = metered(&mut sys);
        let skewed = |ctx: &mut crate::DpuContext<'_>| {
            let work = 100 * (ctx.dpu_id() as u64 + 1);
            ctx.tasklet(0)?.charge(work);
            Ok(())
        };
        assert!(sys.execute_labeled_masked("skewed", skewed).is_err());
        sys.execute_labeled_masked("skewed", skewed).unwrap();

        let cost = sys.cost();
        let live: Vec<f64> = [0, 2, 3]
            .iter()
            .map(|&id| {
                let d = sys.dpu(id).unwrap();
                cost.dpu_cycles(&d.tasklet_instr, d.dma_cycles) as f64
            })
            .collect();
        let mean = live.iter().sum::<f64>() / 3.0;
        let max = live.iter().copied().fold(0.0, f64::max);

        let chrome = chrome_trace(&sink.events());
        let events = trace_events(&chrome);
        let kernel = (events.iter())
            .rfind(|e| name(e) == "kernel:skewed")
            .unwrap();
        assert_eq!(arg(kernel, "nr_dpus"), 3.0);
        assert_eq!(arg(kernel, "max_cycles"), max);
        let counter = events.iter().rfind(|e| ph(e) == "C").unwrap();
        assert_eq!(arg(counter, "utilization"), 100.0 * mean / max);
        assert!(events.iter().any(|e| name(e) == "fault:kill"));
    }

    #[test]
    fn out_of_range_fields_render_a_valid_trace() {
        let line = |fields: &str| pim_metrics::Event::parse(fields).unwrap();
        let events = [
            line(
                r#"{"seq":1,"kind":"alloc","nr_dpus":2,"seconds":1e300,"rank":18446744073709551615}"#,
            ),
            line(
                r#"{"seq":2,"kind":"host","label":"x","phase":"nowhere","seconds":1e300,"rank":18446744073709551615}"#,
            ),
            line(
                r#"{"seq":3,"kind":"launch","label":"k","phase":"setup","max_cycles":0,"mean_cycles":5.0,"seconds":-1.0}"#,
            ),
            line(r#"{"seq":4,"kind":"phase","to":"elsewhere","rank":"7"}"#),
        ];
        let chrome = chrome_trace(&events);
        assert_valid(&chrome);
        let pids: BTreeSet<u64> = (trace_events(&chrome).iter())
            .map(|e| field(e, "pid").as_u64().unwrap())
            .collect();
        assert_eq!(pids, BTreeSet::from([1, u64::MAX]));
    }

    /// A recorded stream with every clock kind: a faulted two-rank run.
    fn recorded_stream() -> String {
        let spec = ClusterSpec::new(4, 0, 2);
        let config = PimConfig {
            fault: Some(FaultPlan::parse("seed=4,corrupt=400000").unwrap()),
            ..PimConfig::tiny()
        };
        let mut sys =
            RankCluster::<TimedBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        let sink = metered(&mut sys);
        drive(&mut sys);
        sys.charge_host_seconds_labeled("route_edges", 1e-6);
        let text: Vec<String> = sink.events().iter().map(|e| e.to_json_line()).collect();
        text.join("\n")
    }

    /// Tokens worth splicing in: integer and float extremes, nulls,
    /// mistyped values and field names the renderer reads.
    const SPLICES: [&str; 8] = [
        "18446744073709551615",
        "-1",
        "1e308",
        "null",
        "\"x\"",
        "\"rank\":",
        "\"seconds\":",
        "}\n{",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any damage to a recorded stream either fails to parse or
        /// renders a valid trace; neither step panics.
        #[test]
        fn mutated_streams_parse_or_render_a_valid_trace(
            edits in prop::collection::vec((any::<u64>(), 0u8..4, any::<u8>()), 1..8),
        ) {
            let mut bytes = recorded_stream().into_bytes();
            for (at, op, byte) in edits {
                let at = (at % (bytes.len() as u64 + 1)) as usize;
                match op {
                    0 => {
                        if at < bytes.len() {
                            bytes[at] = byte;
                        }
                    }
                    1 => bytes.insert(at, byte),
                    2 => {
                        if at < bytes.len() {
                            bytes.remove(at);
                        }
                    }
                    _ => {
                        let splice = SPLICES[byte as usize % SPLICES.len()].bytes();
                        bytes.splice(at..at, splice);
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(events) = pim_metrics::parse_jsonl(&text) {
                assert_valid(&chrome_trace(&events));
            }
        }
    }

    #[test]
    fn phase_times_are_the_span_totals_per_phase() {
        // Per phase, the spans on that phase's track sum to its bucket.
        let (sys, sink) = traced_system();
        let chrome = chrome_trace(&sink.events());
        let mut per_track = PhaseTimes::default();
        for e in spans(&chrome, 1) {
            let tid = field(e, "tid").as_u64().unwrap() as usize;
            per_track.add(PHASE_TRACKS[tid], field(e, "dur").as_f64().unwrap() / 1e6);
        }
        let times = sys.phase_times();
        for phase in PHASE_TRACKS {
            assert!((per_track.get(phase) - times.get(phase)).abs() < 1e-12);
        }
    }
}
