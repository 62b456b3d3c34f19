//! Execution tracing: an event timeline of transfers and kernel launches.
//!
//! Disabled by default (zero overhead beyond a branch); enable with
//! [`crate::PimBackend::enable_tracing`] to capture what the host did to
//! the PIM system and what each step cost. The harness and examples use
//! it to explain phase times; it is also the easiest way to see the §4.1
//! phase structure of a run at a glance via [`Trace::render`], and
//! [`Trace::to_chrome_trace`] exports the same timeline for
//! `chrome://tracing` / Perfetto.

use crate::cost::SimSeconds;
use crate::phase::Phase;
use serde::{Deserialize, Serialize};

/// One recorded simulator event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// System allocation. When tracing is enabled after allocation, this
    /// event carries all time accrued before tracing started, so the
    /// timeline always sums to the system's total modeled seconds.
    Allocate {
        /// PIM cores allocated.
        nr_dpus: usize,
        /// Modeled seconds charged.
        seconds: SimSeconds,
    },
    /// A rank-parallel CPU→PIM transfer batch.
    Push {
        /// Individual writes in the batch.
        writes: usize,
        /// Total payload bytes.
        bytes: u64,
        /// Modeled seconds charged.
        seconds: SimSeconds,
        /// Phase the cost accrued to.
        phase: Phase,
    },
    /// A rank-parallel PIM→CPU gather.
    Gather {
        /// Total payload bytes.
        bytes: u64,
        /// Modeled seconds charged.
        seconds: SimSeconds,
        /// Phase the cost accrued to.
        phase: Phase,
    },
    /// An SPMD kernel launch, with the per-DPU execution breakdown the
    /// cost model derived it from.
    Kernel {
        /// Orchestrator-assigned name for this launch (e.g. `"count"`).
        label: String,
        /// Wall cycles of the slowest DPU.
        max_cycles: u64,
        /// Modeled seconds charged (launch overhead included).
        seconds: SimSeconds,
        /// Phase the cost accrued to.
        phase: Phase,
        /// Modeled wall cycles per DPU, indexed by DPU id.
        per_dpu_cycles: Vec<u64>,
        /// Instructions executed per DPU (summed over tasklets).
        per_dpu_instructions: Vec<u64>,
        /// MRAM↔WRAM DMA traffic per DPU in bytes.
        per_dpu_dma_bytes: Vec<u64>,
    },
    /// Measured host-side work folded into the clock.
    HostWork {
        /// Orchestrator-assigned name for this span (e.g. `"route_edges"`).
        label: String,
        /// Measured seconds.
        seconds: SimSeconds,
        /// Phase the cost accrued to.
        phase: Phase,
    },
    /// The orchestrator switched phases.
    PhaseChange {
        /// New phase.
        to: Phase,
    },
    /// The fault plan injected a fault (see [`crate::fault`]). Carries no
    /// cost of its own — failed ops charge their wasted time through their
    /// regular event kinds.
    Fault {
        /// Fault class: `"transfer_fail"`, `"corrupt"`, `"launch_fail"`,
        /// or `"kill"`.
        kind: String,
        /// Operation index the fault fired at.
        op: u64,
        /// Affected DPU, when the fault targets one.
        dpu: Option<usize>,
        /// Phase the faulted operation ran in.
        phase: Phase,
    },
}

impl TraceEvent {
    /// Seconds this event contributed to the clock (0 for phase changes).
    pub fn seconds(&self) -> SimSeconds {
        match self {
            TraceEvent::Allocate { seconds, .. }
            | TraceEvent::Push { seconds, .. }
            | TraceEvent::Gather { seconds, .. }
            | TraceEvent::Kernel { seconds, .. }
            | TraceEvent::HostWork { seconds, .. } => *seconds,
            TraceEvent::PhaseChange { .. } | TraceEvent::Fault { .. } => 0.0,
        }
    }

    /// Phase this event's cost accrued to. Allocation always bills Setup;
    /// phase changes carry no cost and report the phase they switch *to*.
    pub fn phase(&self) -> Phase {
        match self {
            TraceEvent::Allocate { .. } => Phase::Setup,
            TraceEvent::Push { phase, .. }
            | TraceEvent::Gather { phase, .. }
            | TraceEvent::Kernel { phase, .. }
            | TraceEvent::HostWork { phase, .. }
            | TraceEvent::Fault { phase, .. } => *phase,
            TraceEvent::PhaseChange { to } => *to,
        }
    }
}

/// A recorded event timeline.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

/// The three §4.1 phases double as Chrome trace "threads" (tracks).
const PHASE_TRACKS: [(Phase, u64); 3] = [
    (Phase::Setup, 0),
    (Phase::SampleCreation, 1),
    (Phase::TriangleCount, 2),
];

fn phase_track(phase: Phase) -> u64 {
    PHASE_TRACKS
        .iter()
        .find(|(p, _)| *p == phase)
        .map(|(_, tid)| *tid)
        .unwrap_or(0)
}

fn obj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Trace {
    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total modeled seconds across recorded events.
    pub fn total_seconds(&self) -> SimSeconds {
        self.events.iter().map(TraceEvent::seconds).sum()
    }

    /// Renders a human-readable timeline.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut clock = 0.0f64;
        for e in &self.events {
            clock += e.seconds();
            let _ = match e {
                TraceEvent::Allocate { nr_dpus, seconds } => writeln!(
                    out,
                    "[{clock:>10.6}s] allocate {nr_dpus} DPUs (+{seconds:.6}s)"
                ),
                TraceEvent::Push { writes, bytes, seconds, phase } => writeln!(
                    out,
                    "[{clock:>10.6}s] push {writes} writes / {bytes} B (+{seconds:.6}s) [{phase:?}]"
                ),
                TraceEvent::Gather { bytes, seconds, phase } => writeln!(
                    out,
                    "[{clock:>10.6}s] gather {bytes} B (+{seconds:.6}s) [{phase:?}]"
                ),
                TraceEvent::Kernel { label, max_cycles, seconds, phase, .. } => writeln!(
                    out,
                    "[{clock:>10.6}s] kernel `{label}` max {max_cycles} cycles (+{seconds:.6}s) [{phase:?}]"
                ),
                TraceEvent::HostWork { label, seconds, phase } => writeln!(
                    out,
                    "[{clock:>10.6}s] host `{label}` (+{seconds:.6}s) [{phase:?}]"
                ),
                TraceEvent::PhaseChange { to } => {
                    writeln!(out, "[{clock:>10.6}s] --- phase: {to:?} ---")
                }
                TraceEvent::Fault { kind, op, dpu, phase } => match dpu {
                    Some(d) => writeln!(
                        out,
                        "[{clock:>10.6}s] !! fault `{kind}` op {op} dpu {d} [{phase:?}]"
                    ),
                    None => {
                        writeln!(out, "[{clock:>10.6}s] !! fault `{kind}` op {op} [{phase:?}]")
                    }
                },
            };
        }
        out
    }

    /// Exports the timeline in the Chrome trace-event JSON format
    /// (loadable in `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Layout: one "thread" (track) per §4.1 phase, named via `"M"`
    /// metadata events. Each timed event becomes an `"X"` complete span on
    /// its phase's track at the cumulative modeled clock, with `ts`/`dur`
    /// in microseconds; phase changes become `"i"` instants; each kernel
    /// launch additionally emits a `"C"` counter sample of DPU utilization
    /// (mean over max per-DPU cycles, in percent) so load imbalance shows
    /// up as a dip in the counter track. The summed `dur` of all spans
    /// equals [`Trace::total_seconds`] (and, when tracing covered the whole
    /// run, the system's `PhaseTimes::total()`) scaled to microseconds.
    pub fn to_chrome_trace(&self) -> serde_json::Value {
        use serde_json::Value;
        let mut events: Vec<Value> = Vec::new();
        self.append_chrome_events(1, None, &mut events);
        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
        ])
    }

    /// Appends this timeline's Chrome trace events under process `pid`.
    /// When `rank` is set, the per-phase track metadata additionally
    /// carries the rank id (used by [`to_chrome_trace_cluster`]).
    fn append_chrome_events(
        &self,
        pid: u64,
        rank: Option<u64>,
        events: &mut Vec<serde_json::Value>,
    ) {
        use serde_json::Value;
        for (phase, tid) in PHASE_TRACKS {
            let mut args = vec![("name", Value::Str(format!("{phase:?}")))];
            if let Some(r) = rank {
                args.push(("rank", Value::U64(r)));
            }
            events.push(obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(tid)),
                ("args", obj(args)),
            ]));
        }

        let mut clock_us = 0.0f64;
        for e in &self.events {
            let dur_us = e.seconds() * 1e6;
            let tid = phase_track(e.phase());
            let (name, args) = match e {
                TraceEvent::Allocate { nr_dpus, .. } => (
                    "allocate".to_string(),
                    vec![("nr_dpus", Value::U64(*nr_dpus as u64))],
                ),
                TraceEvent::Push { writes, bytes, .. } => (
                    "push".to_string(),
                    vec![
                        ("writes", Value::U64(*writes as u64)),
                        ("bytes", Value::U64(*bytes)),
                    ],
                ),
                TraceEvent::Gather { bytes, .. } => {
                    ("gather".to_string(), vec![("bytes", Value::U64(*bytes))])
                }
                TraceEvent::Kernel {
                    label,
                    max_cycles,
                    per_dpu_cycles,
                    per_dpu_instructions,
                    per_dpu_dma_bytes,
                    ..
                } => (
                    format!("kernel:{label}"),
                    vec![
                        ("max_cycles", Value::U64(*max_cycles)),
                        ("nr_dpus", Value::U64(per_dpu_cycles.len() as u64)),
                        (
                            "total_instructions",
                            Value::U64(per_dpu_instructions.iter().sum()),
                        ),
                        (
                            "total_dma_bytes",
                            Value::U64(per_dpu_dma_bytes.iter().sum()),
                        ),
                    ],
                ),
                TraceEvent::HostWork { label, .. } => (format!("host:{label}"), vec![]),
                TraceEvent::PhaseChange { to } => {
                    events.push(obj(vec![
                        ("name", Value::Str(format!("phase:{to:?}"))),
                        ("ph", Value::Str("i".into())),
                        ("pid", Value::U64(pid)),
                        ("tid", Value::U64(tid)),
                        ("ts", Value::F64(clock_us)),
                        ("s", Value::Str("g".into())),
                    ]));
                    continue;
                }
                TraceEvent::Fault { kind, op, dpu, .. } => {
                    let mut args = vec![("op", Value::U64(*op))];
                    if let Some(d) = dpu {
                        args.push(("dpu", Value::U64(*d as u64)));
                    }
                    events.push(obj(vec![
                        ("name", Value::Str(format!("fault:{kind}"))),
                        ("ph", Value::Str("i".into())),
                        ("pid", Value::U64(pid)),
                        ("tid", Value::U64(tid)),
                        ("ts", Value::F64(clock_us)),
                        ("s", Value::Str("g".into())),
                        ("args", obj(args)),
                    ]));
                    continue;
                }
            };
            events.push(obj(vec![
                ("name", Value::Str(name)),
                ("ph", Value::Str("X".into())),
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(tid)),
                ("ts", Value::F64(clock_us)),
                ("dur", Value::F64(dur_us)),
                ("args", obj(args)),
            ]));
            if let TraceEvent::Kernel {
                per_dpu_cycles,
                max_cycles,
                ..
            } = e
            {
                let utilization = if *max_cycles == 0 || per_dpu_cycles.is_empty() {
                    100.0
                } else {
                    let mean =
                        per_dpu_cycles.iter().sum::<u64>() as f64 / per_dpu_cycles.len() as f64;
                    100.0 * mean / *max_cycles as f64
                };
                events.push(obj(vec![
                    ("name", Value::Str("dpu_utilization_pct".into())),
                    ("ph", Value::Str("C".into())),
                    ("pid", Value::U64(pid)),
                    ("ts", Value::F64(clock_us)),
                    ("args", obj(vec![("utilization", Value::F64(utilization))])),
                ]));
            }
            clock_us += dur_us;
        }
    }
}

/// Exports several ranks' timelines as one Chrome trace, grouping each
/// rank's per-phase tracks under its own process (`pid = rank + 1`, named
/// `"rank N"` via `process_name` metadata, with the rank id repeated in
/// every track's metadata args). This keeps an R>1 cluster trace readable:
/// tracks are grouped per rank instead of flattened into one process with
/// global ids.
pub fn to_chrome_trace_cluster(traces: &[&Trace]) -> serde_json::Value {
    use serde_json::Value;
    let mut events: Vec<Value> = Vec::new();
    for (r, trace) in traces.iter().enumerate() {
        let pid = r as u64 + 1;
        events.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(pid)),
            (
                "args",
                obj(vec![
                    ("name", Value::Str(format!("rank {r}"))),
                    ("rank", Value::U64(r as u64)),
                ]),
            ),
        ]));
        trace.append_chrome_events(pid, Some(r as u64), &mut events);
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, HostWrite, PimBackend, PimConfig, PimSystem};

    fn traced_system() -> PimSystem {
        let mut sys = PimSystem::allocate(2, PimConfig::tiny(), CostModel::default()).unwrap();
        sys.enable_tracing();
        sys.set_phase(crate::Phase::SampleCreation);
        sys.push(vec![
            HostWrite {
                dpu: 0,
                offset: 0,
                data: vec![0; 8],
            },
            HostWrite {
                dpu: 1,
                offset: 0,
                data: vec![0; 8],
            },
        ])
        .unwrap();
        sys.set_phase(crate::Phase::TriangleCount);
        sys.execute_labeled("probe", |ctx| {
            let work = 10 * (ctx.dpu_id() as u64 + 1);
            let mut t = ctx.tasklet(0)?;
            t.charge(work);
            Ok(())
        })
        .unwrap();
        sys.gather(0, 8).unwrap();
        sys
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut sys = PimSystem::allocate(2, PimConfig::tiny(), CostModel::default()).unwrap();
        sys.push(vec![HostWrite {
            dpu: 0,
            offset: 0,
            data: vec![0; 8],
        }])
        .unwrap();
        assert!(sys.trace().events().is_empty());
    }

    #[test]
    fn enabled_trace_captures_the_pipeline() {
        let sys = traced_system();
        let events = sys.trace().events();
        // enable_tracing() backfills the pre-enable Setup time.
        assert!(matches!(events[0], TraceEvent::Allocate { nr_dpus: 2, .. }));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Push {
                bytes: 16,
                writes: 2,
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Kernel { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Gather { .. })));
        // Rendered timeline mentions each step.
        let rendered = sys.trace().render();
        assert!(rendered.contains("push"));
        assert!(rendered.contains("kernel `probe`"));
        assert!(rendered.contains("gather"));
        assert!(sys.trace().total_seconds() > 0.0);
    }

    #[test]
    fn kernel_events_carry_per_dpu_breakdowns() {
        let sys = traced_system();
        let kernel = sys
            .trace()
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Kernel {
                    label,
                    per_dpu_cycles,
                    per_dpu_instructions,
                    per_dpu_dma_bytes,
                    max_cycles,
                    ..
                } => Some((
                    label,
                    per_dpu_cycles,
                    per_dpu_instructions,
                    per_dpu_dma_bytes,
                    max_cycles,
                )),
                _ => None,
            })
            .unwrap();
        let (label, cycles, instr, dma, max_cycles) = kernel;
        assert_eq!(label, "probe");
        assert_eq!(instr, &vec![10, 20]);
        assert_eq!(dma, &vec![0, 0]);
        assert_eq!(cycles.len(), 2);
        // DPU 1 charged twice the instructions, so it is the slowest.
        assert!(cycles[1] > cycles[0]);
        assert_eq!(*max_cycles, cycles[1]);
    }

    #[test]
    fn trace_serde_round_trips() {
        let sys = traced_system();
        let trace = sys.trace().clone();
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn trace_total_matches_phase_times() {
        let sys = traced_system();
        // Tracing was enabled right after allocation, so the timeline
        // (including the backfilled Allocate) accounts for all time.
        let total = sys.phase_times().total();
        assert!((sys.trace().total_seconds() - total).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let sys = traced_system();
        let chrome = sys.trace().to_chrome_trace();

        // Round-trips through the JSON text form.
        let text = serde_json::to_string(&chrome).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, chrome);

        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());

        let mut last_ts = f64::NEG_INFINITY;
        let mut span_dur_us = 0.0f64;
        let mut saw_counter = false;
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "X" | "M" | "C" | "i"), "unexpected ph {ph}");
            if ph == "M" {
                continue;
            }
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "timestamps must be monotonic");
            last_ts = ts;
            if ph == "X" {
                span_dur_us += ev.get("dur").unwrap().as_f64().unwrap();
            }
            if ph == "C" {
                saw_counter = true;
                let pct = ev
                    .get("args")
                    .unwrap()
                    .get("utilization")
                    .unwrap()
                    .as_f64()
                    .unwrap();
                assert!((0.0..=100.0).contains(&pct));
            }
        }
        assert!(
            saw_counter,
            "kernel launches must emit utilization counters"
        );

        // Summed span durations cover the full modeled runtime.
        let total = sys.phase_times().total();
        assert!(
            (span_dur_us / 1e6 - total).abs() < 1e-9,
            "span sum {span_dur_us} µs vs total {total} s"
        );

        // All three phase tracks are named.
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            thread_names,
            vec!["Setup", "SampleCreation", "TriangleCount"]
        );
    }

    #[test]
    fn cluster_chrome_trace_groups_tracks_per_rank() {
        let sys0 = traced_system();
        let sys1 = traced_system();
        let chrome = to_chrome_trace_cluster(&[sys0.trace(), sys1.trace()]);
        let events = chrome.get("traceEvents").unwrap().as_array().unwrap();

        // One process_name metadata event per rank, pid = rank + 1, with
        // the rank id in the metadata args.
        let process_names: Vec<(u64, &str, u64)> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_f64().unwrap() as u64,
                    e.get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("rank")
                        .unwrap()
                        .as_f64()
                        .unwrap() as u64,
                )
            })
            .collect();
        assert_eq!(process_names, vec![(1, "rank 0", 0), (2, "rank 1", 1)]);

        // Every non-metadata event lands in one of the rank processes, and
        // both ranks have kernel spans under their own pid.
        for pid in [1u64, 2] {
            assert!(events.iter().any(|e| {
                e.get("pid").unwrap().as_f64() == Some(pid as f64)
                    && e.get("name").unwrap().as_str() == Some("kernel:probe")
            }));
        }
        // Track metadata carries the rank.
        let rank_tagged = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .all(|e| e.get("args").unwrap().get("rank").is_some());
        assert!(rank_tagged, "cluster tracks must carry rank metadata");

        // The single-trace export is unchanged by the refactor: no rank
        // metadata, everything under pid 1.
        let solo = sys0.trace().to_chrome_trace();
        let solo_events = solo.get("traceEvents").unwrap().as_array().unwrap();
        assert!(solo_events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .all(|e| e.get("args").unwrap().get("rank").is_none()));
    }
}
