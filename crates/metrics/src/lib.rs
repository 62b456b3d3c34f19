#![warn(missing_docs)]

//! `pim-metrics` — the live metrics plane for the PIM triangle-counting
//! stack.
//!
//! The paper's evaluation (and the PrIM methodology it builds on) lives on
//! fine-grained per-phase counters; this crate makes those counters
//! observable *while* a run executes instead of only in post-hoc reports:
//!
//! * [`registry`] — a lightweight, dependency-free metrics registry:
//!   atomic [`Counter`]s, [`Gauge`]s, fixed-bucket [`Histogram`]s, and
//!   labeled families, rendered in Prometheus text exposition format.
//! * [`event`] — the structured event stream: one [`Event`] per
//!   transfer / launch / retry / fault / chunk with a monotonic sequence
//!   number, plus the [`MetricsSink`] subscriber trait and two built-in
//!   event sinks ([`MemorySink`], [`JsonlSink`]).
//! * [`hub`] — the [`MetricsHub`] gluing both together: typed emitters
//!   that update the registry *and* fan the event out to every sink under
//!   one sequence counter.
//! * [`summary`] — aggregation of a recorded stream back into totals,
//!   used by `pimtc metrics-summary` and by the equivalence tests that
//!   pin the stream's aggregates against `SystemReport`.
//! * [`exporter`] — the live telemetry plane: the one HTTP endpoint table
//!   ([`serve_http`]: `/metrics`, `/healthz`, `/trace`), an in-process
//!   server ([`MetricsServer`]) answering it from one background thread,
//!   and the in-tree Prometheus text lint ([`lint_prometheus`]).
//! * [`watchdog`] — a [`Watchdog`] polled between ops that raises
//!   structured `anomaly` events (straggler DPU, stalled progress,
//!   retry-rate spike, core/rank death) from the live registry.
//!
//! Everything the crate writes as JSON (event lines, `/healthz`) is a
//! `serde_json::Value` rendered by the vendored `serde_json`; event lines
//! are read back by a small flat-object parser that holds about one line
//! of heap. The exporter speaks just enough HTTP/1.1 over a std
//! `TcpListener`.
//!
//! See `docs/OBSERVABILITY.md` for the event schema, metric name / label
//! conventions, and the live telemetry endpoints.

pub mod event;
pub mod exporter;
pub mod hub;
pub mod registry;
pub mod summary;
pub mod watchdog;

pub use event::{Event, FieldValue, JsonlSink, MemorySink, MetricsSink};
pub use exporter::{
    lint_prometheus, serve_http, HeadTooLarge, HealthSink, HealthState, MetricsServer,
};
pub use hub::{ChunkObs, LaunchDist, LaunchObs, MetricsHub};
pub use registry::{
    nearest_rank_percentile, Counter, Gauge, Histogram, Registry, DMA_BYTES_BUCKETS,
    LAUNCH_CYCLE_BUCKETS,
};
pub use summary::{parse_jsonl, summarize, RankAgg, StreamSummary};
pub use watchdog::{Anomaly, Watchdog, WatchdogConfig};
