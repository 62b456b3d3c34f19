#![warn(missing_docs)]

//! `pim-tc` — Triangle Counting on a (simulated) real Processing-in-Memory
//! system.
//!
//! This crate implements the algorithm of *"Accelerating Triangle Counting
//! with Real Processing-in-Memory Systems"* (IPDPS 2025) on top of the
//! [`pim_sim`] UPMEM-like simulator:
//!
//! * [`triplets`] — the color-triplet partitioning that shards the edge
//!   stream across PIM cores with zero inter-core communication (§3.1),
//! * [`host`] — the host orchestrator: multi-threaded batch creation,
//!   optional uniform sampling and Misra-Gries tracking while reading the
//!   stream, and rank-parallel transfers (§3.1–§3.2, §3.5),
//! * [`kernel`] — the DPU-side kernels: reservoir-sampled edge receipt
//!   (§3.3), high-degree remapping (§3.5), bounded-WRAM merge sort, region
//!   indexing, and the merge-based counting kernel (§3.4),
//! * [`correction`] — the statistical corrections assembling per-core
//!   counts into the final (exact or estimated) triangle count,
//! * [`dynamic`] — incremental sessions for COO-format dynamic graphs
//!   (§4.6).
//!
//! # Quick start
//!
//! ```
//! use pim_graph::gen::simple;
//! use pim_tc::{count_triangles, TcConfig};
//!
//! let graph = simple::complete(20); // K20: 1140 triangles
//! let config = TcConfig::builder().colors(3).build().unwrap();
//! let result = count_triangles(&graph, &config).unwrap();
//! assert!(result.exact);
//! assert_eq!(result.estimate.round() as u64, 1140);
//! ```

pub mod checkpoint;
pub mod config;
pub mod correction;
pub mod dynamic;
pub mod error;
pub mod host;
pub mod kernel;
pub mod planner;
pub mod result;
pub mod triplets;

pub use checkpoint::{SessionCheckpoint, CHECKPOINT_FILE, CHECKPOINT_VERSION};
pub use config::{ExecBackend, MisraGriesConfig, TcConfig, TcConfigBuilder};
pub use dynamic::{ScrubOutcome, TcSession};
pub use error::{PimTcError, TcError};
pub use kernel::count::IntersectStrategy;
pub use planner::{
    auto_ranks, max_colors, min_ranks, plan_capacity, session_footprint, CapacityPlan,
    SessionFootprint,
};
pub use result::{DpuReport, TcResult};
pub use triplets::{ColorTriplet, TripletAssignment};

use pim_graph::CooGraph;
use pim_metrics::MetricsHub;
use pim_sim::{FunctionalBackend, PimBackend, RankCluster, TimedBackend};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Counts (or estimates) the triangles of `graph` on the simulated PIM
/// system, end to end: allocation, coloring, batching, transfer, DPU
/// kernels, gathering, and statistical correction.
///
/// The run executes on the engine named by [`TcConfig::backend`]: the
/// timed simulator (modeled times, energy) or the functional
/// engine (same counts, zero clocks). `result.exact` is true iff no
/// sampling affected the run (uniform sampling disabled *and* no
/// reservoir overflowed), in which case `result.estimate` equals the true
/// count exactly.
pub fn count_triangles(graph: &CooGraph, config: &TcConfig) -> Result<TcResult, TcError> {
    count_triangles_with(graph, config, Capture::default()).map(|p| p.result)
}

/// [`count_triangles`] on a caller-chosen execution engine, ignoring
/// [`TcConfig::backend`].
///
/// Runs through a [`RankCluster`] of `B` machines sharded over
/// [`TcConfig::ranks`]; at the default `ranks = 1` the cluster is a
/// verbatim pass-through, bit-identical to driving `B` directly (pinned
/// by the `cluster_equivalence` suite).
pub fn count_triangles_in<B: PimBackend>(
    graph: &CooGraph,
    config: &TcConfig,
) -> Result<TcResult, TcError> {
    run::<B>(graph, config, Capture::default()).map(|p| p.result)
}

/// What a run records besides its result.
#[derive(Clone, Default)]
pub struct Capture {
    /// A live hub attached before the first bank is touched; every event
    /// of the run is emitted on it as it happens (`docs/OBSERVABILITY.md`).
    /// For a timeline, add a `MemorySink` to it and render its events
    /// with [`pim_sim::chrome_trace`].
    pub metrics: Option<Arc<MetricsHub>>,
}

/// Everything a run produces: the counting result plus the
/// observability capture (see `docs/OBSERVABILITY.md`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunProfile {
    /// The counting result, identical to [`count_triangles`]'s.
    pub result: TcResult,
    /// Per-DPU attribution over the whole cluster (global id order): activity
    /// counters, per-kernel cycle aggregates over every rank, bandwidth
    /// utilization.
    pub report: pim_sim::SystemReport,
    /// Each rank's own utilization report, in rank order.
    pub per_rank: Vec<pim_sim::SystemReport>,
}

/// [`count_triangles`] with a [`Capture`]: returns the result next to the
/// cluster-wide and per-rank reports.
///
/// On the functional backend the result, activity counters and metric
/// events are identical, but every time/energy figure is zero.
pub fn count_triangles_with(
    graph: &CooGraph,
    config: &TcConfig,
    capture: Capture,
) -> Result<RunProfile, TcError> {
    match config.backend {
        ExecBackend::Timed => run::<TimedBackend>(graph, config, capture),
        ExecBackend::Functional => run::<FunctionalBackend>(graph, config, capture),
    }
}

/// The one static pipeline: a cluster session of `B`, appended and counted once.
fn run<B: PimBackend>(
    graph: &CooGraph,
    config: &TcConfig,
    capture: Capture,
) -> Result<RunProfile, TcError> {
    let mut session = TcSession::<RankCluster<B>>::start_cluster_metered(config, capture.metrics)?;
    session.append(graph.edges())?;
    let result = session.count()?;
    Ok(RunProfile {
        result,
        report: session.system_report(),
        per_rank: session.rank_reports(),
    })
}
