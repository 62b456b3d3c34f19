//! Dynamic-graph sessions (§4.6).
//!
//! COO's O(1) append is the reason the paper's PIM implementation wins on
//! dynamic workloads: new edges go straight into the per-core samples (no
//! CSR rebuild), and counting restarts on the updated samples. A
//! [`TcSession`] owns the allocated PIM system across updates:
//!
//! ```text
//! let mut s = TcSession::start(&config)?;
//! s.append(batch_1)?;  let r1 = s.count()?;   // count after update 1
//! s.append(batch_2)?;  let r2 = s.count()?;   // count after update 2
//! let final = s.finish()?;                     // last count + release
//! ```
//!
//! [`crate::count_triangles`] is simply a one-append session.

use crate::checkpoint::{BankSnapshot, SessionCheckpoint, SummarySnapshot, CHECKPOINT_VERSION};
use crate::config::TcConfig;
use crate::correction;
use crate::error::TcError;
use crate::host::{
    route_edges_into, RouteParams, RouteScratch, RoutedBatches, ROUTE_GRANULE_EDGES,
};
use crate::kernel::layout::{Header, MramLayout, HDR_REMAP_LEN, HDR_STAGE_LEN, HEADER_BYTES};
use crate::kernel::{checksum, count, edge_unkey, index, local, receive, remap, rng, sort};
use crate::result::{DpuReport, TcResult};
use crate::triplets::TripletAssignment;
use pim_graph::Edge;
use pim_metrics::{ChunkObs, MetricsHub};
use pim_sim::system::{decode_slice, encode_slice};
use pim_sim::{
    retry_backoff, ClusterSpec, HostWrite, Phase, PimBackend, RankCluster, SimError, SimResult,
    SystemReport, TimedBackend,
};
use pim_stream::{ColoringHash, JournalStep, MisraGries, PartitionJournal};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// A live PIM-TC computation: allocated cores, resident edge samples, and
/// the accumulated sampling state.
///
/// The session is generic over the execution engine: `B` is any
/// [`PimBackend`], defaulting to the cycle-accounting [`TimedBackend`].
/// [`TcSession::start`] builds a timed session;
/// [`TcSession::start_with`] picks the engine through the type parameter
/// (e.g. `TcSession::<FunctionalBackend>::start_with(&config)`). The
/// resident samples and every count are bit-identical across engines.
pub struct TcSession<B: PimBackend = TimedBackend> {
    config: TcConfig,
    assignment: TripletAssignment,
    coloring: ColoringHash,
    layout: MramLayout,
    sys: B,
    summary: Option<MisraGries>,
    /// Stable heavy-hitter assignment: old id → new id. Once assigned, an
    /// id never changes, so re-remapping resident (already rewritten)
    /// samples stays consistent across updates.
    remap_table: Vec<(u32, u32)>,
    remap_assigned: HashSet<u32>,
    next_new_id: u32,
    remap_dirty: bool,
    offered: u64,
    kept: u64,
    /// Routing granules consumed so far, across all appends: the sampling
    /// streams continue where the previous batch left off.
    route_granules: u64,
    /// High-water mark of routed edge-key bytes materialized on the host
    /// at once — the quantity the streaming `append` bounds.
    peak_routed_bytes: u64,
    /// Whether this session seals its staging slices with a digest for
    /// the checksumming receive kernel and seal-verifies its count
    /// read-backs; everything else in the
    /// pipeline is shared with plain sessions. Resolved once at start
    /// from [`TcConfig::effective_hardened`].
    hardened: bool,
    /// `partition → physical DPU` map. Starts as the identity; failover
    /// repoints a lost partition at a spare core (plain sessions have no
    /// spares, so theirs stays the identity).
    partition_home: Vec<usize>,
    /// Rank currently homing each partition. Plain (non-cluster)
    /// sessions put every partition in rank 0; cluster sessions start
    /// from [`pim_sim::ClusterSpec::rank_of_partition`]. Failover
    /// prefers the dead partition's own rank's spares, but a whole-rank
    /// outage takes its spare block down too, so recovery may re-home a
    /// partition onto another rank ([`Self::take_spare`] updates this).
    partition_rank: Vec<usize>,
    /// Physical ids of allocated-but-idle spare cores, one pool per rank,
    /// consumed from the back on failover. Single-rank sessions hold one
    /// pool — the exact pop order of the old global pool.
    spare_pools: Vec<Vec<usize>>,
    /// Edges routed to each partition so far — the completeness oracle
    /// for reconstruction: survivors must yield exactly this many edges
    /// for a lost partition, or recovery fails loudly.
    routed_per_partition: Vec<u64>,
    /// Live metrics hub shared with the backend, when the session was
    /// started metered. The session emits orchestration-level events
    /// (chunks, reservoir occupancy, failovers) on it; the backend emits
    /// transfers/launches/faults.
    metrics: Option<Arc<MetricsHub>>,
    /// Streamed chunks ingested so far (the `chunk` event index).
    chunks_done: u64,
    /// Replayable per-partition journals ([`TcConfig::journal`]): every
    /// routed key in arrival order plus remap/sort marks. A lost
    /// partition's bank — sample, stream position, and advanced RNG
    /// state — is re-derived exactly by replaying its journal through the
    /// receive kernel's reservoir rule; no survivors needed.
    journals: Option<Vec<PartitionJournal>>,
    /// Effective scrub cadence in streamed chunks (0 = off), resolved
    /// from [`TcConfig::scrub_interval`] with the fault plan's `scrub=`
    /// hook as fallback.
    scrub_every: u64,
    /// Reusable routing staging buffers: hoisted out of the per-chunk
    /// path so steady-state `append` performs no routing allocation
    /// (buffers are cleared at retained capacity between chunks).
    route_scratch: RouteScratch,
    /// Reusable routed-batch output, paired with `route_scratch`.
    routed: RoutedBatches,
}

/// Outcome of one proactive scrub sweep (see [`TcSession::scrub`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Partitions inspected.
    pub partitions: u64,
    /// Banks whose resident sample failed the seal digest and were
    /// reinstalled from the journal.
    pub repaired: u64,
    /// Dead cores detected (and failed over) by the sweep instead of by
    /// the next batch to touch them.
    pub failed_over: u64,
}

/// A partition's bank state rebuilt on the host, by journal replay or
/// from the survivors, for a replacement (or repaired) core.
struct RebuiltBank {
    /// Resident sample keys, slot for slot.
    sample: Vec<u64>,
    /// Stream position `t` (edges seen), which also carries the
    /// overflow flag (`seen > cap`).
    seen: u64,
    /// The xorshift64* state after every journaled reservoir decision.
    rng: u64,
    /// The packed remap table prefix in force at the last mark.
    remap: Vec<u64>,
    /// Remap marks applied during a replay.
    marks_applied: u64,
}

impl TcSession<TimedBackend> {
    /// Allocates the timed PIM system and initializes every core's bank
    /// (header, RNG stream, empty sample). Charged to the Setup phase.
    pub fn start(config: &TcConfig) -> Result<TcSession, TcError> {
        Self::start_with(config)
    }
}

impl<B: PimBackend> TcSession<RankCluster<B>> {
    /// Allocates a multi-rank cluster session: the triplet space is split
    /// into contiguous per-rank shards over `config.effective_ranks()`
    /// independent `B` machines (each with its own derived fault plan and
    /// its own spare pool), and the session drives them through the
    /// global-id [`RankCluster`] facade. At `ranks = 1` the cluster is a
    /// verbatim pass-through, so this path is bit-identical to
    /// [`TcSession::start_with`] on `B` directly.
    pub fn start_cluster(config: &TcConfig) -> Result<TcSession<RankCluster<B>>, TcError> {
        Self::start_cluster_metered(config, None)
    }

    /// Like [`TcSession::start_cluster`], with a live metrics hub
    /// attached before any bank is touched. Each rank emits through a
    /// rank-scoped view of the hub (`rank` label / event field); at
    /// `ranks = 1` the hub is forwarded unscoped, keeping the event
    /// stream byte-identical to a plain metered session.
    pub fn start_cluster_metered(
        config: &TcConfig,
        metrics: Option<Arc<MetricsHub>>,
    ) -> Result<TcSession<RankCluster<B>>, TcError> {
        config.validate()?;
        let partitions = config.nr_dpus();
        let spares = config.spare_dpus as usize;
        let spec = ClusterSpec::new(partitions, spares, config.effective_ranks() as usize);
        let partition_rank = (0..partitions).map(|p| spec.rank_of_partition(p)).collect();
        let spare_pools = (0..spec.ranks)
            .map(|r| spec.spare_range(r).collect())
            .collect();
        Self::assemble(
            config,
            metrics,
            |cfg| RankCluster::allocate_cluster(spec, cfg.pim, cfg.cost).map_err(TcError::Sim),
            partition_rank,
            spare_pools,
        )
    }

    /// Rebuilds a live cluster session from a verified
    /// [`SessionCheckpoint`]: a fresh cluster is allocated from the
    /// *checkpointed* configuration, then every partition's bank, the
    /// Misra-Gries summary, the sampling-stream cursors, and the RNG
    /// journals are reinstated exactly as captured. Appending the
    /// remainder of the edge stream to the restored session converges to
    /// the same final count as the uninterrupted run (pinned by the
    /// `session_fuzz` resume property).
    pub fn restore_cluster(
        snap: &SessionCheckpoint,
        metrics: Option<Arc<MetricsHub>>,
    ) -> Result<TcSession<RankCluster<B>>, TcError> {
        let mut session = Self::start_cluster_metered(&snap.config, metrics)?;
        session.install_snapshot(snap)?;
        Ok(session)
    }

    /// Ranks in the cluster.
    pub fn nr_ranks(&self) -> usize {
        self.sys.nr_ranks()
    }

    /// Each rank's own utilization report in rank order.
    pub(crate) fn rank_reports(&self) -> Vec<SystemReport> {
        self.sys
            .rank_backends()
            .iter()
            .map(SystemReport::capture)
            .collect()
    }
}

impl<B: PimBackend> TcSession<B> {
    /// Like [`TcSession::start`], on the execution engine chosen by the
    /// type parameter.
    pub fn start_with(config: &TcConfig) -> Result<TcSession<B>, TcError> {
        Self::start_metered(config, None)
    }

    /// Like [`TcSession::start_with`], with a live metrics hub attached
    /// before any bank is touched, so the event stream covers the entire
    /// session — allocation, initialization, every append and count. Both
    /// the backend (transfers, launches, faults) and the session
    /// (chunks, reservoir occupancy, failovers) emit on the hub.
    pub fn start_metered(
        config: &TcConfig,
        metrics: Option<Arc<MetricsHub>>,
    ) -> Result<TcSession<B>, TcError> {
        let nr_partitions = config.nr_dpus();
        let spares = config.spare_dpus as usize;
        Self::assemble(
            config,
            metrics,
            |cfg| B::allocate(nr_partitions + spares, cfg.pim, cfg.cost).map_err(TcError::Sim),
            vec![0; nr_partitions],
            vec![(nr_partitions..nr_partitions + spares).collect()],
        )
    }

    /// Shared tail of session construction: everything after the backend
    /// exists — bank initialization, journals, scrub cadence — is
    /// identical for plain and cluster sessions; only the allocation
    /// (`alloc`) and the rank structure (`partition_rank`, `spare_pools`)
    /// differ.
    fn assemble(
        config: &TcConfig,
        metrics: Option<Arc<MetricsHub>>,
        alloc: impl FnOnce(&TcConfig) -> Result<B, TcError>,
        partition_rank: Vec<usize>,
        spare_pools: Vec<Vec<usize>>,
    ) -> Result<TcSession<B>, TcError> {
        config.validate()?;
        let assignment = TripletAssignment::new(config.colors);
        let coloring = ColoringHash::new(config.colors, config.seed);
        let remap_cap = config.misra_gries.map(|m| m.t as u64).unwrap_or(0);
        let layout = MramLayout::compute_with_locals(
            config.pim.mram_capacity,
            config.stage_edges,
            remap_cap,
            config.local_nodes.map(u64::from).unwrap_or(0),
            config.sample_capacity,
        )?;
        let mut sys = alloc(config)?;
        if let Some(hub) = &metrics {
            sys.attach_metrics(Arc::clone(hub));
        }
        let nr_partitions = assignment.nr_dpus();
        let journals = config.journal.then(|| {
            (0..nr_partitions)
                .map(|t| PartitionJournal::new(config.seed, t as u64))
                .collect()
        });
        // Scrubbing needs the journals as ground truth; without them the
        // cadence (explicit or the fault plan's `scrub=N` hint) is inert.
        let scrub_every = if journals.is_none() {
            0
        } else if config.scrub_interval > 0 {
            config.scrub_interval
        } else {
            config.pim.fault.as_ref().and_then(|f| f.scrub).unwrap_or(0)
        };
        let mut session = TcSession {
            config: *config,
            assignment,
            coloring,
            layout,
            sys,
            summary: config.misra_gries.map(|m| MisraGries::new(m.k)),
            remap_table: Vec::new(),
            remap_assigned: HashSet::new(),
            next_new_id: u32::MAX,
            remap_dirty: false,
            offered: 0,
            kept: 0,
            route_granules: 0,
            peak_routed_bytes: 0,
            hardened: config.effective_hardened(),
            partition_home: (0..nr_partitions).collect(),
            partition_rank,
            spare_pools,
            routed_per_partition: vec![0; nr_partitions],
            metrics,
            chunks_done: 0,
            journals,
            scrub_every,
            route_scratch: RouteScratch::default(),
            routed: RoutedBatches::default(),
        };
        session.init_banks()?;
        Ok(session)
    }

    /// The number of PIM cores in use.
    pub fn nr_dpus(&self) -> usize {
        self.assignment.nr_dpus()
    }

    /// The per-core MRAM layout in effect.
    pub fn layout(&self) -> &MramLayout {
        &self.layout
    }

    /// Per-core activity/utilization report (instructions, DMA traffic,
    /// MRAM usage, imbalance).
    pub fn system_report(&self) -> pim_sim::SystemReport {
        pim_sim::SystemReport::capture(&self.sys)
    }

    /// Streams a batch of edges into the per-core samples (§3.1's batch
    /// creation + transfer, with reservoir sampling on the cores). O(1)
    /// per edge on the host side — the COO dynamic-update property.
    ///
    /// The batch is routed and transferred in bounded chunks of
    /// [`TcConfig::route_chunk_edges`] input edges (rounded up to the
    /// routing granule), so peak host memory is O(chunk × C) routed edge
    /// keys rather than O(|edges| × C). Sampling streams are keyed by
    /// global granule index, so the result — resident samples, counts,
    /// Misra-Gries summary — is identical for any chunk size.
    pub fn append(&mut self, edges: &[Edge]) -> Result<(), TcError> {
        self.sys.set_phase(Phase::SampleCreation);
        let chunk_edges = (self.config.route_chunk_edges as usize)
            .div_ceil(ROUTE_GRANULE_EDGES)
            .max(1)
            .saturating_mul(ROUTE_GRANULE_EDGES);
        for chunk in edges.chunks(chunk_edges) {
            let host_start = Instant::now();
            // Route into the session-owned scratch (taken out for the
            // duration of the chunk to satisfy the borrow checker):
            // buffers are cleared, not freed, between chunks.
            let mut routed = std::mem::take(&mut self.routed);
            let mut scratch = std::mem::take(&mut self.route_scratch);
            route_edges_into(
                chunk,
                RouteParams {
                    assignment: &self.assignment,
                    coloring: &self.coloring,
                    uniform_p: self.config.uniform_p,
                    seed: self.config.seed,
                    mg_capacity: self.config.misra_gries.map(|m| m.k),
                    threads: self.config.pim.host_threads,
                    base_granule: self.route_granules,
                },
                &mut routed,
                &mut scratch,
            );
            self.sys
                .charge_host_seconds_labeled("route_edges", host_start.elapsed().as_secs_f64());
            self.route_granules += RouteParams::granules_in(chunk.len());
            self.peak_routed_bytes = self.peak_routed_bytes.max(routed.total_routed() * 8);
            self.offered += routed.offered;
            self.kept += routed.kept;
            if let (Some(acc), Some(local)) = (self.summary.as_mut(), routed.summary.as_ref()) {
                acc.merge(local);
                self.remap_dirty = true;
            }
            if let Some(journals) = self.journals.as_mut() {
                // Journal the chunk before staging it: a failover mid-
                // stage replays the partition up to the chunk start; the
                // in-flight chunk re-stages afterwards.
                for (t, batch) in routed.per_dpu.iter().enumerate() {
                    if !batch.is_empty() {
                        journals[t].extend(batch);
                    }
                }
            }
            self.stage(&routed.per_dpu)?;
            if let Some(hub) = &self.metrics {
                hub.chunk(ChunkObs {
                    index: self.chunks_done,
                    edges: chunk.len() as u64,
                    offered: routed.offered,
                    kept: routed.kept,
                    routed_bytes: routed.total_routed() * 8,
                    peak_routed_bytes: self.peak_routed_bytes,
                    mg_summary: self
                        .summary
                        .as_ref()
                        .map(|s| s.entries().count() as u64)
                        .unwrap_or(0),
                });
            }
            self.routed = routed;
            self.route_scratch = scratch;
            self.chunks_done += 1;
            if self.scrub_every > 0 && self.chunks_done.is_multiple_of(self.scrub_every) {
                self.scrub()?;
            }
        }
        Ok(())
    }

    /// Stages one chunk's per-partition batches through the bounded
    /// staging region. Each round pushes every unfinished partition's
    /// next slice and its `stage_len` word to the partition's home core,
    /// then runs one masked receive launch over all cores.
    ///
    /// `self.hardened` picks only the payload: hardened slices hold
    /// `stage_edges − 1` keys and end in the digest the receive kernel
    /// checks in its copy pass. Retry and failover are shared:
    /// transient faults are retried, slices a kernel rejected are re-sent,
    /// and dead homes fail over. The chunk is the in-flight unit, so a
    /// partition recovered mid-chunk comes back in its state at chunk
    /// start (`routed_per_partition` advances only once the chunk has
    /// landed) and re-stages its batch from offset 0.
    fn stage(&mut self, per_dpu: &[Vec<u64>]) -> Result<(), TcError> {
        let layout = self.layout;
        let sealed = self.hardened;
        let cap = if sealed {
            (layout.stage_edges - 1).max(1)
        } else {
            layout.stage_edges
        } as usize;
        let mut landed = vec![0usize; per_dpu.len()];
        let mut failures = 0u32;
        loop {
            let mut pending = Vec::new();
            for (t, batch) in per_dpu.iter().enumerate() {
                let slice = &batch[landed[t]..batch.len().min(landed[t] + cap)];
                if slice.is_empty() {
                    continue;
                }
                let mut data = encode_slice(slice);
                if sealed {
                    data.extend_from_slice(&checksum::digest_at(0, slice).to_le_bytes());
                }
                pending.push((t, slice.len(), data, (slice.len() as u64).to_le_bytes()));
            }
            if pending.is_empty() {
                break;
            }
            let writes: Vec<HostWrite> = (pending.iter())
                .flat_map(|(t, _, data, len)| {
                    let dpu = self.partition_home[*t];
                    [
                        HostWrite {
                            dpu,
                            offset: layout.staging_off,
                            data,
                        },
                        HostWrite {
                            dpu,
                            offset: HDR_STAGE_LEN,
                            data: len,
                        },
                    ]
                })
                .collect();
            let round = match self.sys.push(&writes) {
                Ok(()) => self
                    .sys
                    .execute_labeled_masked("receive", move |ctx| {
                        receive::receive_kernel(ctx, &layout, sealed)
                    })
                    .map_err(|e| ("receive", e)),
                Err(e) => Err(("stage_push", e)),
            };
            let dead = match round {
                Ok(results) => {
                    let mut progressed = false;
                    let mut mismatches = 0u32;
                    let mut dead_home = None;
                    for &(t, len, ..) in &pending {
                        match results[self.partition_home[t]] {
                            Some(checksum::CHECKSUM_MISMATCH) => mismatches += 1,
                            Some(_) => {
                                landed[t] += len;
                                progressed = true;
                            }
                            None => dead_home = Some(self.partition_home[t]),
                        }
                    }
                    if let Some(dpu) = dead_home {
                        dpu
                    } else {
                        if progressed {
                            failures = 0;
                        }
                        if mismatches > 0 {
                            for _ in 0..mismatches {
                                self.charge_retry("stage_checksum", failures);
                            }
                            failures += 1;
                            self.check_retry_budget("stage_checksum", failures)?;
                        }
                        continue;
                    }
                }
                Err((label, e)) if e.is_transient() => {
                    self.charge_retry(label, failures);
                    failures += 1;
                    self.check_retry_budget(label, failures)?;
                    continue;
                }
                Err((_, SimError::DpuDead { dpu })) => dpu,
                Err((_, e)) => return Err(e.into()),
            };
            let mut recovered = Vec::new();
            self.recover_dpu(dead, per_dpu, &mut recovered)?;
            for t in recovered {
                landed[t] = 0;
            }
        }
        for (routed, batch) in self.routed_per_partition.iter_mut().zip(per_dpu) {
            *routed += batch.len() as u64;
        }
        Ok(())
    }

    /// High-water mark of routed edge-key bytes the host has held at once
    /// across all appends so far. Bounded by
    /// `route_chunk_edges` (granule-rounded) `× C × 8` regardless of
    /// batch size — the streaming-memory guarantee.
    pub fn peak_routed_bytes(&self) -> u64 {
        self.peak_routed_bytes
    }

    /// Runs the counting pipeline (remap → sort → index → count → gather
    /// → correct) on the resident samples and returns the result. Can be
    /// called repeatedly as more batches are appended. A core that dies
    /// mid-count is failed over and the pipeline restarts from the top
    /// (it is idempotent over the resident samples).
    pub fn count(&mut self) -> Result<TcResult, TcError> {
        loop {
            match self.count_once() {
                Err(TcError::Sim(SimError::DpuDead { dpu })) => {
                    self.recover_dpu(dpu, &[], &mut Vec::new())?;
                }
                other => return other,
            }
        }
    }

    /// One attempt at the counting pipeline: read-back-verified remap
    /// pushes, retried kernel launches, and [`Self::read_back`] result
    /// gathers. On a fault-free machine each step issues exactly one
    /// backend op, plus the seal round of a hardened read-back. Core
    /// deaths surface as `Sim(DpuDead)` for [`Self::count`] to absorb.
    fn count_once(&mut self) -> Result<TcResult, TcError> {
        self.sys.set_phase(Phase::TriangleCount);
        let layout = self.layout;

        // Refresh and ship the heavy-hitter table when tracking is on.
        if self.config.misra_gries.is_some() {
            self.refresh_remap_assignments();
            if !self.remap_table.is_empty() {
                let packed = remap::encode_table(&self.remap_table);
                let (table, table_len) =
                    (encode_slice(&packed), encode_slice(&[packed.len() as u64]));
                let writes: Vec<HostWrite> = (self.partition_home.iter())
                    .flat_map(|&dpu| {
                        [
                            HostWrite {
                                dpu,
                                offset: layout.remap_off,
                                data: &table,
                            },
                            HostWrite {
                                dpu,
                                offset: HDR_REMAP_LEN,
                                data: &table_len,
                            },
                        ]
                    })
                    .collect();
                self.push_verified("remap_table", &writes)?;
                self.retry("remap", |s| {
                    s.execute_labeled_masked("remap", move |ctx| remap::remap_kernel(ctx, &layout))
                })?;
            }
        }

        self.retry("sort", |s| {
            s.execute_labeled_masked("sort", move |ctx| sort::sort_kernel(ctx, &layout))
        })?;
        self.retry("index", |s| {
            s.execute_labeled_masked("index", move |ctx| index::index_kernel(ctx, &layout))
        })?;
        let local_enabled = self.config.local_nodes.is_some();
        if local_enabled {
            // Local counts restart from zero on every (re)count.
            self.retry("local_clear", |s| {
                s.execute_labeled_masked("local_clear", move |ctx| {
                    local::local_clear_kernel(ctx, &layout)
                })
            })?;
            self.retry("local_count", |s| {
                s.execute_labeled_masked("local_count", move |ctx| {
                    local::local_count_kernel(ctx, &layout)
                })
            })?;
        } else {
            let strategy = self.config.intersect;
            self.retry("count", |s| {
                s.execute_labeled_masked("count", move |ctx| {
                    count::count_kernel_opts(
                        ctx,
                        &layout,
                        count::RegionLookup::BinarySearch,
                        strategy,
                    )
                })
            })?;
        }

        // One rank-parallel gather of every core's header.
        let headers: Vec<Header> = self
            .read_back("headers", 0, 8)?
            .iter()
            .map(|bytes| Header::decode(bytes))
            .collect();
        let home_headers: Vec<Header> = self.partition_home.iter().map(|&d| headers[d]).collect();
        self.emit_reservoir(&home_headers);

        let mut reports: Vec<DpuReport> = home_headers
            .iter()
            .enumerate()
            .map(|(t, h)| {
                let triplet = self.assignment.triplet_of(t);
                DpuReport {
                    dpu: t,
                    triplet,
                    raw: h.result,
                    seen: h.seen,
                    capacity: h.cap,
                    resident: h.len,
                    corrected: 0.0,
                    mono: triplet.is_mono(),
                }
            })
            .collect();
        let assembled =
            correction::assemble(&mut reports, self.config.colors, self.config.uniform_p);

        // Gather and correct per-vertex local counts when enabled: each
        // core's raw locals scale by its reservoir factor; monochromatic
        // duplicates are removed via the single-color cores; the uniform
        // factor applies globally — the same algebra as the global count,
        // applied slot-wise.
        let local_counts = if local_enabled {
            let nodes = u64::from(self.config.local_nodes.unwrap_or(0));
            let mut totals = vec![0.0f64; nodes as usize];
            let mut mono_totals = vec![0.0f64; nodes as usize];
            let regions = self.read_back("locals", layout.local_off, nodes)?;
            for (t, report) in reports.iter().enumerate() {
                let raw: Vec<u64> = decode_slice(&regions[self.partition_home[t]]);
                let factor = if report.raw == 0 {
                    1.0
                } else {
                    report.corrected / report.raw as f64
                };
                for (node, &count) in raw.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let corrected = count as f64 * factor;
                    totals[node] += corrected;
                    if report.mono {
                        mono_totals[node] += corrected;
                    }
                }
            }
            let dedup_c = self.config.colors.saturating_sub(1) as f64;
            let p3 = self.config.uniform_p.powi(3);
            for (t, m) in totals.iter_mut().zip(&mono_totals) {
                *t = ((*t - dedup_c * m) / p3).max(0.0);
            }
            Some(totals)
        } else {
            None
        };

        // Journal the count barrier: every partition's resident sample was
        // remapped (by the table prefix active right now) and sorted. A
        // replay applies the same prefix + sort at this offset, so a bank
        // lost *after* this point re-derives the post-count state and a
        // bank lost *mid-count* re-derives the pre-count state (the retry
        // re-runs remap+sort on every core, converging them).
        if let Some(journals) = self.journals.as_mut() {
            let table_len = self.remap_table.len() as u64;
            for journal in journals.iter_mut() {
                journal.mark(table_len);
            }
        }

        Ok(TcResult {
            estimate: assembled.estimate,
            raw_total: assembled.raw_total,
            exact: self.config.uniform_p >= 1.0 && !assembled.any_overflow,
            times: self.sys.phase_times(),
            nr_dpus: self.nr_dpus(),
            colors: self.config.colors,
            edges_offered: self.offered,
            edges_kept: self.kept,
            edges_routed: home_headers.iter().map(|h| h.seen).sum(),
            max_dpu_load: home_headers.iter().map(|h| h.seen).max().unwrap_or(0),
            reservoir_overflowed: assembled.any_overflow,
            energy: self.sys.energy_report(),
            local_counts,
            dpu_reports: reports,
        })
    }

    /// Emits a `reservoir` occupancy event from freshly gathered headers
    /// (one per partition): total resident edges, total capacity, and the
    /// fullest core's fill fraction.
    fn emit_reservoir(&self, headers: &[Header]) {
        let Some(hub) = &self.metrics else {
            return;
        };
        let resident: u64 = headers.iter().map(|h| h.len).sum();
        let capacity: u64 = headers.iter().map(|h| h.cap).sum();
        let max_fill = headers
            .iter()
            .filter(|h| h.cap > 0)
            .map(|h| h.len as f64 / h.cap as f64)
            .fold(0.0f64, f64::max);
        hub.reservoir(resident, capacity, max_fill);
    }

    /// Counts once more and releases the PIM cores (dropping the session
    /// frees them).
    pub fn finish(mut self) -> Result<TcResult, TcError> {
        self.count()
    }

    /// Assigns new ids to heavy hitters that entered the top-`t` set,
    /// keeping earlier assignments frozen (consistency with the resident,
    /// already-rewritten samples).
    fn refresh_remap_assignments(&mut self) {
        if !self.remap_dirty {
            return;
        }
        self.remap_dirty = false;
        let (Some(mg_cfg), Some(summary)) = (self.config.misra_gries, self.summary.as_ref()) else {
            return;
        };
        for (node, _count) in summary.top(mg_cfg.t) {
            if self.remap_table.len() >= mg_cfg.t {
                break;
            }
            if self.remap_assigned.insert(node) {
                self.remap_table.push((node, self.next_new_id));
                self.next_new_id -= 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance: bounded retry, read-back verification, spare-core
    // failover and journal replay against the simulator's fault-injection
    // plane (see docs/ROBUSTNESS.md). Plain and hardened sessions share
    // the init, staging and count pipeline that runs through these
    // helpers; on a fault-free machine each helper issues exactly the one
    // backend op it wraps. `self.hardened` adds only the staging digest
    // and the seal-verified read-backs; a fault plan, spares or journals
    // imply it, so plain sessions never take a recovery branch.
    // ------------------------------------------------------------------

    /// Counters of faults the simulator has injected so far (all-zero
    /// without an active plan).
    pub fn fault_counters(&self) -> pim_sim::FaultCounters {
        self.sys.fault_counters()
    }

    /// Spare cores still available for failover, across all ranks.
    pub fn spares_left(&self) -> usize {
        self.spare_pools.iter().map(Vec::len).sum()
    }

    /// Snapshot of every partition's resident sample (edge keys, in bank
    /// order) plus its stream position `seen`, read through the free host
    /// inspection channel. Recovery tests use this to assert that a
    /// failed-over partition's sample set — and its overflow state — is
    /// bit-identical to the fault-free run's.
    pub fn resident_samples(&self) -> Result<Vec<(Vec<u64>, u64)>, TcError> {
        let mut out = Vec::with_capacity(self.assignment.nr_dpus());
        for &home in &self.partition_home {
            let (hdr, sample) = self.read_bank(home)?;
            out.push((sample, hdr.seen));
        }
        Ok(out)
    }

    /// The bank of physical core `dpu`, read through the free host
    /// inspection channel: its header, then the resident sample the
    /// header sizes.
    fn read_bank(&self, dpu: usize) -> Result<(Header, Vec<u64>), TcError> {
        let bank = self.sys.dpu(dpu)?;
        let hdr = Header::decode(bank.host_read(0, HEADER_BYTES)?);
        let sample = decode_slice(bank.host_read(self.layout.sample_off, hdr.len * 8)?);
        Ok((hdr, sample))
    }

    /// Physical core currently hosting partition `t` (changes after a
    /// failover). Chaos tests use this to aim out-of-band corruption.
    pub fn home_of(&self, t: usize) -> usize {
        self.partition_home[t]
    }

    /// Captures a complete restorable snapshot of the session at an
    /// append boundary: every partition's bank (header words, resident
    /// sample, remap prefix) read through the free host inspection
    /// channel, plus the host-side sampling state — Misra-Gries summary,
    /// stream cursors, remap assignments, and RNG journals. `watermark`
    /// is the caller's stream position (for `pimtc dynamic`: update
    /// batches fully applied); restore hands it back so the caller knows
    /// where to resume. Persist with [`SessionCheckpoint::save`]. Emits
    /// one `checkpoint` metric event, so a watchdog sees progress.
    pub fn checkpoint(&self, watermark: u64) -> Result<SessionCheckpoint, TcError> {
        let mut banks = Vec::with_capacity(self.assignment.nr_dpus());
        for &home in &self.partition_home {
            let (hdr, sample) = self.read_bank(home)?;
            let remap = self
                .sys
                .dpu(home)?
                .host_read(self.layout.remap_off, hdr.remap_len * 8)?;
            banks.push(BankSnapshot {
                header: hdr.words().to_vec(),
                sample,
                remap: decode_slice(remap),
            });
        }
        if let Some(hub) = &self.metrics {
            let sample_keys = banks.iter().map(|b| b.sample.len() as u64).sum();
            hub.checkpoint(banks.len() as u64, sample_keys, watermark);
        }
        Ok(SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            config: self.config,
            watermark,
            offered: self.offered,
            kept: self.kept,
            route_granules: self.route_granules,
            chunks_done: self.chunks_done,
            peak_routed_bytes: self.peak_routed_bytes,
            routed_per_partition: self.routed_per_partition.clone(),
            remap_table: self.remap_table.clone(),
            next_new_id: self.next_new_id,
            remap_dirty: self.remap_dirty,
            summary: self.summary.as_ref().map(|mg| SummarySnapshot {
                capacity: mg.capacity() as u64,
                items_seen: mg.items_seen(),
                entries: mg.snapshot(),
            }),
            journals: self.journals.clone(),
            banks,
        })
    }

    /// Reinstates a snapshot's state into a freshly started session (same
    /// configuration, identity partition homes). Structural mismatches —
    /// wrong partition count, bank/sample/remap lengths out of agreement
    /// or past their MRAM regions, a remap table past its region or out
    /// of step with its id cursor, a summary the configuration doesn't
    /// call for, a journal opened under another seed or for another
    /// partition — are refused with [`TcError::Checkpoint`]; a
    /// checksum-valid file can still be rejected here if it was written
    /// by a different session shape.
    fn install_snapshot(&mut self, snap: &SessionCheckpoint) -> Result<(), TcError> {
        let parts = self.assignment.nr_dpus();
        let bad = |msg: String| Err(TcError::Checkpoint(msg));
        if snap.banks.len() != parts {
            return bad(format!(
                "snapshot holds {} partition banks but this configuration \
                 has {parts} partitions",
                snap.banks.len()
            ));
        }
        if snap.routed_per_partition.len() != parts {
            return bad(format!(
                "snapshot routed counters cover {} partitions, expected {parts}",
                snap.routed_per_partition.len()
            ));
        }
        if snap.summary.as_ref().map(|s| s.capacity)
            != self.summary.as_ref().map(|s| s.capacity() as u64)
        {
            return bad("snapshot and configuration disagree on Misra-Gries tracking".to_string());
        }
        if let Some(journals) = &snap.journals {
            if self.journals.is_none() {
                return bad("snapshot carries RNG journals but journaling is off".to_string());
            }
            if journals.len() != parts {
                return bad(format!(
                    "snapshot holds {} journals, expected {parts}",
                    journals.len()
                ));
            }
        } else if self.journals.is_some() {
            return bad("journaling is on but the snapshot has no journals".to_string());
        }
        // The next count writes the whole table at `remap_off`, and
        // `refresh_remap_assignments` hands out ids downward from
        // `u32::MAX`, one per entry.
        let table_len = snap.remap_table.len() as u64;
        // A replay applies each mark's table prefix at its key offset and
        // stops at the partition's routed count, so marks must stay in
        // order, inside the journal and inside the table, and a snapshot
        // taken between appends has journaled exactly the routed keys.
        for (t, journal) in snap.journals.iter().flatten().enumerate() {
            // Replay seeds partition `t` from the session seed, so a
            // journal opened under another seed or for another partition
            // would re-derive a bank it never recorded.
            if (journal.seed(), journal.granule()) != (self.config.seed, t as u64) {
                return bad(format!(
                    "partition {t} journal was opened for partition {} of a \
                     session seeded {}, not partition {t} of seed {}",
                    journal.granule(),
                    journal.seed(),
                    self.config.seed
                ));
            }
            let (keys, marks) = (journal.len(), journal.marks());
            if keys != snap.routed_per_partition[t]
                || marks.windows(2).any(|w| w[0].offset > w[1].offset)
                || marks
                    .iter()
                    .any(|m| m.offset > keys || m.table_len > table_len)
            {
                return bad(format!(
                    "partition {t} journal ({keys} keys, marks {marks:?}) does \
                     not fit {} routed edges and a {table_len}-entry remap table",
                    snap.routed_per_partition[t]
                ));
            }
        }
        if table_len > self.layout.remap_cap {
            return bad(format!(
                "snapshot remap table holds {table_len} entries past this \
                 layout's remap capacity {}",
                self.layout.remap_cap
            ));
        }
        if u64::from(u32::MAX) - table_len != u64::from(snap.next_new_id) {
            return bad(format!(
                "snapshot next remap id {} disagrees with its {table_len}-entry \
                 remap table",
                snap.next_new_id
            ));
        }
        for (t, bank) in snap.banks.iter().enumerate() {
            if bank.header.len() != 8 {
                return bad(format!(
                    "partition {t} bank header has {} words, expected 8",
                    bank.header.len()
                ));
            }
            if bank.header[0] != self.layout.capacity {
                return bad(format!(
                    "partition {t} was checkpointed at capacity {} but this \
                     layout holds {}",
                    bank.header[0], self.layout.capacity
                ));
            }
            if bank.header[1] > self.layout.capacity {
                return bad(format!(
                    "partition {t} records len = {} past its sample capacity {}",
                    bank.header[1], self.layout.capacity
                ));
            }
            if bank.header[4] > self.layout.remap_cap {
                return bad(format!(
                    "partition {t} records remap_len = {} past this layout's \
                     remap capacity {}",
                    bank.header[4], self.layout.remap_cap
                ));
            }
            if bank.sample.len() as u64 != bank.header[1] {
                return bad(format!(
                    "partition {t} sample holds {} keys but its header \
                     records len = {}",
                    bank.sample.len(),
                    bank.header[1]
                ));
            }
            if bank.remap.len() as u64 != bank.header[4] {
                return bad(format!(
                    "partition {t} remap prefix holds {} entries but its \
                     header records remap_len = {}",
                    bank.remap.len(),
                    bank.header[4]
                ));
            }
        }
        // The stream cursors must describe a stream this session could
        // have ingested: kept ≤ offered ≤ the granules' edges, at least a
        // granule per chunk, under 2^40 granules (which leaves every
        // cursor room to grow), each kept edge routed to C partitions and
        // both of its endpoints offered to the Misra-Gries summary.
        let seen = snap
            .banks
            .iter()
            .try_fold(0u64, |sum, bank| sum.checked_add(bank.header[2]));
        let endpoints = snap.summary.as_ref().map(|s| s.items_seen);
        if snap.route_granules >= 1 << 40
            || snap.chunks_done > snap.route_granules
            || snap.offered > snap.route_granules * ROUTE_GRANULE_EDGES as u64
            || snap.kept > snap.offered
            || seen != snap.kept.checked_mul(u64::from(self.config.colors))
            || endpoints.is_some_and(|e| e != 2 * snap.kept)
        {
            return bad(format!(
                "snapshot stream cursors disagree: {} chunks, {} granules, \
                 {} edges offered, {} kept, {seen:?} routed, {endpoints:?} \
                 endpoints summarized",
                snap.chunks_done, snap.route_granules, snap.offered, snap.kept
            ));
        }
        let summary = match &snap.summary {
            Some(s) => Some(
                MisraGries::from_snapshot(s.capacity as usize, s.items_seen, &s.entries)
                    .map_err(|e| TcError::Checkpoint(format!("Misra-Gries snapshot: {e}")))?,
            ),
            None => None,
        };
        // Banks go back through the host inspection channel: restore is
        // out-of-band bookkeeping, not modeled data movement.
        for (t, bank) in snap.banks.iter().enumerate() {
            let home = self.partition_home[t];
            let dpu = self.sys.dpu_mut(home)?;
            dpu.host_write(0, &encode_slice(&bank.header))?;
            if !bank.sample.is_empty() {
                dpu.host_write(self.layout.sample_off, &encode_slice(&bank.sample))?;
            }
            if !bank.remap.is_empty() {
                dpu.host_write(self.layout.remap_off, &encode_slice(&bank.remap))?;
            }
        }
        self.offered = snap.offered;
        self.kept = snap.kept;
        self.route_granules = snap.route_granules;
        self.chunks_done = snap.chunks_done;
        self.peak_routed_bytes = snap.peak_routed_bytes;
        self.routed_per_partition = snap.routed_per_partition.clone();
        self.remap_table = snap.remap_table.clone();
        self.remap_assigned = snap.remap_table.iter().map(|&(old, _)| old).collect();
        self.next_new_id = snap.next_new_id;
        self.remap_dirty = snap.remap_dirty;
        self.summary = summary;
        self.journals = snap.journals.clone();
        Ok(())
    }

    /// Mutable access to the underlying backend — the chaos-harness
    /// escape hatch for planting out-of-band bank corruption via
    /// [`pim_sim::PimBackend::dpu_mut`]. Bypasses the modeled transfer
    /// path; not for data-plane use.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.sys
    }

    /// Charges one modeled-backoff retry span to the current phase.
    fn charge_retry(&mut self, label: &str, attempt: u32) {
        self.sys
            .charge_host_seconds_labeled(&format!("retry:{label}"), retry_backoff(attempt));
    }

    /// Fails the session once `failures` consecutive attempts at one
    /// operation have burned through the retry budget.
    fn check_retry_budget(&self, label: &str, failures: u32) -> Result<(), TcError> {
        if failures > self.config.max_retries {
            return Err(TcError::Faulted(format!(
                "{failures} consecutive failed attempts at '{label}' exceeded \
                 max_retries = {}",
                self.config.max_retries
            )));
        }
        Ok(())
    }

    /// Runs one backend op with bounded retry on transient faults: each
    /// failed attempt is charged as a `retry:<label>` backoff span and
    /// counted against [`TcConfig::max_retries`]. Permanent deaths and
    /// programming errors propagate to the caller.
    fn retry<T>(
        &mut self,
        label: &str,
        mut op: impl FnMut(&mut B) -> SimResult<T>,
    ) -> Result<T, TcError> {
        let mut failures = 0u32;
        loop {
            match op(&mut self.sys) {
                Ok(out) => return Ok(out),
                Err(e) if e.is_transient() => {
                    self.charge_retry(label, failures);
                    failures += 1;
                    self.check_retry_budget(label, failures)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Push with retry *and* read-back verification through the host
    /// inspection channel, so a transient corruption of a critical write
    /// (headers, remap tables, recovery installs) is caught and redone.
    /// The read-back compares each write with its bank in place, so it is
    /// free and a fault-free push costs one transfer.
    fn push_verified(&mut self, label: &str, writes: &[HostWrite]) -> Result<(), TcError> {
        let mut failures = 0u32;
        loop {
            self.retry(label, |s| s.push(writes))?;
            let landed = writes.iter().all(|w| {
                self.sys
                    .dpu(w.dpu)
                    .and_then(|d| d.host_read(w.offset, w.data.len() as u64))
                    .is_ok_and(|got| got == w.data)
            });
            if landed {
                return Ok(());
            }
            self.charge_retry(label, failures);
            failures += 1;
            self.check_retry_budget(label, failures)?;
        }
    }

    /// Gathers `words` u64 words at `offset` from every core with
    /// bounded retry. Hardened sessions verify on gather: every live core
    /// first seals the region with an FNV digest, the host gathers both
    /// and re-checks the math, retrying the whole round until the
    /// partition homes' copies verify. The seal launch and its gather are
    /// the only ops a hardened count adds to a plain one.
    fn read_back(&mut self, label: &str, offset: u64, words: u64) -> Result<Vec<Vec<u8>>, TcError> {
        if !self.hardened {
            return self.retry(label, |s| s.gather(offset, words * 8));
        }
        let layout = self.layout;
        let mut failures = 0u32;
        loop {
            let sealed = self.retry("seal", |s| {
                s.execute_labeled_masked("seal", move |ctx| {
                    checksum::seal_kernel(ctx, offset, words, layout.staging_slot(0))
                })
            })?;
            // A masked `None` at a partition home is a death the launch
            // absorbed (a cluster rank re-issues a killed launch instead
            // of failing ranks that already ran): surface it here, or the
            // dead core's zeroed gather tombstone would never verify.
            if let Some(&home) = self.partition_home.iter().find(|&&d| sealed[d].is_none()) {
                return Err(TcError::Sim(SimError::DpuDead { dpu: home }));
            }
            let regions = self.retry(label, |s| s.gather(offset, words * 8))?;
            let seals = self.retry("seal", |s| s.gather(layout.staging_off, 8))?;
            let ok = self.partition_home.iter().all(|&d| {
                let sealed = u64::from_le_bytes(seals[d][..8].try_into().unwrap());
                checksum::digest_at(0, &decode_slice::<u64>(&regions[d])) == sealed
            });
            if ok {
                return Ok(regions);
            }
            self.charge_retry(label, failures);
            failures += 1;
            self.check_retry_budget(label, failures)?;
        }
    }

    /// Writes every physical core's initial bank header (keyed by
    /// partition id; spares by their own id) and, on hardened sessions,
    /// a zeroed staging region, verifying the writes and absorbing cores
    /// that die mid-initialization.
    fn init_banks(&mut self) -> Result<(), TcError> {
        loop {
            let zeros = (self.hardened).then(|| vec![0u8; (self.layout.stage_edges * 8) as usize]);
            let homes = self.partition_home.iter().copied().zip(0..);
            let spares = self.spare_pools.iter().flatten().map(|&s| (s, s));
            let banks: Vec<_> = (homes.chain(spares))
                .map(|(dpu, rng_key)| {
                    let hdr = Header {
                        cap: self.layout.capacity,
                        rng: rng::seed_for_dpu(self.config.seed, rng_key),
                        ..Header::default()
                    };
                    (dpu, hdr.encode())
                })
                .collect();
            let mut writes = Vec::new();
            for (dpu, header) in &banks {
                writes.push(HostWrite {
                    dpu: *dpu,
                    offset: 0,
                    data: header,
                });
                if let Some(zeros) = &zeros {
                    writes.push(HostWrite {
                        dpu: *dpu,
                        offset: self.layout.staging_off,
                        data: zeros,
                    });
                }
            }
            match self.push_verified("init", &writes) {
                Ok(()) => return Ok(()),
                Err(TcError::Sim(SimError::DpuDead { dpu })) => {
                    let mut recovered = Vec::new();
                    self.recover_dpu(dpu, &[], &mut recovered)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops a replacement core for partition `t`: its own rank's spare
    /// pool first (preserving single-rank pop order exactly), then the
    /// other ranks' pools in round-robin order. Spares that died with
    /// their rank (or out of band) are discarded, never selected — a
    /// whole-rank outage takes its spare block down with it, so recovery
    /// must be able to re-home a partition onto a *different* rank's
    /// spares. Updates `partition_rank[t]` to the donor rank.
    fn take_spare(&mut self, t: usize) -> Option<usize> {
        let own = self.partition_rank[t];
        let ranks = self.spare_pools.len();
        for offset in 0..ranks {
            let r = (own + offset) % ranks;
            while let Some(spare) = self.spare_pools[r].pop() {
                if self.sys.is_dpu_lost(spare) {
                    continue; // Lost with its rank; drop it from the pool.
                }
                self.partition_rank[t] = r;
                return Some(spare);
            }
        }
        None
    }

    /// Replaces a permanently dead core. An idle spare just leaves the
    /// pool; a partition home is rebuilt onto a fresh spare, from its
    /// journal when journaling is on and from the C-fold redundancy of
    /// the surviving replicas otherwise. `chunk` holds the per-partition
    /// batches of the chunk in flight (empty outside staging): the
    /// partition comes back in its state at chunk start, and the caller
    /// re-stages its batch. `recovered` collects the partitions that were
    /// reinstalled.
    fn recover_dpu(
        &mut self,
        dead: usize,
        chunk: &[Vec<u64>],
        recovered: &mut Vec<usize>,
    ) -> Result<(), TcError> {
        let start = Instant::now();
        for pool in &mut self.spare_pools {
            if let Some(pos) = pool.iter().position(|&s| s == dead) {
                pool.remove(pos);
                return Ok(());
            }
        }
        let Some(t) = self.partition_home.iter().position(|&h| h == dead) else {
            return Ok(()); // Already failed over by a nested recovery.
        };
        // Journaled sessions skip survivor reconstruction entirely: the
        // lost bank — overflowed or not, remapped or not, even with
        // C = 1 — is re-derived by replaying the journal.
        let bank = if self.journals.is_some() {
            self.replay_partition(t)
        } else {
            self.survivor_bank(t, chunk)?
        };
        let Some(spare) = self.take_spare(t) else {
            return Err(TcError::Faulted(format!(
                "core {dead} (partition {t}) died with no spare cores left \
                 in any rank (configure spare_dpus)"
            )));
        };
        self.install_bank(t, spare, &bank, chunk, recovered)?;
        self.partition_home[t] = spare;
        recovered.push(t);
        if let Some(hub) = &self.metrics {
            hub.failover(t as u64, spare as u64);
        }
        self.sys
            .charge_host_seconds_labeled("recover", start.elapsed().as_secs_f64());
        Ok(())
    }

    /// Reconstructs partition `t`'s bank at chunk start from the
    /// survivors: every edge of partition t lives on C−1 other partitions
    /// (first-seen dedup keeps arrival order, so the rebuilt sample is
    /// bit-identical). Keys of `t`'s batch in the chunk in flight are
    /// left out, since survivors may already hold them. Refused where
    /// the survivors cannot hold the sample.
    fn survivor_bank(&self, t: usize, chunk: &[Vec<u64>]) -> Result<RebuiltBank, TcError> {
        if self.config.misra_gries.is_some() {
            return Err(TcError::Faulted(format!(
                "partition {t} lost while Misra-Gries remapping is active; \
                 remapped resident samples cannot be reconstructed"
            )));
        }
        if self.config.colors < 2 {
            return Err(TcError::Faulted(
                "C = 1 keeps a single replica of every edge; a lost \
                 partition has no survivors to rebuild from"
                    .into(),
            ));
        }
        let routed = self.routed_per_partition[t];
        if routed > self.layout.capacity {
            return Err(TcError::Faulted(format!(
                "partition {t} overflowed its reservoir ({routed} edges \
                 routed > capacity {}); survivors no longer hold every edge",
                self.layout.capacity
            )));
        }
        let mut seen_keys: HashSet<u64> = chunk.get(t).into_iter().flatten().copied().collect();
        let mut keys = Vec::new();
        let mut routes = Vec::new();
        for q in 0..self.assignment.nr_dpus() {
            if q == t {
                continue;
            }
            let home = self.partition_home[q];
            if self.sys.is_dpu_lost(home) {
                continue;
            }
            // Banks can be unwritten if a death hits during init; a
            // survivor whose header is unreadable contributes nothing and
            // the completeness check below stays in force.
            if self.sys.dpu(home)?.host_read(0, HEADER_BYTES).is_err() {
                continue;
            }
            let (_, sample) = self.read_bank(home)?;
            for key in sample {
                if seen_keys.contains(&key) {
                    continue;
                }
                let (u, v) = edge_unkey(key);
                let (ca, cb) = self.coloring.edge_colors(u, v);
                self.assignment.dpus_for_edge(ca, cb, &mut routes);
                if routes.contains(&(t as u32)) {
                    seen_keys.insert(key);
                    keys.push(key);
                }
            }
        }
        if keys.len() as u64 != routed {
            return Err(TcError::Faulted(format!(
                "reconstructed {} of {routed} edges for partition {t}; the \
                 surviving replicas are incomplete (overflowed reservoirs \
                 or duplicated input edges)",
                keys.len()
            )));
        }
        // The reservoir never overflowed (checked above), so its RNG
        // stream was never drawn: the pristine seed is still its state.
        Ok(RebuiltBank {
            sample: keys,
            seen: routed,
            rng: rng::seed_for_dpu(self.config.seed, t),
            remap: Vec::new(),
            marks_applied: 0,
        })
    }

    /// Installs partition `t`'s rebuilt bank on physical core `target`:
    /// header, zeroed staging region, sample and remap prefix, every
    /// write verified. Unrelated cores that die mid-install are recovered
    /// in turn (the recursion is bounded by the spare pool); if `target`
    /// itself dies the install fails loudly. Journaled sessions rebuild
    /// every bank by replay and report it as a `journal_replay` event.
    fn install_bank(
        &mut self,
        t: usize,
        target: usize,
        bank: &RebuiltBank,
        chunk: &[Vec<u64>],
        recovered: &mut Vec<usize>,
    ) -> Result<(), TcError> {
        let journaled = self.journals.is_some();
        let (label, during) = if journaled {
            ("journal_install", "journal replay")
        } else {
            ("recover_install", "recovery")
        };
        let header = Header {
            cap: self.layout.capacity,
            len: bank.sample.len() as u64,
            seen: bank.seen,
            rng: bank.rng,
            remap_len: bank.remap.len() as u64,
            ..Header::default()
        }
        .encode();
        let zeros = vec![0u8; (self.layout.stage_edges * 8) as usize];
        let (sample, remap) = (encode_slice(&bank.sample), encode_slice(&bank.remap));
        let mut writes = vec![
            HostWrite {
                dpu: target,
                offset: 0,
                data: &header,
            },
            HostWrite {
                dpu: target,
                offset: self.layout.staging_off,
                data: &zeros,
            },
        ];
        for (offset, data) in [
            (self.layout.sample_off, &sample),
            (self.layout.remap_off, &remap),
        ] {
            if !data.is_empty() {
                writes.push(HostWrite {
                    dpu: target,
                    offset,
                    data,
                });
            }
        }
        loop {
            match self.push_verified(label, &writes) {
                Ok(()) => break,
                Err(TcError::Sim(SimError::DpuDead { dpu })) if dpu != target => {
                    self.recover_dpu(dpu, chunk, recovered)?;
                }
                Err(TcError::Sim(SimError::DpuDead { .. })) => {
                    return Err(TcError::Faulted(format!(
                        "replacement core {target} for partition {t} died \
                         during {during}"
                    )));
                }
                Err(e) => return Err(e),
            }
        }
        if let (true, Some(hub)) = (journaled, &self.metrics) {
            hub.journal_replay(
                t as u64,
                target as u64,
                self.routed_per_partition[t],
                bank.marks_applied,
            );
        }
        Ok(())
    }

    /// Re-derives partition `t`'s exact bank state by replaying its
    /// journal prefix (the keys staged so far) through the receive
    /// kernel's reservoir rule — the same xorshift64* stream, seeded
    /// identically — and the journaled remap/sort marks. Keys journaled
    /// past `routed_per_partition[t]` are in flight and re-staged by the
    /// caller, so the replay stops before them.
    fn replay_partition(&self, t: usize) -> RebuiltBank {
        let journal = &self
            .journals
            .as_ref()
            .expect("journal replay needs journals")[t];
        let (upto, cap) = (self.routed_per_partition[t], self.layout.capacity);
        let mut bank = RebuiltBank {
            sample: Vec::with_capacity(upto.min(cap) as usize),
            seen: 0,
            rng: rng::seed_for_dpu(self.config.seed, t),
            remap: Vec::new(),
            marks_applied: 0,
        };
        journal.replay(upto, |step| match step {
            JournalStep::Key(key) => {
                bank.seen += 1;
                let len = bank.sample.len() as u64;
                rng::reservoir_slot(&mut bank.rng, bank.seen, len, cap)
                    .apply(&mut bank.sample, key);
            }
            JournalStep::Mark(table_len) => {
                bank.remap = remap::encode_table(&self.remap_table[..table_len as usize]);
                let lookup = remap::RemapLookup::new(&bank.remap);
                for key in bank.sample.iter_mut() {
                    *key = lookup.map_key(*key).0;
                }
                bank.sample.sort_unstable();
                bank.marks_applied += 1;
            }
        });
        bank
    }

    /// One proactive scrub sweep (see [`TcConfig::scrub_interval`]):
    /// every live core seals its resident sample with the FNV digest
    /// kernel, and the host compares each seal against the digest of the
    /// *journal-replayed* sample — the ground truth a bank must hold.
    /// Dead cores fail over immediately instead of on next touch; a bank
    /// whose seal diverges from its journal (an out-of-band upset no
    /// transfer checksum could have caught) is reinstalled in place.
    ///
    /// Requires journals: without them there is no reference to scrub
    /// against, so the session refuses rather than sweep blind.
    pub fn scrub(&mut self) -> Result<ScrubOutcome, TcError> {
        if self.journals.is_none() {
            return Err(TcError::Config(
                "scrubbing seal-verifies resident banks against their \
                 replayed journals; enable journaling (which implies the \
                 hardened pipeline) to scrub"
                    .into(),
            ));
        }
        let start = Instant::now();
        let layout = self.layout;
        let mut failed_over = 0u64;
        let mut repaired = 0u64;
        let seals = loop {
            let sealed = self.retry("scrub_seal", |s| {
                s.execute_labeled_masked("scrub_seal", move |ctx| {
                    let len = {
                        let mut t0 = ctx.tasklet(0)?;
                        Header::read(&mut t0)?.len
                    };
                    checksum::seal_kernel(ctx, layout.sample_off, len, layout.staging_slot(0))?;
                    Ok(len)
                })
            });
            match sealed {
                Ok(r) => break r,
                Err(TcError::Sim(SimError::DpuDead { dpu })) => {
                    let mut rec = Vec::new();
                    self.recover_dpu(dpu, &[], &mut rec)?;
                    failed_over += rec.len() as u64;
                }
                Err(e) => return Err(e),
            }
        };
        for t in 0..self.assignment.nr_dpus() {
            let home = self.partition_home[t];
            let Some(len) = seals[home] else {
                // The core died after the launch round: fail over now.
                let mut rec = Vec::new();
                self.recover_dpu(home, &[], &mut rec)?;
                failed_over += rec.len() as u64;
                continue;
            };
            let readback = self
                .sys
                .dpu(home)
                .and_then(|d| d.host_read(layout.staging_off, 8));
            let Ok(sealed) = readback else {
                // The core died between the seal round and the read-back.
                let mut rec = Vec::new();
                self.recover_dpu(home, &[], &mut rec)?;
                failed_over += rec.len() as u64;
                continue;
            };
            let sealed = u64::from_le_bytes(sealed[..8].try_into().unwrap());
            let bank = self.replay_partition(t);
            let expect = checksum::digest_at(0, &bank.sample);
            if sealed != expect || len != bank.sample.len() as u64 {
                self.install_bank(t, home, &bank, &[], &mut Vec::new())?;
                repaired += 1;
            }
        }
        self.sys
            .charge_host_seconds_labeled("scrub", start.elapsed().as_secs_f64());
        let outcome = ScrubOutcome {
            partitions: self.assignment.nr_dpus() as u64,
            repaired,
            failed_over,
        };
        if let Some(hub) = &self.metrics {
            hub.scrub(outcome.partitions, outcome.repaired, outcome.failed_over);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_graph::{gen, triangle, CooGraph};
    use pim_sim::PimConfig;

    fn tiny_config(colors: u32) -> TcConfig {
        TcConfig::builder()
            .colors(colors)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(256)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_count_on_complete_graph() {
        let g = gen::simple::complete(20);
        let r = crate::count_triangles(&g, &tiny_config(3)).unwrap();
        assert!(r.exact);
        assert_eq!(r.rounded(), 1140);
        // Raw total exceeds the estimate by the monochromatic duplicates.
        assert!(r.raw_total >= r.rounded());
    }

    #[test]
    fn exact_count_matches_reference_on_random_graphs() {
        for (colors, seed) in [(1u32, 0u64), (2, 1), (3, 2), (5, 3)] {
            let g = gen::erdos_renyi(120, 0.12, seed);
            let expect = triangle::count_exact(&g);
            let r = crate::count_triangles(&g, &tiny_config(colors)).unwrap();
            assert!(r.exact, "C={colors} should be exact");
            assert_eq!(r.rounded(), expect, "C={colors} seed={seed}");
        }
    }

    #[test]
    fn exact_count_with_clustered_triangles() {
        // Heavy mono-color pressure: many triangles inside tight blocks.
        let mut g = gen::planted_cliques(
            gen::cliques::PlantedCliqueParams {
                n: 60,
                communities: 4,
                community_size: 10,
                q: 1.0,
                background_p: 0.05,
            },
            5,
        );
        // The pipeline requires deduplicated input (§4.1 preprocessing):
        // the background ER layer can duplicate clique edges.
        g.preprocess(0);
        let expect = triangle::count_exact(&g);
        for colors in [1u32, 2, 4] {
            let r = crate::count_triangles(&g, &tiny_config(colors)).unwrap();
            assert_eq!(r.rounded(), expect, "C={colors}");
        }
    }

    #[test]
    fn incremental_session_matches_from_scratch() {
        let g = gen::erdos_renyi(100, 0.15, 9);
        let mut pre = g.clone();
        pre.preprocess(3);
        let batches = pre.split_batches(4);
        let mut session = TcSession::start(&tiny_config(3)).unwrap();
        let mut cumulative = CooGraph::new();
        for batch in &batches {
            session.append(batch).unwrap();
            cumulative.extend_edges(batch);
            let r = session.count().unwrap();
            assert_eq!(
                r.rounded(),
                triangle::count_exact(&cumulative),
                "after {} edges",
                cumulative.num_edges()
            );
        }
    }

    #[test]
    fn misra_gries_remap_preserves_exactness() {
        let mut g = gen::chung_lu(
            gen::chung_lu::ChungLuParams {
                n: 400,
                gamma: 2.1,
                avg_degree: 8.0,
                max_degree_frac: 0.4,
            },
            11,
        );
        g.preprocess(0);
        let expect = triangle::count_exact(&g);
        let config = TcConfig::builder()
            .colors(3)
            .misra_gries(64, 16)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(256)
            .build()
            .unwrap();
        let r = crate::count_triangles(&g, &config).unwrap();
        assert!(r.exact);
        assert_eq!(r.rounded(), expect);
    }

    #[test]
    fn remap_stays_consistent_across_updates() {
        let mut g = gen::chung_lu(
            gen::chung_lu::ChungLuParams {
                n: 300,
                gamma: 2.1,
                avg_degree: 8.0,
                max_degree_frac: 0.4,
            },
            13,
        );
        g.preprocess(1);
        let config = TcConfig::builder()
            .colors(2)
            .misra_gries(32, 8)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(128)
            .build()
            .unwrap();
        let mut session = TcSession::start(&config).unwrap();
        let mut cumulative = CooGraph::new();
        for batch in g.split_batches(3) {
            session.append(&batch).unwrap();
            cumulative.extend_edges(&batch);
            let r = session.count().unwrap();
            assert_eq!(r.rounded(), triangle::count_exact(&cumulative));
        }
    }

    #[test]
    fn uniform_sampling_marks_result_approximate() {
        let g = gen::simple::complete(40);
        let config = TcConfig::builder()
            .colors(2)
            .uniform_p(0.5)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(256)
            .build()
            .unwrap();
        let r = crate::count_triangles(&g, &config).unwrap();
        assert!(!r.exact);
        let exact = 40u64 * 39 * 38 / 6;
        // Loose sanity: within a factor of 2 for a dense graph.
        assert!(
            r.estimate > exact as f64 * 0.5 && r.estimate < exact as f64 * 2.0,
            "estimate {} vs exact {exact}",
            r.estimate
        );
    }

    #[test]
    fn reservoir_overflow_marks_result_approximate() {
        let g = gen::simple::complete(40); // 780 edges, 9880 triangles
        let config = TcConfig::builder()
            .colors(2)
            .sample_capacity(120)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(64)
            .build()
            .unwrap();
        let r = crate::count_triangles(&g, &config).unwrap();
        assert!(r.reservoir_overflowed);
        assert!(!r.exact);
        let exact = 9880f64;
        assert!(
            r.estimate > exact * 0.3 && r.estimate < exact * 3.0,
            "estimate {}",
            r.estimate
        );
    }

    #[test]
    fn phase_times_are_populated() {
        // Timing is a timed-backend guarantee; pin it so the test stays
        // meaningful under PIM_TC_BACKEND=functional.
        let g = gen::simple::complete(15);
        let config = TcConfig {
            backend: crate::config::ExecBackend::Timed,
            ..tiny_config(2)
        };
        let r = crate::count_triangles(&g, &config).unwrap();
        assert!(r.times.setup > 0.0);
        assert!(r.times.sample_creation > 0.0);
        assert!(r.times.triangle_count > 0.0);
    }

    #[test]
    fn functional_backend_matches_timed_counts() {
        let g = gen::erdos_renyi(120, 0.12, 5);
        let base = tiny_config(3);
        let timed = crate::count_triangles_in::<pim_sim::TimedBackend>(&g, &base).unwrap();
        let func = crate::count_triangles_in::<pim_sim::FunctionalBackend>(&g, &base).unwrap();
        assert_eq!(timed.estimate, func.estimate);
        assert_eq!(timed.dpu_reports, func.dpu_reports);
        assert!(timed.times.total() > 0.0);
        assert_eq!(func.times.total(), 0.0);
        assert_eq!(func.energy.total_j(), 0.0);
    }

    #[test]
    fn chunked_append_matches_unchunked() {
        // The streaming-memory tentpole: any route_chunk_edges gives the
        // same final result, because sampling is keyed by global granule.
        let g = gen::erdos_renyi(200, 0.15, 31);
        let expect = {
            let config = TcConfig {
                route_chunk_edges: u64::MAX / 2,
                ..tiny_config(3)
            };
            crate::count_triangles(&g, &config).unwrap()
        };
        for chunk in [1u64, 1000, 10_000] {
            let config = TcConfig {
                route_chunk_edges: chunk,
                ..tiny_config(3)
            };
            let r = crate::count_triangles(&g, &config).unwrap();
            assert_eq!(r.rounded(), expect.rounded(), "route_chunk_edges={chunk}");
            assert_eq!(r.edges_kept, expect.edges_kept);
            assert_eq!(r.dpu_reports, expect.dpu_reports);
        }
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pimtc_dyn_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let g = gen::erdos_renyi(100, 0.15, 9);
        let mut pre = g.clone();
        pre.preprocess(3);
        let batches = pre.split_batches(4);
        let config = tiny_config(3);

        // Uninterrupted reference: every batch, counting after each.
        let mut full = TcSession::<RankCluster<TimedBackend>>::start_cluster(&config).unwrap();
        let mut want = None;
        for b in &batches {
            full.append(b).unwrap();
            want = Some(full.count().unwrap());
        }
        let want = want.unwrap();

        // Interrupted run: two batches, checkpoint, drop the session (the
        // process-kill stand-in — nothing survives but the file).
        let dir = ckpt_dir("resume");
        {
            let mut first = TcSession::<RankCluster<TimedBackend>>::start_cluster(&config).unwrap();
            for b in &batches[..2] {
                first.append(b).unwrap();
                first.count().unwrap();
            }
            first.checkpoint(2).unwrap().save(&dir).unwrap();
        }
        let snap = SessionCheckpoint::load(&dir).unwrap();
        assert_eq!(snap.watermark, 2);
        let mut resumed =
            TcSession::<RankCluster<TimedBackend>>::restore_cluster(&snap, None).unwrap();
        let mut got = None;
        for b in &batches[2..] {
            resumed.append(b).unwrap();
            got = Some(resumed.count().unwrap());
        }
        let got = got.unwrap();
        assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
        assert_eq!(got.dpu_reports, want.dpu_reports);
        assert_eq!(got.edges_kept, want.edges_kept);
        assert_eq!(got.edges_routed, want.edges_routed);
        assert_eq!(
            resumed.resident_samples().unwrap(),
            full.resident_samples().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_restore_covers_journals_and_misra_gries() {
        let mut g = gen::chung_lu(
            gen::chung_lu::ChungLuParams {
                n: 300,
                gamma: 2.1,
                avg_degree: 8.0,
                max_degree_frac: 0.4,
            },
            11,
        );
        g.preprocess(0);
        let batches = g.split_batches(3);
        let config = TcConfig::builder()
            .colors(3)
            .misra_gries(32, 8)
            .journal(true)
            .spare_dpus(2)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(64)
            .build()
            .unwrap();

        let mut full = TcSession::<RankCluster<TimedBackend>>::start_cluster(&config).unwrap();
        let mut want = None;
        for b in &batches {
            full.append(b).unwrap();
            want = Some(full.count().unwrap());
        }
        let want = want.unwrap();

        let dir = ckpt_dir("journal_mg");
        {
            let mut first = TcSession::<RankCluster<TimedBackend>>::start_cluster(&config).unwrap();
            first.append(&batches[0]).unwrap();
            first.count().unwrap();
            first.checkpoint(1).unwrap().save(&dir).unwrap();
        }
        let snap = SessionCheckpoint::load(&dir).unwrap();
        assert!(snap.journals.is_some(), "journals must be checkpointed");
        assert!(snap.summary.is_some(), "summary must be checkpointed");
        let mut resumed =
            TcSession::<RankCluster<TimedBackend>>::restore_cluster(&snap, None).unwrap();
        // The restored banks must agree with the restored journals: a
        // scrub sweep (seal digests vs journal replay) finds nothing to
        // repair.
        let outcome = resumed.scrub().unwrap();
        assert_eq!(outcome.repaired, 0, "restored banks diverge from journals");
        let mut got = None;
        for b in &batches[1..] {
            resumed.append(b).unwrap();
            got = Some(resumed.count().unwrap());
        }
        let got = got.unwrap();
        assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
        assert_eq!(got.dpu_reports, want.dpu_reports);
        assert_eq!(
            resumed.resident_samples().unwrap(),
            full.resident_samples().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_snapshot_from_a_different_shape() {
        let g = gen::erdos_renyi(60, 0.2, 5);
        let mut s = TcSession::<RankCluster<TimedBackend>>::start_cluster(&tiny_config(3)).unwrap();
        s.append(g.edges()).unwrap();
        s.count().unwrap();
        let mut snap = s.checkpoint(1).unwrap();
        snap.config.colors = 2; // 4 partitions; the snapshot holds 10 banks.
        let Err(err) = TcSession::<RankCluster<TimedBackend>>::restore_cluster(&snap, None) else {
            panic!("mismatched snapshot must be refused");
        };
        assert!(matches!(err, TcError::Checkpoint(_)), "got {err:?}");
        assert!(err.to_string().contains("partition"), "got: {err}");

        // Checksum-valid banks whose vectors agree with their headers but
        // overrun the layout: a sample past the capacity would spill into
        // the sort scratch, a remap prefix past `remap_cap` into the
        // sample region.
        let layout = *s.layout();
        let mut overfull = s.checkpoint(1).unwrap();
        overfull.banks[0].header[1] = layout.capacity + 1;
        overfull.banks[0].sample = vec![0; layout.capacity as usize + 1];
        let mut overlong = s.checkpoint(1).unwrap();
        overlong.banks[0].header[4] = layout.remap_cap + 1;
        overlong.banks[0].remap = vec![0; layout.remap_cap as usize + 1];
        for snap in [overfull, overlong] {
            let Err(err) = TcSession::<RankCluster<TimedBackend>>::restore_cluster(&snap, None)
            else {
                panic!("region-overrunning snapshot must be refused");
            };
            assert!(matches!(err, TcError::Checkpoint(_)), "got {err:?}");
            assert!(err.to_string().contains("partition 0"), "got: {err}");
        }

        // A remap table past `remap_cap` (with the id cursor in step)
        // would spill into the sample region on the next count; a cursor
        // out of step with the table would underflow on the next remap.
        let mut overfull_table = s.checkpoint(1).unwrap();
        let entries = layout.remap_cap as u32 + 1;
        overfull_table.remap_table = (0..entries).map(|i| (i, u32::MAX - i)).collect();
        overfull_table.next_new_id = u32::MAX - entries;
        let mut stale_cursor = s.checkpoint(1).unwrap();
        stale_cursor.next_new_id = 0;
        for snap in [overfull_table, stale_cursor] {
            let Err(err) = TcSession::<RankCluster<TimedBackend>>::restore_cluster(&snap, None)
            else {
                panic!("inconsistent remap state must be refused");
            };
            assert!(matches!(err, TcError::Checkpoint(_)), "got {err:?}");
            assert!(err.to_string().contains("remap"), "got: {err}");
        }
    }

    #[test]
    fn restore_refuses_journals_from_another_seed_or_partition() {
        let g = gen::erdos_renyi(60, 0.2, 5);
        let config = TcConfig {
            journal: true,
            ..tiny_config(3)
        };
        let mut s = TcSession::<RankCluster<TimedBackend>>::start_cluster(&config).unwrap();
        s.append(g.edges()).unwrap();
        s.count().unwrap();
        let dir = ckpt_dir("journal_coords");
        s.checkpoint(1).unwrap().save(&dir).unwrap();
        let saved = SessionCheckpoint::load(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(TcSession::<RankCluster<TimedBackend>>::restore_cluster(&saved, None).is_ok());

        // Partition 1's journal re-serialized under another seed, and
        // partitions 0 and 1's journals swapped.
        let mut reseeded = saved.clone();
        let journals = reseeded.journals.as_mut().unwrap();
        let text = serde_json::to_string(&journals[1]).unwrap();
        let seed = format!("\"seed\":{}", config.seed);
        assert!(text.contains(&seed), "{text}");
        let other = format!("\"seed\":{}", config.seed + 1);
        journals[1] = serde_json::from_str(&text.replacen(&seed, &other, 1)).unwrap();
        let mut swapped = saved.clone();
        swapped.journals.as_mut().unwrap().swap(0, 1);
        for (snap, partition) in [(reseeded, 1), (swapped, 0)] {
            let Err(err) = TcSession::<RankCluster<TimedBackend>>::restore_cluster(&snap, None)
            else {
                panic!("a journal from another seed or partition must be refused");
            };
            assert!(matches!(err, TcError::Checkpoint(_)), "got {err:?}");
            let named = format!("partition {partition} journal was opened");
            assert!(err.to_string().contains(&named), "got: {err}");
        }
    }

    #[test]
    fn streaming_append_bounds_peak_host_memory() {
        // ~36k edges appended with a 1-granule chunk: the host must never
        // materialize more than one granule-rounded chunk's C-fold routed
        // keys, far below the full batch set.
        let g = gen::erdos_renyi(600, 0.2, 41);
        let colors = 3u64;
        let config = TcConfig {
            route_chunk_edges: 1,
            ..tiny_config(colors as u32)
        };
        let mut session = TcSession::start(&config).unwrap();
        session.append(g.edges()).unwrap();
        let bound = ROUTE_GRANULE_EDGES as u64 * colors * 8;
        assert!(session.peak_routed_bytes() > 0);
        assert!(
            session.peak_routed_bytes() <= bound,
            "peak {} exceeds chunk bound {bound}",
            session.peak_routed_bytes()
        );

        // An unbounded chunk materializes the whole batch set at once.
        let config = TcConfig {
            route_chunk_edges: u64::MAX / 2,
            ..tiny_config(colors as u32)
        };
        let mut whole = TcSession::start(&config).unwrap();
        whole.append(g.edges()).unwrap();
        assert_eq!(
            whole.peak_routed_bytes(),
            g.num_edges() as u64 * colors * 8,
            "unchunked run must hold every routed copy at once"
        );
        assert!(whole.peak_routed_bytes() > bound);
        assert_eq!(
            whole.count().unwrap().rounded(),
            session.count().unwrap().rounded()
        );
    }

    #[test]
    fn load_distribution_matches_1_3_6_classes() {
        let g = gen::erdos_renyi(300, 0.2, 21);
        let config = tiny_config(4);
        let mut session = TcSession::start(&config).unwrap();
        session.append(g.edges()).unwrap();
        let r = session.count().unwrap();
        // Average load per class should be ~N, ~3N, ~6N (§3.1).
        let mut class_tot = [0f64; 4];
        let mut class_n = [0f64; 4];
        for rep in &r.dpu_reports {
            let d = rep.triplet.distinct_colors() as usize;
            class_tot[d] += rep.seen as f64;
            class_n[d] += 1.0;
        }
        let n1 = class_tot[1] / class_n[1];
        let n2 = class_tot[2] / class_n[2];
        let n3 = class_tot[3] / class_n[3];
        assert!((n2 / n1 - 3.0).abs() < 0.8, "3N class: {}", n2 / n1);
        assert!((n3 / n1 - 6.0).abs() < 1.6, "6N class: {}", n3 / n1);
    }

    #[test]
    fn local_counting_matches_reference_across_colors() {
        let g = gen::erdos_renyi(90, 0.15, 17);
        let csr = pim_graph::CsrGraph::from_coo(&g);
        let expect = triangle::local_counts(&csr);
        for colors in [1u32, 2, 4] {
            let config = TcConfig::builder()
                .colors(colors)
                .local_counting(g.num_nodes())
                .pim(PimConfig {
                    total_dpus: 512,
                    mram_capacity: 1 << 20,
                    ..PimConfig::tiny()
                })
                .stage_edges(256)
                .build()
                .unwrap();
            let r = crate::count_triangles(&g, &config).unwrap();
            assert!(r.exact);
            let local = r.local_counts.as_ref().unwrap();
            assert_eq!(local.len(), g.num_nodes() as usize);
            for (node, (&got, &want)) in local.iter().zip(&expect).enumerate() {
                assert!(
                    (got - want as f64).abs() < 1e-6,
                    "C={colors} node {node}: got {got}, want {want}"
                );
            }
            // Global consistency: locals sum to 3x the global count.
            let sum: f64 = local.iter().sum();
            assert!((sum - 3.0 * r.estimate).abs() < 1e-6);
        }
    }

    #[test]
    fn local_counting_survives_incremental_updates() {
        let g = gen::erdos_renyi(60, 0.2, 23);
        let config = TcConfig::builder()
            .colors(2)
            .local_counting(g.num_nodes())
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(128)
            .build()
            .unwrap();
        let mut session = TcSession::start(&config).unwrap();
        let mut cumulative = CooGraph::new();
        for batch in g.split_batches(3) {
            session.append(&batch).unwrap();
            cumulative.extend_edges(&batch);
            let r = session.count().unwrap();
            let csr = pim_graph::CsrGraph::from_coo(&cumulative);
            let expect = triangle::local_counts(&csr);
            let local = r.local_counts.as_ref().unwrap();
            for (node, &want) in expect.iter().enumerate() {
                assert!(
                    (local[node] - want as f64).abs() < 1e-6,
                    "node {node} after {} edges",
                    cumulative.num_edges()
                );
            }
        }
    }

    #[test]
    fn profiled_run_labels_every_launch() {
        use pim_metrics::{MemorySink, MetricsHub};
        // Single-machine pin (like the Timed pin): the chrome-span closure
        // below sums spans from ONE process, while a cluster merges phase
        // times as a per-rank max — cluster aggregates are pinned in
        // tests/cluster_equivalence.rs instead.
        let g = gen::simple::complete(15); // 455 triangles
        let config = TcConfig {
            backend: crate::config::ExecBackend::Timed,
            ranks: 1,
            ..tiny_config(2)
        };
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let traced = crate::Capture { metrics: Some(hub) };
        let profile = crate::count_triangles_with(&g, &config, traced).unwrap();
        assert_eq!(profile.result.rounded(), 455);

        // Every pipeline kernel shows up as a labeled kernel aggregate.
        let labels: HashSet<&str> = profile
            .report
            .kernels
            .iter()
            .map(|l| l.label.as_str())
            .collect();
        for expected in ["receive", "sort", "index", "count"] {
            assert!(labels.contains(expected), "missing launch label {expected}");
        }
        // Plain and hardened sessions share one count pipeline; only the
        // hardened one seal-verifies its read-backs, and both agree.
        assert!(!labels.contains("seal"), "a plain count must not seal");
        let hardened_config = TcConfig {
            hardened: true,
            ..config
        };
        let hardened =
            crate::count_triangles_with(&g, &hardened_config, crate::Capture::default()).unwrap();
        assert!(hardened.report.kernels.iter().any(|k| k.label == "seal"));
        assert_eq!(
            hardened.result.estimate.to_bits(),
            profile.result.estimate.to_bits()
        );
        assert_eq!(hardened.result.dpu_reports, profile.result.dpu_reports);
        // The host-side routing work is a named span too.
        let events = sink.events();
        assert!((events.iter()).any(|e| e.kind == "host" && e.str_field("label") == "route_edges"));

        // The Chrome export covers the entire modeled runtime: summed span
        // durations equal the phase-time total.
        let chrome = pim_sim::chrome_trace(&events);
        let span_dur_us: f64 = chrome
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        let total = profile.result.times.total();
        assert!(
            (span_dur_us / 1e6 - total).abs() < 1e-9,
            "chrome spans {span_dur_us} µs vs phase total {total} s"
        );
    }

    #[test]
    fn empty_graph_counts_zero() {
        let r = crate::count_triangles(&CooGraph::new(), &tiny_config(2)).unwrap();
        assert_eq!(r.rounded(), 0);
        assert!(r.exact);
    }

    #[test]
    fn metric_stream_aggregates_match_system_report() {
        use pim_metrics::{summarize, MemorySink, MetricsHub};

        let g = gen::erdos_renyi(120, 0.12, 7);
        for backend in [crate::ExecBackend::Timed, crate::ExecBackend::Functional] {
            let mut config = tiny_config(3);
            config.backend = backend;
            // Single-machine pin: the exact stream==report reconciliation
            // below assumes one machine's clock/alloc; the cluster's
            // max/sum merge is covered by tests/cluster_equivalence.rs.
            config.ranks = 1;
            let hub = Arc::new(MetricsHub::new());
            let sink = MemorySink::new();
            hub.add_sink(Box::new(sink.clone()));
            let traced = crate::Capture {
                metrics: Some(Arc::clone(&hub)),
            };
            let profile = crate::count_triangles_with(&g, &config, traced).unwrap();
            let summary = summarize(&sink.events());

            // The stream's aggregated counters reconcile exactly against
            // the backend's own lifetime accounting.
            assert_eq!(
                summary.transfer_bytes(),
                profile.report.total_transfer_bytes,
                "{backend:?}: transfer bytes"
            );
            assert_eq!(
                summary.instructions(),
                profile.report.total_instructions,
                "{backend:?}: instructions"
            );
            assert_eq!(
                summary.dma_bytes(),
                profile.report.total_dma_bytes,
                "{backend:?}: dma bytes"
            );
            assert_eq!(
                summary.total_faults(),
                profile.report.fault_counters.total(),
                "{backend:?}: faults"
            );
            assert_eq!(summary.nr_dpus as usize, profile.report.per_dpu.len());
            match backend {
                crate::ExecBackend::Timed => assert!(
                    (summary.total_seconds() - profile.result.times.total()).abs() < 1e-9,
                    "{backend:?}: stream seconds {} vs phase clock {}",
                    summary.total_seconds(),
                    profile.result.times.total()
                ),
                crate::ExecBackend::Functional => {
                    assert_eq!(summary.total_seconds(), 0.0)
                }
            }

            // Session-level observations rode along.
            assert!(summary.chunks > 0, "{backend:?}: chunk events");
            assert_eq!(summary.edges, g.edges().len() as u64);
            assert!(summary.reservoir_capacity > 0, "{backend:?}: reservoir");
        }
    }

    #[test]
    fn hardened_metered_run_streams_fault_and_retry_events() {
        use pim_metrics::{summarize, MemorySink, MetricsHub};
        use pim_sim::FaultPlan;

        let g = gen::erdos_renyi(120, 0.12, 11);
        let mut config = tiny_config(2);
        config.pim.fault = Some(FaultPlan::parse("seed=5,transfer=50000").unwrap());
        config.max_retries = 16;
        // Single-machine pin: one cluster-level retry can cover several
        // per-rank faults, so the retry==fault identity below only holds
        // at R = 1; rank-local fault confinement is property-tested in
        // tests/cluster_equivalence.rs.
        config.ranks = 1;
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let traced = crate::Capture {
            metrics: Some(Arc::clone(&hub)),
        };
        let profile = crate::count_triangles_with(&g, &config, traced).unwrap();
        let summary = summarize(&sink.events());

        let counters = profile.report.fault_counters;
        assert!(counters.transfer_faults > 0, "plan should have fired");
        assert_eq!(
            summary.faults.get("transfer_fail").copied().unwrap_or(0),
            counters.transfer_faults
        );
        assert_eq!(summary.total_faults(), counters.total());
        // Every injected transfer fault was retried, and the retry labels
        // landed in the stream as `retry:<op>` host events.
        let retried: u64 = summary.retries.values().sum();
        assert_eq!(retried, counters.transfer_faults);
        // Failed transfer attempts are in the stream with ok=false, so
        // seconds still close against the phase clock.
        assert!(
            (summary.total_seconds() - profile.result.times.total()).abs() < 1e-9,
            "stream seconds {} vs phase clock {}",
            summary.total_seconds(),
            profile.result.times.total()
        );
    }

    /// Hardened sessions stage through the plain loop: at
    /// `stage_edges = 64` a hardened slice holds 63 keys plus its digest,
    /// so the session issues exactly the staging pushes and receive
    /// launches of a plain session at 63, and the same result. Only the
    /// clocks differ (digest cycles, seal rounds in the count).
    #[test]
    fn hardened_staging_matches_plain_round_for_round() {
        use pim_metrics::{MemorySink, MetricsHub};

        let g = gen::erdos_renyi(150, 0.1, 3);
        let run = |hardened: bool, stage_edges: u64| {
            let config = TcConfig {
                hardened,
                ..TcConfig::builder()
                    .colors(3)
                    .pim(PimConfig {
                        total_dpus: 512,
                        mram_capacity: 1 << 20,
                        ..PimConfig::tiny()
                    })
                    .stage_edges(stage_edges)
                    .sample_capacity(200)
                    .build()
                    .unwrap()
            };
            let hub = Arc::new(MetricsHub::new());
            let sink = MemorySink::new();
            hub.add_sink(Box::new(sink.clone()));
            let capture = crate::Capture { metrics: Some(hub) };
            let result = crate::count_triangles_with(&g, &config, capture)
                .unwrap()
                .result;
            let events = sink.events();
            let staged = |kind: &str, field: &str, name: &str| {
                events
                    .iter()
                    .filter(|e| e.kind == kind && e.str_field("phase") == "sample_creation")
                    .filter(|e| e.str_field(field) == name)
                    .count()
            };
            let ops = (
                staged("transfer", "op", "push"),
                staged("launch", "label", "receive"),
            );
            // Every data-derived field, serialized (f64s round-trip
            // exactly); the modeled clocks are zeroed.
            let data = TcResult {
                times: Default::default(),
                energy: Default::default(),
                ..result
            };
            (serde_json::to_string(&data).unwrap(), result.estimate, ops)
        };
        let (plain, plain_estimate, plain_ops) = run(false, 63);
        let (hardened, hardened_estimate, hardened_ops) = run(true, 64);
        assert!(plain_ops.1 > 2, "the batches must span several rounds");
        assert!(
            plain.contains("\"reservoir_overflowed\":true"),
            "capacity 200 must overflow"
        );
        assert_eq!(
            hardened_ops, plain_ops,
            "(staging pushes, receive launches)"
        );
        assert_eq!(hardened_estimate.to_bits(), plain_estimate.to_bits());
        assert_eq!(hardened, plain);
    }

    /// The tentpole invariant, checked from inside the session: replaying
    /// a partition's journal re-derives its *live* bank exactly — sample
    /// contents and order, stream position, and the xorshift64* RNG state
    /// — through overflow, a count barrier (remap + sort), and further
    /// appends past it.
    #[test]
    fn journal_replay_rederives_live_banks_exactly() {
        let mut g = gen::erdos_renyi(120, 0.15, 7);
        g.preprocess(0);
        let batches = g.split_batches(3);
        let config = TcConfig::builder()
            .colors(3)
            .sample_capacity(24) // force reservoir overflow
            .misra_gries(64, 16) // force remap marks
            .hardened(true)
            .journal(true)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(64)
            .build()
            .unwrap();
        let mut s = TcSession::start(&config).unwrap();
        let check = |s: &TcSession, at: &str| {
            let mut overflowed = 0;
            for t in 0..s.assignment.nr_dpus() {
                let bank = s.replay_partition(t);
                let home = s.partition_home[t];
                let hdr = Header::decode(s.sys.dpu(home).unwrap().host_read(0, 64).unwrap());
                assert_eq!(bank.sample.len() as u64, hdr.len, "{at}: partition {t} len");
                assert_eq!(bank.seen, hdr.seen, "{at}: partition {t} seen");
                assert_eq!(bank.rng, hdr.rng, "{at}: partition {t} rng state");
                let bytes = s
                    .sys
                    .dpu(home)
                    .unwrap()
                    .host_read(s.layout.sample_off, hdr.len * 8)
                    .unwrap();
                assert_eq!(
                    bank.sample,
                    decode_slice::<u64>(bytes),
                    "{at}: partition {t} sample"
                );
                if hdr.seen > hdr.cap {
                    overflowed += 1;
                }
            }
            overflowed
        };
        s.append(&batches[0]).unwrap();
        check(&s, "after first append");
        s.count().unwrap();
        check(&s, "after count");
        s.append(&batches[1]).unwrap();
        s.append(&batches[2]).unwrap();
        let overflowed = check(&s, "after appends past the count barrier");
        assert!(overflowed > 0, "capacity 24 must actually overflow");
        s.count().unwrap();
        check(&s, "after second count");
    }

    /// Inter-batch scrubbing finds a planted out-of-band corruption (the
    /// fault plan cannot schedule one) and repairs the bank in place from
    /// the journal; without journals the same sweep must fail loudly.
    #[test]
    fn scrub_repairs_planted_corruption_from_the_journal() {
        let g = gen::erdos_renyi(100, 0.15, 3);
        let build = |journal: bool| {
            TcConfig::builder()
                .colors(3)
                .hardened(true)
                .journal(journal)
                .pim(PimConfig {
                    total_dpus: 512,
                    mram_capacity: 1 << 20,
                    ..PimConfig::tiny()
                })
                .stage_edges(64)
                .build()
                .unwrap()
        };
        let mut s = TcSession::start(&build(true)).unwrap();
        s.append(g.edges()).unwrap();
        let clean = s.scrub().unwrap();
        assert_eq!(clean.repaired, 0);
        assert_eq!(clean.failed_over, 0);
        assert_eq!(clean.partitions, s.assignment.nr_dpus() as u64);

        // Flip one byte in partition 0's resident sample, out of band.
        let home = s.home_of(0);
        let off = s.layout.sample_off;
        let byte = s.sys.dpu(home).unwrap().host_read(off, 1).unwrap()[0];
        s.backend_mut()
            .dpu_mut(home)
            .unwrap()
            .host_write(off, &[byte ^ 0x40])
            .unwrap();
        let swept = s.scrub().unwrap();
        assert_eq!(swept.repaired, 1, "the corrupted bank must be repaired");
        let want = crate::count_triangles(&g, &tiny_config(3)).unwrap();
        let got = s.count().unwrap();
        assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());

        // Journal-off: there is no ground truth to scrub against, so the
        // session refuses loudly rather than sweep blind.
        let mut s = TcSession::start(&build(false)).unwrap();
        s.append(g.edges()).unwrap();
        match s.scrub() {
            Err(TcError::Config(msg)) => {
                assert!(msg.contains("journal"), "got: {msg}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    /// `scrub()` is a hardened-pipeline facility; plain sessions reject it
    /// with a configuration error instead of silently doing nothing.
    #[test]
    fn scrub_rejects_plain_sessions() {
        let mut s = TcSession::start(&tiny_config(2)).unwrap();
        match s.scrub() {
            Err(TcError::Config(msg)) => assert!(msg.contains("hardened"), "got: {msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }
}
