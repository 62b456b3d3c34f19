//! Run configuration for the PIM-TC pipeline.

use crate::error::TcError;
use crate::kernel::count::IntersectStrategy;
use crate::triplets::nr_triplets;
use pim_sim::{CostModel, PimConfig};
use serde::{Deserialize, Serialize};

/// Which execution engine runs the pipeline (see `pim_sim::backend`).
///
/// `Timed` is the full cycle-accounting simulator; `Functional` executes
/// the same kernels over the same banks but reports zero time, trace, and
/// energy — much faster, for correctness testing and exact baselines.
/// Both produce bit-identical counts and per-DPU samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecBackend {
    /// Cycle-, DMA-, and energy-accounted simulation (`TimedBackend`).
    #[default]
    Timed,
    /// Functional-only execution (`FunctionalBackend`): no clocks.
    Functional,
}

impl ExecBackend {
    /// Reads the backend from the `PIM_TC_BACKEND` environment variable
    /// (`timed` / `functional`, case-insensitive), defaulting to `Timed`
    /// when unset or unrecognized. This is how CI runs the whole test
    /// suite against the functional engine without touching call sites.
    pub fn from_env() -> ExecBackend {
        match std::env::var("PIM_TC_BACKEND") {
            Ok(v) => v.parse().unwrap_or(ExecBackend::Timed),
            Err(_) => ExecBackend::Timed,
        }
    }
}

impl std::str::FromStr for ExecBackend {
    type Err = TcError;

    fn from_str(s: &str) -> Result<Self, TcError> {
        match s.to_ascii_lowercase().as_str() {
            "timed" => Ok(ExecBackend::Timed),
            "functional" => Ok(ExecBackend::Functional),
            other => Err(TcError::Config(format!(
                "unknown backend `{other}` (expected `timed` or `functional`)"
            ))),
        }
    }
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecBackend::Timed => "timed",
            ExecBackend::Functional => "functional",
        })
    }
}

/// Misra-Gries parameters (§3.5): `k` is the summary capacity per host
/// thread, `t` the number of top-degree vertices remapped on the DPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MisraGriesConfig {
    /// Summary capacity `K` (per host thread).
    pub k: usize,
    /// Number of heavy hitters remapped on the PIM cores.
    pub t: usize,
}

/// Full configuration for [`crate::count_triangles`] / [`crate::TcSession`].
///
/// Build with [`TcConfig::builder`]; `build` validates cross-field
/// constraints (core budget, probability ranges, WRAM feasibility).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TcConfig {
    /// Number of vertex colors `C`; uses `C(C+2,3)` PIM cores.
    pub colors: u32,
    /// Master seed for coloring, sampling, and DPU RNG streams.
    pub seed: u64,
    /// Host-level uniform sampling keep-probability (§3.2); `1.0` disables
    /// it (exact mode).
    pub uniform_p: f64,
    /// Per-core sample capacity override in edges (§3.3 / §4.5
    /// experiments). `None` derives the maximum capacity from MRAM.
    pub sample_capacity: Option<u64>,
    /// Misra-Gries heavy-hitter remapping; `None` disables it.
    pub misra_gries: Option<MisraGriesConfig>,
    /// Local (per-vertex) counting: size of the node-id space to track.
    /// `None` disables it. Incompatible with `misra_gries` (remapped ids
    /// leave the tracked space).
    pub local_nodes: Option<u32>,
    /// Edges per staging round pushed to each core before the receive
    /// kernel runs.
    pub stage_edges: u64,
    /// Input edges routed per streaming chunk during `append` (§ bounded
    /// host memory): the host materializes at most `route_chunk_edges × C`
    /// routed edge keys at a time instead of the full C-fold duplicated
    /// batch set. Rounded up to the routing granule internally; results
    /// are identical for any value.
    pub route_chunk_edges: u64,
    /// Execution engine running the pipeline.
    pub backend: ExecBackend,
    /// How the count kernel intersects each edge's `u`-list with its
    /// `v` region: the cost-adaptive default, or one of the forced
    /// merge/gallop/bitmap ablation modes. Every mode produces the
    /// identical count (see [`crate::kernel::count::IntersectStrategy`]).
    pub intersect: IntersectStrategy,
    /// Forces the hardened (fault-tolerant) session path: checksummed
    /// staging transfers, verified pushes/gathers, bounded retries, and
    /// spare-core recovery. Implied whenever a fault plan, spare cores or
    /// journals are configured (see [`TcConfig::effective_hardened`]).
    pub hardened: bool,
    /// Consecutive failed attempts tolerated per operation (transient
    /// transfer/launch faults, detected corruptions) before the run aborts
    /// with [`TcError::Faulted`].
    pub max_retries: u32,
    /// Spare PIM cores allocated beyond the `C(C+2,3)` partitions. When a
    /// partition's core dies permanently, its sample is reconstructed from
    /// the survivors' C-fold redundancy onto a spare and the run
    /// continues. Without [`TcConfig::journal`], requires `colors >= 2`
    /// and no Misra-Gries remapping.
    pub spare_dpus: u32,
    /// Keeps replayable per-partition journals and implies the hardened
    /// pipeline (see [`TcConfig::effective_hardened`]): every routed key
    /// and remap pass is recorded per partition, so a lost partition's
    /// sample — including overflowed reservoirs and Misra-Gries remapped
    /// samples — is re-derived exactly by replaying the journal through
    /// the receive kernel's reservoir rule from the partition's seeded
    /// RNG, with no surviving replicas needed. Lifts the
    /// `colors >= 2` / no-Misra-Gries restrictions on spare-core
    /// recovery.
    pub journal: bool,
    /// Proactive scrub cadence for hardened sessions: every
    /// `scrub_interval` streamed chunks, the session seal-verifies every
    /// live partition's resident sample and repairs (journal replay) or
    /// fails over any partition whose bank is corrupted or dead —
    /// surfacing latent faults between batches instead of on next touch.
    /// `0` disables scrubbing.
    pub scrub_interval: u64,
    /// Number of independent PIM ranks the triplet space is sharded
    /// across. Each rank is a full [`pim_sim::PimConfig`]-shaped machine
    /// (its own `pim.total_dpus` core budget, fault plan, and spares), so
    /// capacity scales by adding ranks instead of growing one machine:
    /// partitions are split into contiguous per-rank shards and results
    /// are merged host-side. `1` (the default) runs today's single-rank
    /// path bit-identically. Values above the partition count are clamped
    /// down (see [`TcConfig::effective_ranks`]) so small color counts
    /// never strand empty ranks.
    pub ranks: u32,
    /// Simulated hardware shape.
    pub pim: PimConfig,
    /// Simulated timing parameters.
    pub cost: CostModel,
}

impl TcConfig {
    /// Starts a builder with paper-like defaults.
    pub fn builder() -> TcConfigBuilder {
        TcConfigBuilder::default()
    }

    /// PIM cores this configuration will allocate.
    pub fn nr_dpus(&self) -> usize {
        nr_triplets(self.colors)
    }

    /// Ranks actually used: `ranks` clamped into `[1, nr_dpus()]` so a
    /// configuration with more ranks than partitions collapses to one
    /// rank per partition instead of allocating empty shards.
    pub fn effective_ranks(&self) -> u32 {
        (self.ranks.max(1) as usize).min(self.nr_dpus().max(1)) as u32
    }

    /// Whether the session runs on the hardened (fault-tolerant) path:
    /// explicitly requested, or implied by an injected fault plan, by
    /// spare cores being provisioned, or by journaling.
    pub fn effective_hardened(&self) -> bool {
        self.hardened || self.pim.fault.is_some() || self.spare_dpus > 0 || self.journal
    }

    /// Validates cross-field constraints.
    pub fn validate(&self) -> Result<(), TcError> {
        if self.colors < 1 {
            return Err(TcError::Config("colors must be >= 1".into()));
        }
        if self.pim.total_dpus == 0 {
            return Err(TcError::Config(
                "the PIM system has zero cores (pim.total_dpus = 0); \
                 nothing can run — configure at least one DPU"
                    .into(),
            ));
        }
        if self.ranks == 0 {
            return Err(TcError::Config("ranks must be >= 1".into()));
        }
        // The simulator backs every bank with host memory, runs every
        // tasklet and sums per-operation costs into cycle counters, so a
        // core must keep UPMEM's shape and the cost model sane values.
        let (pim, cost) = (&self.pim, &self.cost);
        let rates = [cost.clock_hz, cost.xfer_per_dpu_bw, cost.xfer_aggregate_bw];
        let spans = [
            cost.xfer_latency,
            cost.setup_fixed,
            cost.setup_per_dpu,
            cost.launch_overhead,
        ];
        let cycles = [
            cost.dma_setup_cycles,
            cost.muldiv_cycles,
            cost.pipeline_saturation as u64,
        ];
        if pim.mram_capacity > 64 << 20
            || pim.wram_capacity > 64 << 10
            || !(1..=24).contains(&pim.nr_tasklets)
            || !rates.iter().all(|r| r.is_finite() && *r > 0.0)
            || !spans.iter().all(|s| s.is_finite() && *s >= 0.0)
            || !(0.0..=1024.0).contains(&cost.dma_cycles_per_byte)
            || cycles.iter().any(|&c| c > 1 << 20)
        {
            return Err(TcError::Config(format!(
                "a PIM core has at most 64 MiB MRAM, 64 KiB WRAM and 1-24 \
                 tasklets, and the cost model needs positive finite rates, \
                 non-negative latencies and at most 2^20 cycles per \
                 operation: got {pim:?}, {cost:?}"
            )));
        }
        let partitions = self.nr_dpus();
        let ranks = self.effective_ranks() as usize;
        // The largest contiguous shard holds ceil(P / R) partitions; every
        // rank additionally provisions the full spare pool.
        let per_rank = partitions.div_ceil(ranks) + self.spare_dpus as usize;
        if per_rank > self.pim.total_dpus {
            let spare_budget = self.pim.total_dpus.saturating_sub(self.spare_dpus as usize);
            let hint = if spare_budget > 0 {
                let min_ranks = partitions.div_ceil(spare_budget);
                format!("; the smallest rank count that fits is --ranks {min_ranks}")
            } else {
                "; no rank count fits — the spares alone exhaust a rank's cores".into()
            };
            return Err(TcError::Config(format!(
                "{} colors need {} partitions + {} spares per rank: at \
                 --ranks {} the largest rank hosts {} PIM cores but each \
                 rank has {} (cluster-wide budget {} ranks x {} = {} \
                 cores){}",
                self.colors,
                partitions,
                self.spare_dpus,
                ranks,
                per_rank,
                self.pim.total_dpus,
                ranks,
                self.pim.total_dpus,
                ranks * self.pim.total_dpus,
                hint
            )));
        }
        if !(self.uniform_p > 0.0 && self.uniform_p <= 1.0) {
            return Err(TcError::Config(format!(
                "uniform_p must be in (0, 1], got {}",
                self.uniform_p
            )));
        }
        if self.stage_edges == 0 {
            return Err(TcError::Config("stage_edges must be positive".into()));
        }
        if self.route_chunk_edges == 0 {
            return Err(TcError::Config("route_chunk_edges must be positive".into()));
        }
        if let Some(mg) = &self.misra_gries {
            if mg.k == 0 {
                return Err(TcError::Config("misra_gries.k must be positive".into()));
            }
            // The remap table must fit in a tasklet's WRAM share so the
            // remap kernel can hold it resident (8 bytes per entry, half
            // the share left for edge buffers).
            let max_t = self.pim.wram_per_tasklet() / 16;
            if mg.t > max_t {
                return Err(TcError::Config(format!(
                    "misra_gries.t = {} exceeds the WRAM-resident limit {max_t}",
                    mg.t
                )));
            }
        }
        if let Some(m) = self.sample_capacity {
            if m < 3 {
                return Err(TcError::Config(
                    "sample_capacity below 3 cannot hold a triangle".into(),
                ));
            }
        }
        if self.local_nodes.is_some() && self.misra_gries.is_some() {
            return Err(TcError::Config(
                "local counting and Misra-Gries remapping are incompatible \
                 (remapped ids leave the tracked node space)"
                    .into(),
            ));
        }
        if self.effective_hardened() && self.stage_edges < 2 {
            return Err(TcError::Config(
                "hardened sessions need stage_edges >= 2 (one staging slot \
                 is reserved for the batch checksum)"
                    .into(),
            ));
        }
        if self.spare_dpus > 0 && !self.journal {
            if self.colors < 2 {
                return Err(TcError::Config(
                    "spare-core recovery needs colors >= 2: with C = 1 \
                     there is a single partition and no redundant replica \
                     to reconstruct a lost sample from"
                        .into(),
                ));
            }
            if self.misra_gries.is_some() {
                return Err(TcError::Config(
                    "spare-core recovery and Misra-Gries remapping are \
                     incompatible: remapped vertex ids hash to different \
                     colors, so a lost partition cannot be re-derived from \
                     the survivors' samples"
                        .into(),
                ));
            }
        }
        if self.scrub_interval > 0 && !self.journal {
            return Err(TcError::Config(
                "scrubbing compares resident banks against their replayed \
                 journals; scrub_interval > 0 requires journal"
                    .into(),
            ));
        }
        if let Some(plan) = &self.pim.fault {
            // A kill naming a core the session never allocates would
            // silently never fire — reject it so chaos specs stay honest.
            let allocated = partitions + ranks * self.spare_dpus as usize;
            for kill in plan.kills.iter().flatten() {
                if kill.dpu >= allocated {
                    return Err(TcError::Config(format!(
                        "fault plan kills DPU {} but this session allocates \
                         only {} cores ({} partitions + {} ranks x {} \
                         spares; cluster-wide budget {} ranks x {} = {} \
                         cores) — the kill would silently never fire",
                        kill.dpu,
                        allocated,
                        partitions,
                        ranks,
                        self.spare_dpus,
                        ranks,
                        self.pim.total_dpus,
                        ranks * self.pim.total_dpus,
                    )));
                }
            }
            for kill in plan.rank_kills.iter().flatten() {
                if kill.rank >= ranks {
                    return Err(TcError::Config(format!(
                        "fault plan kills rank {} but this session runs on \
                         {} rank(s) (--ranks / PIM_TC_RANKS) — the outage \
                         would silently never fire",
                        kill.rank, ranks,
                    )));
                }
            }
            for flaky in plan.rank_flaky.iter().flatten() {
                if flaky.rank >= ranks {
                    return Err(TcError::Config(format!(
                        "fault plan marks rank {} flaky but this session \
                         runs on {} rank(s) (--ranks / PIM_TC_RANKS)",
                        flaky.rank, ranks,
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Reads the default rank count from the `PIM_TC_RANKS` environment
/// variable, falling back to 1 when unset, unparsable, or zero. Mirrors
/// [`ExecBackend::from_env`]: CI runs the whole suite sharded across four
/// ranks without touching call sites.
fn ranks_from_env() -> u32 {
    match std::env::var("PIM_TC_RANKS") {
        Ok(v) => v.trim().parse().ok().filter(|&r| r >= 1).unwrap_or(1),
        Err(_) => 1,
    }
}

/// Builder for [`TcConfig`].
#[derive(Clone, Debug)]
pub struct TcConfigBuilder {
    config: TcConfig,
}

impl Default for TcConfigBuilder {
    fn default() -> Self {
        TcConfigBuilder {
            config: TcConfig {
                colors: 4,
                seed: 0x9E3779B97F4A7C15,
                uniform_p: 1.0,
                sample_capacity: None,
                misra_gries: None,
                local_nodes: None,
                stage_edges: 2048,
                route_chunk_edges: 256 * 1024,
                backend: ExecBackend::from_env(),
                intersect: IntersectStrategy::Adaptive,
                hardened: false,
                max_retries: 8,
                spare_dpus: 0,
                journal: false,
                scrub_interval: 0,
                ranks: ranks_from_env(),
                pim: PimConfig::default(),
                cost: CostModel::default(),
            },
        }
    }
}

impl TcConfigBuilder {
    /// Sets the color count `C` (PIM cores = `C(C+2,3)`).
    pub fn colors(mut self, colors: u32) -> Self {
        self.config.colors = colors;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables host-level uniform sampling with keep-probability `p`.
    pub fn uniform_p(mut self, p: f64) -> Self {
        self.config.uniform_p = p;
        self
    }

    /// Caps each core's sample at `m` edges (reservoir experiments).
    pub fn sample_capacity(mut self, m: u64) -> Self {
        self.config.sample_capacity = Some(m);
        self
    }

    /// Enables Misra-Gries remapping with capacity `k` and top-`t`.
    pub fn misra_gries(mut self, k: usize, t: usize) -> Self {
        self.config.misra_gries = Some(MisraGriesConfig { k, t });
        self
    }

    /// Enables local (per-vertex) counting over node ids `[0, nodes)`.
    pub fn local_counting(mut self, nodes: u32) -> Self {
        self.config.local_nodes = Some(nodes);
        self
    }

    /// Sets the staging batch size in edges.
    pub fn stage_edges(mut self, edges: u64) -> Self {
        self.config.stage_edges = edges;
        self
    }

    /// Sets the streaming route-chunk size in input edges (bounds peak
    /// host memory during `append`; does not change results).
    pub fn route_chunk_edges(mut self, edges: u64) -> Self {
        self.config.route_chunk_edges = edges;
        self
    }

    /// Selects the execution engine (overrides the `PIM_TC_BACKEND`
    /// environment default).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Selects the count kernel's intersection strategy (default:
    /// cost-adaptive; forced modes are ablation baselines).
    pub fn intersect(mut self, strategy: IntersectStrategy) -> Self {
        self.config.intersect = strategy;
        self
    }

    /// Forces the hardened (fault-tolerant) session path even without a
    /// fault plan or spares — useful for measuring its overhead.
    pub fn hardened(mut self, hardened: bool) -> Self {
        self.config.hardened = hardened;
        self
    }

    /// Sets the per-operation retry budget for transient faults.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.config.max_retries = retries;
        self
    }

    /// Provisions `n` spare PIM cores for permanent-death recovery.
    pub fn spare_dpus(mut self, n: u32) -> Self {
        self.config.spare_dpus = n;
        self
    }

    /// Enables replayable per-partition RNG journals (see
    /// [`TcConfig::journal`]): lost partitions are re-derived by replay
    /// instead of survivor reconstruction, which also makes overflowed
    /// reservoirs and Misra-Gries sessions recoverable.
    pub fn journal(mut self, on: bool) -> Self {
        self.config.journal = on;
        self
    }

    /// Sets the number of PIM ranks the triplet space is sharded across
    /// (overrides the `PIM_TC_RANKS` environment default; see
    /// [`TcConfig::ranks`]).
    pub fn ranks(mut self, ranks: u32) -> Self {
        self.config.ranks = ranks;
        self
    }

    /// Scrubs every live partition's resident sample every `chunks`
    /// streamed chunks (see [`TcConfig::scrub_interval`]); `0` disables.
    pub fn scrub_interval(mut self, chunks: u64) -> Self {
        self.config.scrub_interval = chunks;
        self
    }

    /// Attaches a seeded fault-injection plan to the simulated hardware
    /// (implies the hardened pipeline; see [`TcConfig::effective_hardened`]).
    pub fn fault_plan(mut self, plan: Option<pim_sim::FaultPlan>) -> Self {
        self.config.pim.fault = plan;
        self
    }

    /// Overrides the simulated hardware shape.
    pub fn pim(mut self, pim: PimConfig) -> Self {
        self.config.pim = pim;
        self
    }

    /// Overrides the timing model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.config.cost = cost;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<TcConfig, TcError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let c = TcConfig::builder().build().unwrap();
        assert_eq!(c.colors, 4);
        assert_eq!(c.nr_dpus(), 20);
        assert!(c.misra_gries.is_none());
    }

    #[test]
    fn paper_configuration_fits_the_machine() {
        let c = TcConfig::builder().colors(23).build().unwrap();
        assert_eq!(c.nr_dpus(), 2300);
    }

    #[test]
    fn too_many_colors_rejected() {
        // 24 colors → 2600 > 2560 DPUs on a single rank.
        let err = TcConfig::builder().colors(24).ranks(1).build().unwrap_err();
        assert!(matches!(err, TcError::Config(_)));
    }

    #[test]
    fn insufficient_cores_reports_cluster_budget_and_min_ranks() {
        // 24 colors → 2600 partitions: one 2560-core rank cannot host
        // them, and the smallest rank count that fits is 2.
        let err = TcConfig::builder().colors(24).ranks(1).build().unwrap_err();
        let TcError::Config(msg) = err else {
            panic!("expected Config error")
        };
        assert!(
            msg.contains("cluster-wide budget 1 ranks x 2560"),
            "message: {msg}"
        );
        assert!(msg.contains("--ranks 2"), "message: {msg}");
        // Following the hint makes the same configuration valid.
        assert!(TcConfig::builder().colors(24).ranks(2).build().is_ok());
    }

    #[test]
    fn out_of_range_kill_rejected_with_cluster_budget() {
        // colors=3 → 10 partitions; with 2 spares on 1 rank the global id
        // space is 0..12, so kill=12 can never fire.
        let plan = pim_sim::FaultPlan::parse("seed=3,kill=12@5").unwrap();
        let err = TcConfig::builder()
            .colors(3)
            .ranks(1)
            .spare_dpus(2)
            .fault_plan(Some(plan))
            .build()
            .unwrap_err();
        let TcError::Config(msg) = err else {
            panic!("expected Config error")
        };
        assert!(msg.contains("kills DPU 12"), "message: {msg}");
        assert!(msg.contains("only 12 cores"), "message: {msg}");
        assert!(
            msg.contains("cluster-wide budget 1 ranks x 2560"),
            "message: {msg}"
        );
        assert!(msg.contains("silently never fire"), "message: {msg}");
        // The same kill becomes valid once more ranks provision spares
        // (ids 0..=17 at 4 ranks x 2 spares).
        assert!(TcConfig::builder()
            .colors(3)
            .ranks(4)
            .spare_dpus(2)
            .fault_plan(Some(plan))
            .build()
            .is_ok());
    }

    #[test]
    fn out_of_range_rank_faults_rejected() {
        let kill = pim_sim::FaultPlan::parse("seed=3,rank=4@count").unwrap();
        let err = TcConfig::builder()
            .colors(3)
            .ranks(4)
            .spare_dpus(2)
            .fault_plan(Some(kill))
            .build()
            .unwrap_err();
        let TcError::Config(msg) = err else {
            panic!("expected Config error")
        };
        assert!(msg.contains("kills rank 4"), "message: {msg}");
        assert!(msg.contains("4 rank(s)"), "message: {msg}");
        let flaky = pim_sim::FaultPlan::parse("seed=3,rank_flaky=2:1000").unwrap();
        assert!(TcConfig::builder()
            .colors(3)
            .ranks(2)
            .spare_dpus(2)
            .fault_plan(Some(flaky))
            .build()
            .is_err());
        assert!(TcConfig::builder()
            .colors(3)
            .ranks(4)
            .spare_dpus(2)
            .fault_plan(Some(flaky))
            .build()
            .is_ok());
    }

    #[test]
    fn spares_that_exhaust_a_rank_admit_no_rank_count() {
        let err = TcConfig::builder()
            .colors(23)
            .ranks(1)
            .spare_dpus(2560)
            .journal(true)
            .build()
            .unwrap_err();
        let TcError::Config(msg) = err else {
            panic!("expected Config error")
        };
        assert!(msg.contains("no rank count fits"), "message: {msg}");
    }

    #[test]
    fn zero_ranks_rejected_and_excess_ranks_clamp() {
        assert!(TcConfig::builder().ranks(0).build().is_err());
        // 1 color → 1 partition: ranks clamp down to the partition count
        // so tiny configurations never strand empty shards.
        let c = TcConfig::builder().colors(1).ranks(8).build().unwrap();
        assert_eq!(c.ranks, 8);
        assert_eq!(c.effective_ranks(), 1);
        let d = TcConfig::builder().colors(4).ranks(3).build().unwrap();
        assert_eq!(d.effective_ranks(), 3);
    }

    #[test]
    fn bad_probability_rejected() {
        assert!(TcConfig::builder().uniform_p(0.0).build().is_err());
        assert!(TcConfig::builder().uniform_p(1.5).build().is_err());
        assert!(TcConfig::builder().uniform_p(0.01).build().is_ok());
    }

    #[test]
    fn oversized_remap_table_rejected() {
        // Default WRAM share is 4096 B → limit 256 entries.
        assert!(TcConfig::builder().misra_gries(1024, 256).build().is_ok());
        assert!(TcConfig::builder().misra_gries(1024, 257).build().is_err());
    }

    #[test]
    fn local_counting_conflicts_with_misra_gries() {
        assert!(TcConfig::builder()
            .misra_gries(64, 8)
            .local_counting(100)
            .build()
            .is_err());
        assert!(TcConfig::builder().local_counting(100).build().is_ok());
    }

    #[test]
    fn backend_parses_both_engines() {
        assert_eq!("timed".parse::<ExecBackend>().unwrap(), ExecBackend::Timed);
        assert_eq!(
            "Functional".parse::<ExecBackend>().unwrap(),
            ExecBackend::Functional
        );
        assert!("gpu".parse::<ExecBackend>().is_err());
        assert_eq!(ExecBackend::Functional.to_string(), "functional");
    }

    #[test]
    fn zero_route_chunk_rejected() {
        assert!(TcConfig::builder().route_chunk_edges(0).build().is_err());
        assert!(TcConfig::builder().route_chunk_edges(1).build().is_ok());
    }

    #[test]
    fn tiny_sample_capacity_rejected() {
        assert!(TcConfig::builder().sample_capacity(2).build().is_err());
        assert!(TcConfig::builder().sample_capacity(3).build().is_ok());
    }

    #[test]
    fn zero_dpu_system_rejected_with_actionable_message() {
        let err = TcConfig::builder()
            .pim(PimConfig {
                total_dpus: 0,
                ..PimConfig::default()
            })
            .build()
            .unwrap_err();
        let TcError::Config(msg) = err else {
            panic!("expected Config error")
        };
        assert!(msg.contains("zero cores"), "message: {msg}");
    }

    #[test]
    fn spares_count_against_the_core_budget() {
        // C = 23 needs all 2300 partitions; 2560 total leaves 260 spares
        // on a single rank.
        assert!(TcConfig::builder()
            .colors(23)
            .ranks(1)
            .spare_dpus(260)
            .build()
            .is_ok());
        assert!(TcConfig::builder()
            .colors(23)
            .ranks(1)
            .spare_dpus(261)
            .build()
            .is_err());
        // A second rank halves the largest shard, so the same spare count
        // fits again: capacity scales by adding ranks.
        assert!(TcConfig::builder()
            .colors(23)
            .ranks(2)
            .spare_dpus(261)
            .build()
            .is_ok());
    }

    #[test]
    fn spares_need_redundancy_and_no_remapping() {
        assert!(TcConfig::builder().colors(1).spare_dpus(1).build().is_err());
        assert!(TcConfig::builder().colors(2).spare_dpus(1).build().is_ok());
        assert!(TcConfig::builder()
            .colors(2)
            .spare_dpus(1)
            .misra_gries(64, 8)
            .build()
            .is_err());
    }

    #[test]
    fn journal_lifts_the_spare_recovery_restrictions() {
        // Journaled sessions can recover with a single color (no replica
        // needed) and with Misra-Gries remapping active.
        assert!(TcConfig::builder()
            .colors(1)
            .spare_dpus(1)
            .journal(true)
            .build()
            .is_ok());
        assert!(TcConfig::builder()
            .colors(2)
            .spare_dpus(1)
            .misra_gries(64, 8)
            .journal(true)
            .build()
            .is_ok());
        // Journal-off keeps today's refusals.
        assert!(TcConfig::builder().colors(1).spare_dpus(1).build().is_err());
    }

    #[test]
    fn scrub_interval_builds_and_defaults_off() {
        let c = TcConfig::builder().build().unwrap();
        assert_eq!(c.scrub_interval, 0);
        assert!(!c.journal);
        let s = TcConfig::builder()
            .scrub_interval(4)
            .journal(true)
            .hardened(true)
            .build()
            .unwrap();
        assert_eq!(s.scrub_interval, 4);
        // Scrubbing replays journals as ground truth: a cadence without
        // journaling is a configuration error, not a silent no-op.
        assert!(TcConfig::builder()
            .scrub_interval(4)
            .hardened(true)
            .build()
            .is_err());
    }

    #[test]
    fn hardened_mode_is_implied_by_faults_or_spares() {
        let plain = TcConfig::builder().build().unwrap();
        assert!(!plain.effective_hardened());
        assert!(TcConfig::builder()
            .hardened(true)
            .build()
            .unwrap()
            .effective_hardened());
        assert!(TcConfig::builder()
            .spare_dpus(1)
            .build()
            .unwrap()
            .effective_hardened());
        let faulty = TcConfig::builder()
            .pim(PimConfig {
                fault: Some(pim_sim::FaultPlan::parse("seed=1").unwrap()),
                ..PimConfig::default()
            })
            .build()
            .unwrap();
        assert!(faulty.effective_hardened());
        // Journals imply hardening too, so a journal-only session keeps
        // its journals and can scrub.
        let journaled = TcConfig::builder()
            .colors(2)
            .journal(true)
            .scrub_interval(1)
            .pim(PimConfig {
                total_dpus: 64,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .build()
            .unwrap();
        assert!(journaled.effective_hardened());
        let mut session = crate::TcSession::start(&journaled).unwrap();
        let outcome = session.scrub().unwrap();
        assert_eq!(outcome.partitions, session.nr_dpus() as u64);
    }

    #[test]
    fn hardened_mode_needs_a_checksum_slot() {
        assert!(TcConfig::builder()
            .hardened(true)
            .stage_edges(1)
            .build()
            .is_err());
        assert!(TcConfig::builder()
            .hardened(true)
            .stage_edges(2)
            .build()
            .is_ok());
        // Plain sessions keep the old floor.
        assert!(TcConfig::builder().stage_edges(1).build().is_ok());
    }
}
