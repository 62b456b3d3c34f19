//! Multi-rank clusters: R independent backends behind one [`PimBackend`].
//!
//! The paper's layout caps one UPMEM-style machine at Binom(C+2,3)
//! partitions, so total capacity is fixed by a single rank's DPU budget.
//! Real deployments scale by adding ranks. A [`RankCluster`] owns R
//! backends — each with its own cost accounting, fault-decision stream,
//! and metrics attachment — and presents them as one flat DPU space:
//!
//! * **Global ids.** Partitions keep their triplet ids (`0..P`, split
//!   into contiguous per-rank shards), followed by per-rank spare blocks
//!   (`P + r·s .. P + (r+1)·s`). Orchestrators keep addressing partition
//!   `t` as DPU `t`, exactly as on a single backend.
//! * **Fan-out.** `push` groups host writes by owning rank (ids rewritten
//!   to rank-local), `gather`/`execute` scatter per-rank results back
//!   into global order, and errors are remapped to global ids.
//! * **Time.** Ranks run in parallel in the modeled machine: phase times
//!   are the elementwise **max** over ranks. Host seconds are charged to
//!   every rank, so each rank's clock reads host + its own PIM time and
//!   the max is the cluster wall-clock. Everything else in the ranks'
//!   [`Ledger`]s (bytes, fault counters, kernel aggregates) and their
//!   energy **sum**.
//! * **Identity.** A 1-rank cluster forwards every call verbatim, so
//!   R = 1 is bit-identical to driving the backend directly — counts,
//!   reports, and metric streams.
//!
//! Each rank derives its own [`FaultPlan`] from the cluster-wide plan
//! ([`ClusterSpec::rank_fault_plan`]): rank 0 keeps the original seed
//! (preserving the R = 1 identity), later ranks remix it, and `kill`
//! entries are interpreted as *global* ids and routed to the owning rank
//! — so a kill schedule aimed at one rank leaves the others' decision
//! streams untouched.

use crate::backend::PimBackend;
use crate::config::PimConfig;
use crate::cost::{CostModel, SimSeconds};
use crate::dpu::Dpu;
use crate::energy::EnergyReport;
use crate::error::{SimError, SimResult};
use crate::fault::{
    splitmix64, DpuKill, FaultPlan, RankKill, MAX_KILLS, MAX_RANK_KILLS, RANK_AT_COUNT,
};
use crate::kernel::DpuContext;
use crate::phase::Phase;
use crate::stats::Ledger;
use crate::system::HostWrite;
use crate::trace::Trace;
use pim_metrics::MetricsHub;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Shape of a multi-rank cluster: how many triplet partitions are spread
/// over how many ranks, and how many spare cores each rank reserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Triplet partitions (global DPU ids `0..partitions`).
    pub partitions: usize,
    /// Spare cores per rank (global ids `partitions + r·s .. + s`).
    pub spares_per_rank: usize,
    /// Number of ranks (≥ 1).
    pub ranks: usize,
}

impl ClusterSpec {
    /// A cluster shape; `ranks` must be at least 1.
    pub fn new(partitions: usize, spares_per_rank: usize, ranks: usize) -> ClusterSpec {
        assert!(ranks >= 1, "a cluster needs at least one rank");
        ClusterSpec {
            partitions,
            spares_per_rank,
            ranks,
        }
    }

    /// Total DPUs across the cluster (partitions + all spare blocks).
    pub fn total_dpus(&self) -> usize {
        self.partitions + self.ranks * self.spares_per_rank
    }

    /// The contiguous partition shard owned by `rank`:
    /// `⌊r·P/R⌋ .. ⌊(r+1)·P/R⌋` (balanced within one partition).
    pub fn partition_range(&self, rank: usize) -> Range<usize> {
        let lo = rank * self.partitions / self.ranks;
        let hi = (rank + 1) * self.partitions / self.ranks;
        lo..hi
    }

    /// The rank owning partition `p`.
    pub fn rank_of_partition(&self, p: usize) -> usize {
        debug_assert!(p < self.partitions);
        let r = ((p + 1) * self.ranks).saturating_sub(1) / self.partitions.max(1);
        debug_assert!(self.partition_range(r).contains(&p));
        r
    }

    /// The rank owning global DPU id `dpu` (partition or spare).
    pub fn rank_of_dpu(&self, dpu: usize) -> usize {
        if dpu < self.partitions {
            self.rank_of_partition(dpu)
        } else {
            (dpu - self.partitions) / self.spares_per_rank.max(1)
        }
    }

    /// DPUs allocated on `rank` (its partition shard plus its spares).
    pub fn rank_nr_dpus(&self, rank: usize) -> usize {
        self.partition_range(rank).len() + self.spares_per_rank
    }

    /// Global ids of `rank`'s spare block.
    pub fn spare_range(&self, rank: usize) -> Range<usize> {
        let lo = self.partitions + rank * self.spares_per_rank;
        lo..lo + self.spares_per_rank
    }

    /// Maps a global DPU id to `(rank, local id)`. Within a rank, locals
    /// `0..shard_len` are the partition shard in order, then the spares.
    pub fn local_id(&self, dpu: usize) -> (usize, usize) {
        debug_assert!(dpu < self.total_dpus());
        if dpu < self.partitions {
            let rank = self.rank_of_partition(dpu);
            (rank, dpu - self.partition_range(rank).start)
        } else {
            let rank = (dpu - self.partitions) / self.spares_per_rank;
            let slot = (dpu - self.partitions) % self.spares_per_rank;
            (rank, self.partition_range(rank).len() + slot)
        }
    }

    /// The flat global → `(rank, local)` route table.
    pub fn route_table(&self) -> Vec<(u32, u32)> {
        (0..self.total_dpus())
            .map(|g| {
                let (r, l) = self.local_id(g);
                (r as u32, l as u32)
            })
            .collect()
    }

    /// Derives `rank`'s fault plan from the cluster-wide plan: rank 0
    /// keeps the original decision-stream seed (so R = 1 is an exact
    /// identity), later ranks remix it; `kill` entries name *global* DPU
    /// ids and are rewritten to rank-local ids on the owning rank only.
    pub fn rank_fault_plan(&self, plan: &FaultPlan, rank: usize) -> FaultPlan {
        if self.ranks == 1 && !plan.has_rank_faults() {
            return *plan;
        }
        let mut derived = *plan;
        if rank > 0 {
            derived.seed = splitmix64(plan.seed ^ rank as u64);
        }
        let mut kills = [None; MAX_KILLS];
        let mut n = 0;
        for kill in plan.kills.into_iter().flatten() {
            if kill.dpu >= self.total_dpus() {
                continue;
            }
            let (r, local) = self.local_id(kill.dpu);
            if r == rank {
                kills[n] = Some(DpuKill {
                    dpu: local,
                    at_op: kill.at_op,
                });
                n += 1;
            }
        }
        derived.kills = kills;
        // `rank_flaky=R:PPM` folds into the target rank's transient
        // transfer rate — the rank's own decision stream and the cluster's
        // rank-local retry loop then model the flaky interconnect.
        for flaky in plan.rank_flaky.into_iter().flatten() {
            if flaky.rank == rank {
                derived.transfer_fail_ppm = derived.transfer_fail_ppm.max(flaky.ppm);
            }
        }
        // Rank-level entries are executed by the cluster layer, never by
        // the per-rank backends; strip them from the derived plans.
        derived.rank_kills = [None; MAX_RANK_KILLS];
        derived.rank_flaky = [None; MAX_RANK_KILLS];
        derived
    }
}

/// Remaps a rank-local [`SimError`] to the cluster's global id space.
fn remap_err(inverse: &[Vec<u32>], total: usize, rank: usize, e: SimError) -> SimError {
    let to_global = |local: usize| -> usize {
        inverse[rank]
            .get(local)
            .map(|&g| g as usize)
            .unwrap_or(local)
    };
    match e {
        SimError::MramOverflow {
            dpu,
            requested,
            capacity,
        } => SimError::MramOverflow {
            dpu: to_global(dpu),
            requested,
            capacity,
        },
        SimError::WramOverflow {
            dpu,
            tasklet,
            requested,
            available,
        } => SimError::WramOverflow {
            dpu: to_global(dpu),
            tasklet,
            requested,
            available,
        },
        SimError::BadAddress { dpu, offset, len } => SimError::BadAddress {
            dpu: to_global(dpu),
            offset,
            len,
        },
        SimError::BadDma { dpu, len, rule } => SimError::BadDma {
            dpu: to_global(dpu),
            len,
            rule,
        },
        SimError::NoSuchDpu { dpu, .. } => SimError::NoSuchDpu {
            dpu: to_global(dpu),
            allocated: total,
        },
        SimError::DpuDead { dpu } => SimError::DpuDead {
            dpu: to_global(dpu),
        },
        other => other,
    }
}

/// Rank-local retries of transient faults before one is surfaced. Each
/// attempt redraws from the rank's own fault stream, so with any sane
/// fault probability the cap is unreachable; it exists as a backstop.
const RANK_RETRY_CAP: u32 = 64;

/// Modeled host seconds charged to the *failing rank only* for each
/// rank-local retry (capped exponential backoff, mirroring the session's
/// policy). The other ranks are not blocked: their op already completed.
const RANK_RETRY_BACKOFF_BASE: f64 = 1e-4;

/// Re-issues `op` against one rank until it stops failing transiently.
///
/// Transient faults (transfer/launch) are decided before any mutation,
/// so the retried op is exact. Retrying *here* — instead of surfacing
/// the error for the session to retry the cluster-level op — is what
/// keeps the machine contract "Err ⇒ nothing mutated" at R > 1: ranks
/// that already completed the op must never see it a second time.
fn retry_transient<B: PimBackend, T>(
    rank: &mut B,
    label: &str,
    mut op: impl FnMut(&mut B) -> SimResult<T>,
) -> SimResult<T> {
    let mut failures = 0u32;
    loop {
        match op(rank) {
            Err(e) if e.is_transient() && failures < RANK_RETRY_CAP => {
                failures += 1;
                let backoff = RANK_RETRY_BACKOFF_BASE * f64::from(1u32 << failures.min(6));
                rank.charge_host_seconds_labeled(&format!("retry:{label}"), backoff);
            }
            other => return other,
        }
    }
}

/// R independent backends presented as one flat [`PimBackend`] (see the
/// module docs for the id layout and time semantics).
pub struct RankCluster<B> {
    spec: ClusterSpec,
    ranks: Vec<B>,
    /// Global DPU id → (rank, local id).
    route: Vec<(u32, u32)>,
    /// Rank → local id → global id.
    inverse: Vec<Vec<u32>>,
    phase: Phase,
    /// `rank=R@OP` entries from the cluster plan that have not fired yet.
    /// Only the cluster layer can execute these: a rank outage exceeds the
    /// per-backend kill budget and crosses its id space.
    pending_rank_kills: Vec<RankKill>,
    /// Which ranks have died (whole-rank failure domain).
    rank_dead: Vec<bool>,
    /// Cluster-level operation counter driving `rank=R@OP` schedules.
    /// Advances only while rank kills are pending, so fault-free clusters
    /// stay byte-identical to pre-rank-fault builds.
    cluster_ops: u64,
    /// Whole-rank deaths injected so far.
    rank_deaths: u64,
    /// Hub for `rank_dead` fault events (stored by `attach_metrics`).
    hub: Option<Arc<MetricsHub>>,
}

impl<B: PimBackend> RankCluster<B> {
    /// Allocates one backend per rank under `spec`, deriving each rank's
    /// fault plan from the cluster-wide one in `config.fault`.
    pub fn allocate_cluster(
        spec: ClusterSpec,
        config: PimConfig,
        cost: CostModel,
    ) -> SimResult<RankCluster<B>> {
        let mut ranks = Vec::with_capacity(spec.ranks);
        for r in 0..spec.ranks {
            let mut rank_config = config;
            if let Some(plan) = config.fault {
                rank_config.fault = Some(spec.rank_fault_plan(&plan, r));
            }
            ranks.push(B::allocate(spec.rank_nr_dpus(r), rank_config, cost)?);
        }
        let mut cluster = RankCluster::from_parts(spec, ranks);
        if let Some(plan) = config.fault {
            cluster.pending_rank_kills = plan
                .rank_kills
                .into_iter()
                .flatten()
                .filter(|k| k.rank < spec.ranks)
                .collect();
        }
        Ok(cluster)
    }

    fn from_parts(spec: ClusterSpec, ranks: Vec<B>) -> RankCluster<B> {
        assert_eq!(ranks.len(), spec.ranks, "one backend per rank");
        let route = spec.route_table();
        let mut inverse: Vec<Vec<u32>> = (0..spec.ranks)
            .map(|r| vec![u32::MAX; spec.rank_nr_dpus(r)])
            .collect();
        for (global, &(r, l)) in route.iter().enumerate() {
            inverse[r as usize][l as usize] = global as u32;
        }
        debug_assert!(inverse.iter().flatten().all(|&g| g != u32::MAX));
        RankCluster {
            spec,
            ranks,
            route,
            inverse,
            phase: Phase::Setup,
            pending_rank_kills: Vec::new(),
            rank_dead: vec![false; spec.ranks],
            cluster_ops: 0,
            rank_deaths: 0,
            hub: None,
        }
    }

    /// The cluster's shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of ranks.
    pub fn nr_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The per-rank backends, rank order (for per-rank reporting).
    pub fn rank_backends(&self) -> &[B] {
        &self.ranks
    }

    /// Each rank's recorded trace, rank order (empty traces unless tracing
    /// was enabled). Feed to [`crate::to_chrome_trace_cluster`] to export
    /// an R>1 run with per-rank process groups.
    pub fn rank_traces(&self) -> Vec<&Trace> {
        self.ranks.iter().map(|b| b.trace()).collect()
    }

    /// The global id of `local` on `rank`.
    pub fn global_id(&self, rank: usize, local: usize) -> usize {
        self.inverse[rank][local] as usize
    }

    /// Whether `rank` has died (whole-rank failure domain).
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.rank_dead.get(rank).copied().unwrap_or(false)
    }

    /// True while rank-level faults demand cluster-level bookkeeping:
    /// either kills are still scheduled or a rank has already died. When
    /// false every op takes the zero-overhead fast path, preserving the
    /// R = 1 verbatim identity and fault-free byte-identity.
    fn rank_faults_armed(&self) -> bool {
        !self.pending_rank_kills.is_empty() || self.rank_deaths > 0
    }

    /// Advances the cluster op counter and fires any due `rank=R@OP`
    /// schedules. `rank=R@count` entries fire at the first operation of
    /// the Triangle Count phase.
    fn rank_fault_step(&mut self) {
        if self.pending_rank_kills.is_empty() {
            return;
        }
        let op = self.cluster_ops;
        self.cluster_ops += 1;
        let counting = self.phase == Phase::TriangleCount;
        let mut i = 0;
        while i < self.pending_rank_kills.len() {
            let kill = self.pending_rank_kills[i];
            let due = if kill.at_op == RANK_AT_COUNT {
                counting
            } else {
                kill.at_op <= op
            };
            if !due {
                i += 1;
                continue;
            }
            self.pending_rank_kills.remove(i);
            if !self.rank_dead[kill.rank] {
                self.rank_dead[kill.rank] = true;
                self.rank_deaths += 1;
                if let Some(hub) = &self.hub {
                    hub.with_rank(kill.rank as u32).fault(
                        "rank_dead",
                        self.phase.metric_name(),
                        op,
                        None,
                    );
                }
            }
        }
    }
}

impl<B: PimBackend> PimBackend for RankCluster<B> {
    /// A degenerate single-rank cluster: every call forwards verbatim to
    /// the one backend, making it bit-identical to driving `B` directly.
    fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self> {
        RankCluster::allocate_cluster(ClusterSpec::new(nr_dpus, 0, 1), config, cost)
    }

    fn nr_dpus(&self) -> usize {
        self.route.len()
    }

    fn config(&self) -> &PimConfig {
        self.ranks[0].config()
    }

    fn cost(&self) -> &CostModel {
        self.ranks[0].cost()
    }

    fn dpu(&self, id: usize) -> SimResult<&Dpu> {
        let Some(&(r, l)) = self.route.get(id) else {
            return Err(SimError::NoSuchDpu {
                dpu: id,
                allocated: self.route.len(),
            });
        };
        // A dead rank's banks are unreachable — unlike a dead core, whose
        // bank a recovery controller can still read from surviving rank
        // hardware. Recovery must come from replicas or journals.
        if self.rank_dead[r as usize] {
            return Err(SimError::DpuDead { dpu: id });
        }
        self.ranks[r as usize]
            .dpu(l as usize)
            .map_err(|e| remap_err(&self.inverse, self.route.len(), r as usize, e))
    }

    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu> {
        let Some(&(r, l)) = self.route.get(id) else {
            return Err(SimError::NoSuchDpu {
                dpu: id,
                allocated: self.route.len(),
            });
        };
        if self.rank_dead[r as usize] {
            return Err(SimError::DpuDead { dpu: id });
        }
        let total = self.route.len();
        let inverse = &self.inverse;
        self.ranks[r as usize]
            .dpu_mut(l as usize)
            .map_err(|e| remap_err(inverse, total, r as usize, e))
    }

    fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
        for b in &mut self.ranks {
            b.set_phase(phase);
        }
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    /// The ranks' ledgers folded into one (max of phase times, sum of the
    /// rest), plus the whole-rank deaths only the cluster sees.
    fn ledger(&self) -> Ledger {
        let mut total = Ledger::default();
        for b in &self.ranks {
            total.merge_rank(b.ledger());
        }
        total.faults.rank_deaths += self.rank_deaths;
        total
    }

    fn enable_tracing(&mut self) {
        for b in &mut self.ranks {
            b.enable_tracing();
        }
    }

    /// With one rank the hub is forwarded untouched (byte-compatible
    /// streams); with more, each rank gets a rank-scoped view of the hub
    /// so its events and series carry a `rank` label.
    fn attach_metrics(&mut self, hub: Arc<MetricsHub>) {
        self.hub = Some(Arc::clone(&hub));
        if self.ranks.len() == 1 {
            self.ranks[0].attach_metrics(hub);
        } else {
            for (r, b) in self.ranks.iter_mut().enumerate() {
                b.attach_metrics(hub.with_rank(r as u32));
            }
        }
    }

    /// Rank 0's trace; [`RankCluster::rank_traces`] has every rank's.
    /// Launch attribution over all ranks is in [`PimBackend::ledger`].
    fn trace(&self) -> &Trace {
        self.ranks[0].trace()
    }

    /// Host work blocks every rank: each rank's clock advances by the
    /// host seconds, so per-rank clocks read host + own PIM time and the
    /// elementwise max stays the true wall-clock.
    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds) {
        for b in &mut self.ranks {
            b.charge_host_seconds_labeled(label, seconds);
        }
    }

    fn push(&mut self, writes: Vec<HostWrite>) -> SimResult<()> {
        let armed = self.rank_faults_armed();
        if self.ranks.len() == 1 && !armed {
            return self.ranks[0].push(writes);
        }
        if armed {
            self.rank_fault_step();
        }
        let mut per_rank: Vec<Vec<HostWrite>> = (0..self.ranks.len()).map(|_| Vec::new()).collect();
        for mut w in writes {
            let Some(&(r, l)) = self.route.get(w.dpu) else {
                return Err(SimError::NoSuchDpu {
                    dpu: w.dpu,
                    allocated: self.route.len(),
                });
            };
            w.dpu = l as usize;
            per_rank[r as usize].push(w);
        }
        // A write aimed at a dead rank fails the batch atomically (before
        // any rank mutates), surfacing the victim's *global* id so the
        // orchestrator can fail the partition over to a surviving rank.
        for (r, batch) in per_rank.iter().enumerate() {
            if self.rank_dead[r] {
                if let Some(w) = batch.first() {
                    return Err(SimError::DpuDead {
                        dpu: self.inverse[r][w.dpu] as usize,
                    });
                }
            }
        }
        let total = self.route.len();
        let inverse = &self.inverse;
        for (r, batch) in per_rank.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            retry_transient(&mut self.ranks[r], "push", |b| b.push(batch.clone()))
                .map_err(|e| remap_err(inverse, total, r, e))?;
        }
        Ok(())
    }

    fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()> {
        let armed = self.rank_faults_armed();
        if self.ranks.len() == 1 && !armed {
            return self.ranks[0].broadcast(offset, data);
        }
        if armed {
            self.rank_fault_step();
        }
        let total = self.route.len();
        let inverse = &self.inverse;
        let dead = &self.rank_dead;
        for (r, b) in self.ranks.iter_mut().enumerate() {
            // Dead ranks are skipped, mirroring how a single system's
            // broadcast skips dead DPUs instead of failing.
            if dead[r] {
                continue;
            }
            retry_transient(b, "broadcast", |b| b.broadcast(offset, data))
                .map_err(|e| remap_err(inverse, total, r, e))?;
        }
        Ok(())
    }

    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>> {
        let armed = self.rank_faults_armed();
        if self.ranks.len() == 1 && !armed {
            return self.ranks[0].gather(offset, len);
        }
        if armed {
            self.rank_fault_step();
        }
        let total = self.route.len();
        let inverse = &self.inverse;
        let dead = &self.rank_dead;
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); total];
        for (r, b) in self.ranks.iter_mut().enumerate() {
            // Dead ranks answer with zeroed tombstones, mirroring how a
            // single system gathers from dead DPUs; verified gathers catch
            // them by checksum.
            if dead[r] {
                for &g in &inverse[r] {
                    out[g as usize] = vec![0u8; len as usize];
                }
                continue;
            }
            let locals = b
                .gather(offset, len)
                .map_err(|e| remap_err(inverse, total, r, e))?;
            for (l, data) in locals.into_iter().enumerate() {
                out[inverse[r][l] as usize] = data;
            }
        }
        Ok(out)
    }

    fn execute_labeled<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized,
    {
        let armed = self.rank_faults_armed();
        if self.ranks.len() == 1 && !armed {
            return self.ranks[0].execute_labeled(label, kernel);
        }
        if armed {
            self.rank_fault_step();
        }
        // A strict launch cannot produce results for a dead rank's DPUs;
        // fail atomically with the rank's first global id, before any
        // surviving rank runs the kernel.
        if let Some(r) = (0..self.ranks.len()).find(|&r| self.rank_dead[r]) {
            return Err(SimError::DpuDead {
                dpu: self.inverse[r][0] as usize,
            });
        }
        let total = self.route.len();
        let inverse = &self.inverse;
        let mut out: Vec<Option<R>> = (0..total).map(|_| None).collect();
        for (r, b) in self.ranks.iter_mut().enumerate() {
            let results = retry_transient(b, label, |b| b.execute_labeled(label, &kernel))
                .map_err(|e| remap_err(inverse, total, r, e))?;
            for (l, v) in results.into_iter().enumerate() {
                out[inverse[r][l] as usize] = Some(v);
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("route table covers every global id"))
            .collect())
    }

    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized,
    {
        let armed = self.rank_faults_armed();
        if self.ranks.len() == 1 && !armed {
            return self.ranks[0].execute_labeled_masked(label, kernel);
        }
        if armed {
            self.rank_fault_step();
        }
        let total = self.route.len();
        let inverse = &self.inverse;
        let dead = &self.rank_dead;
        let mut out: Vec<Option<R>> = (0..total).map(|_| None).collect();
        for (r, b) in self.ranks.iter_mut().enumerate() {
            // A dead rank's slots stay `None` — exactly how masked callers
            // learn about core deaths, now scaled to the rank domain.
            if dead[r] {
                continue;
            }
            let mut failures = 0u32;
            let mut deaths = 0u32;
            let results = loop {
                match b.execute_labeled_masked(label, &kernel) {
                    Ok(res) => break res,
                    Err(e) if e.is_transient() && failures < RANK_RETRY_CAP => {
                        failures += 1;
                        let backoff = RANK_RETRY_BACKOFF_BASE * f64::from(1u32 << failures.min(6));
                        b.charge_host_seconds_labeled(&format!("retry:{label}"), backoff);
                    }
                    // A kill decided at launch time aborts the rank's
                    // launch before any DPU runs. Re-issue: the victim is
                    // now masked to `None`, which is exactly how masked
                    // callers learn about deaths — surfacing the error
                    // instead would make the session repeat the op on
                    // ranks that already completed it.
                    Err(SimError::DpuDead { .. }) if deaths <= MAX_KILLS as u32 => deaths += 1,
                    Err(e) => return Err(remap_err(inverse, total, r, e)),
                }
            };
            for (l, v) in results.into_iter().enumerate() {
                out[inverse[r][l] as usize] = v;
            }
        }
        Ok(out)
    }

    fn is_dpu_lost(&self, dpu: usize) -> bool {
        match self.route.get(dpu) {
            Some(&(r, l)) => {
                self.rank_dead[r as usize] || self.ranks[r as usize].is_dpu_lost(l as usize)
            }
            None => false,
        }
    }

    fn energy_report(&self) -> EnergyReport {
        let mut total = EnergyReport::default();
        for e in self.ranks.iter().map(PimBackend::energy_report) {
            total.instr_j += e.instr_j;
            total.dma_j += e.dma_j;
            total.transfer_j += e.transfer_j;
            total.static_j += e.static_j;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FunctionalBackend;
    use crate::phase::PhaseTimes;
    use crate::stats::SystemReport;
    use crate::system::PimSystem;

    #[test]
    fn spec_partitions_are_contiguous_and_balanced() {
        for (parts, ranks) in [(10, 4), (7, 3), (1, 1), (5, 5), (120, 4)] {
            let spec = ClusterSpec::new(parts, 2, ranks);
            let mut seen = 0;
            for r in 0..ranks {
                let range = spec.partition_range(r);
                assert_eq!(range.start, seen);
                seen = range.end;
                for p in range.clone() {
                    assert_eq!(spec.rank_of_partition(p), r);
                    let (rr, local) = spec.local_id(p);
                    assert_eq!(rr, r);
                    assert_eq!(p, range.start + local);
                }
                // Shard sizes differ by at most one.
                assert!(range.len().abs_diff(parts / ranks) <= 1);
            }
            assert_eq!(seen, parts);
            assert_eq!(spec.total_dpus(), parts + ranks * 2);
        }
    }

    #[test]
    fn route_table_is_a_bijection() {
        let spec = ClusterSpec::new(11, 2, 3);
        let route = spec.route_table();
        assert_eq!(route.len(), spec.total_dpus());
        let mut hits = vec![0u32; spec.total_dpus()];
        for (global, &(r, l)) in route.iter().enumerate() {
            let back = spec.partition_range(r as usize);
            let shard = back.len();
            // Locals: shard first, spares after.
            assert!((l as usize) < shard + spec.spares_per_rank);
            assert_eq!(spec.local_id(global), (r as usize, l as usize));
            hits[global] += 1;
        }
        assert!(hits.iter().all(|&h| h == 1));
        // Spares live after every partition, per-rank blocks in order.
        for r in 0..3 {
            for g in spec.spare_range(r) {
                assert_eq!(spec.rank_of_dpu(g), r);
            }
        }
    }

    #[test]
    fn single_rank_fault_plan_is_the_identity() {
        let plan = FaultPlan::parse("seed=7,transfer=1000,kill=3@5").unwrap();
        let spec = ClusterSpec::new(6, 1, 1);
        assert_eq!(spec.rank_fault_plan(&plan, 0), plan);
    }

    #[test]
    fn multi_rank_fault_plans_route_kills_and_remix_seeds() {
        let plan = FaultPlan::parse("seed=7,transfer=1000,kill=0@5,kill=9@9").unwrap();
        let spec = ClusterSpec::new(8, 1, 4); // shards of 2, spares at 8..12
        let p0 = spec.rank_fault_plan(&plan, 0);
        assert_eq!(p0.seed, plan.seed, "rank 0 keeps the seed");
        assert_eq!(
            p0.kills[0],
            Some(DpuKill { dpu: 0, at_op: 5 }),
            "global 0 is rank 0 local 0"
        );
        assert_eq!(p0.kills[1], None, "global 9 (a spare) is not rank 0's");
        let p1 = spec.rank_fault_plan(&plan, 1);
        assert_ne!(p1.seed, plan.seed, "later ranks remix the seed");
        assert_eq!(
            p1.kills[0],
            Some(DpuKill { dpu: 2, at_op: 9 }),
            "global 9 = rank 1's spare, local 2 after its 2-partition shard"
        );
        // Rates ride along unchanged.
        assert_eq!(p1.transfer_fail_ppm, plan.transfer_fail_ppm);
    }

    #[test]
    fn cluster_fans_out_and_gathers_in_global_order() {
        let spec = ClusterSpec::new(6, 0, 3);
        let mut cluster = RankCluster::<FunctionalBackend>::allocate_cluster(
            spec,
            PimConfig::tiny(),
            CostModel::default(),
        )
        .unwrap();
        assert_eq!(cluster.nr_dpus(), 6);
        assert_eq!(cluster.nr_ranks(), 3);
        let writes: Vec<HostWrite> = (0..6)
            .map(|dpu| HostWrite {
                dpu,
                offset: 0,
                data: vec![dpu as u8 + 1; 8],
            })
            .collect();
        cluster.push(writes).unwrap();
        let banks = cluster.gather(0, 8).unwrap();
        for (dpu, bank) in banks.iter().enumerate() {
            assert_eq!(bank, &vec![dpu as u8 + 1; 8], "global order preserved");
        }
        // Kernels see rank-local machines; results come back global.
        let sums = cluster
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                let mut buf = [0u8; 8];
                t.mram_read(0, &mut buf)?;
                Ok(buf.iter().map(|&b| b as u64).sum::<u64>())
            })
            .unwrap();
        assert_eq!(sums, vec![8, 16, 24, 32, 40, 48]);
    }

    #[test]
    fn cluster_times_are_max_and_resources_sum() {
        let spec = ClusterSpec::new(4, 0, 2);
        let mut cluster = RankCluster::<PimSystem>::allocate_cluster(
            spec,
            PimConfig::tiny(),
            CostModel::default(),
        )
        .unwrap();
        cluster.set_phase(Phase::TriangleCount);
        cluster
            .execute(|ctx| {
                let work = (ctx.dpu_id() as u64 + 1) * 100;
                let mut t = ctx.tasklet(0)?;
                t.charge(work);
                Ok(())
            })
            .unwrap();
        let per_rank: Vec<PhaseTimes> = cluster
            .rank_backends()
            .iter()
            .map(|b| b.phase_times())
            .collect();
        let times = cluster.phase_times();
        let max = per_rank
            .iter()
            .map(|t| t.triangle_count)
            .fold(0.0f64, f64::max);
        assert_eq!(times.triangle_count, max);
        let insts: u64 = cluster
            .rank_backends()
            .iter()
            .map(|b| SystemReport::capture(b).total_instructions)
            .sum();
        assert_eq!(SystemReport::capture(&cluster).total_instructions, insts);
        assert_eq!(cluster.rank_backends().len(), 2);
        // Kernel aggregates sum over ranks: one launch each, and the
        // slowest cores' cycles (rank 0: 2·1100, rank 1: 2·1100) add up.
        let kernels = cluster.ledger().kernels;
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].launches, 2);
        assert_eq!(kernels[0].max_cycles, 2200 + 2200);
        // Host seconds are charged to every rank (blocking work).
        let before = cluster.phase_times().triangle_count;
        cluster.charge_host_seconds_labeled("route", 0.5);
        let after = cluster.phase_times();
        assert!((after.triangle_count - before - 0.5).abs() < 1e-12);
        for b in cluster.rank_backends() {
            assert!(b.phase_times().triangle_count >= 0.5);
        }
    }

    #[test]
    fn kills_in_one_rank_leave_other_ranks_untouched() {
        let plan = FaultPlan::parse("seed=11,kill=1@0").unwrap();
        let spec = ClusterSpec::new(4, 0, 2);
        let config = PimConfig {
            fault: Some(plan),
            ..PimConfig::tiny()
        };
        let mut cluster =
            RankCluster::<FunctionalBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        // Global DPU 1 (rank 0, local 1) dies at the first op. The op
        // that observes the death errors once — with the *global* id —
        // and later masked launches skip it while rank 1's DPUs
        // (globals 2, 3) keep working.
        let err = cluster
            .execute_labeled("strict", |ctx| {
                let mut t = ctx.tasklet(0)?;
                t.charge(1);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, SimError::DpuDead { dpu: 1 });
        let results = cluster
            .execute_labeled_masked("probe", |ctx| {
                let mut t = ctx.tasklet(0)?;
                t.charge(1);
                Ok(ctx.dpu_id())
            })
            .unwrap();
        assert!(results[0].is_some());
        assert!(results[1].is_none(), "killed DPU masked");
        assert!(results[2].is_some() && results[3].is_some());
        assert!(cluster.is_dpu_lost(1));
        assert!(!cluster.is_dpu_lost(2));
        assert_eq!(cluster.fault_counters().dpu_deaths, 1);
    }

    #[test]
    fn rank_death_masks_the_whole_rank_and_counts_once() {
        let plan = FaultPlan::parse("seed=3,rank=0@1").unwrap();
        let spec = ClusterSpec::new(4, 1, 2); // shards of 2, spares at 4, 5
        let config = PimConfig {
            fault: Some(plan),
            ..PimConfig::tiny()
        };
        let mut cluster =
            RankCluster::<FunctionalBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        // Op 0: everything alive — baseline data lands on every bank.
        cluster.broadcast(0, &[1u8; 8]).unwrap();
        // Op 1: rank 0 dies — its shard (globals 0, 1) and its spare
        // (global 4) all mask to None; rank 1 keeps working.
        let second = cluster
            .execute_labeled_masked("probe", |ctx| {
                let mut t = ctx.tasklet(0)?;
                t.charge(1);
                Ok(ctx.dpu_id())
            })
            .unwrap();
        assert!(second[0].is_none() && second[1].is_none() && second[4].is_none());
        assert!(second[2].is_some() && second[3].is_some() && second[5].is_some());
        for g in [0usize, 1, 4] {
            assert!(cluster.is_dpu_lost(g));
            assert!(matches!(cluster.dpu(g), Err(SimError::DpuDead { .. })));
        }
        assert!(!cluster.is_dpu_lost(2));
        assert!(cluster.is_rank_dead(0) && !cluster.is_rank_dead(1));
        // One rank death, no per-core deaths; counted exactly once even
        // though three DPUs went dark.
        let counters = cluster.fault_counters();
        assert_eq!(counters.rank_deaths, 1);
        assert_eq!(counters.dpu_deaths, 0);
        // Pushes to the dead rank fail atomically with a global id; the
        // survivors still accept data.
        let err = cluster
            .push(vec![HostWrite {
                dpu: 1,
                offset: 0,
                data: vec![7; 8],
            }])
            .unwrap_err();
        assert_eq!(err, SimError::DpuDead { dpu: 1 });
        cluster
            .push(vec![HostWrite {
                dpu: 2,
                offset: 0,
                data: vec![9; 8],
            }])
            .unwrap();
        // Gathers answer zeroed tombstones for the dead rank.
        let banks = cluster.gather(0, 8).unwrap();
        assert_eq!(banks[1], vec![0u8; 8]);
        assert_eq!(banks[2], vec![9u8; 8]);
        assert_eq!(banks[3], vec![1u8; 8], "survivor baseline intact");
        // Strict launches refuse to run while a rank is dark.
        assert!(matches!(
            cluster.execute_labeled("strict", |ctx| {
                let mut t = ctx.tasklet(0)?;
                t.charge(1);
                Ok(())
            }),
            Err(SimError::DpuDead { .. })
        ));
    }

    #[test]
    fn system_report_captures_through_a_dead_rank_with_zeroed_rows() {
        let plan = FaultPlan::parse("seed=3,rank=0@1").unwrap();
        let spec = ClusterSpec::new(4, 1, 2);
        let config = PimConfig {
            fault: Some(plan),
            ..PimConfig::tiny()
        };
        let mut cluster =
            RankCluster::<FunctionalBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        cluster.broadcast(0, &[1u8; 8]).unwrap(); // op 0: all alive
        cluster.gather(0, 8).unwrap(); // op 1: rank 0 dies
        assert!(cluster.is_rank_dead(0));
        // The dead rank's cores are unreachable, so the report must not
        // panic trying to read their counters: their rows are zeroed
        // tombstones and the id space stays dense.
        let report = SystemReport::capture(&cluster);
        assert_eq!(report.per_dpu.len(), cluster.nr_dpus());
        for row in &report.per_dpu {
            assert_eq!(row.dpu, report.per_dpu[row.dpu].dpu);
            let lost = cluster.is_dpu_lost(row.dpu);
            if lost {
                assert_eq!((row.instructions, row.dma_bytes, row.mram_used), (0, 0, 0));
            }
        }
        // Survivor rows keep their real MRAM occupancy from the broadcast.
        assert!(report.per_dpu.iter().any(|r| r.mram_used > 0));
        assert_eq!(report.fault_counters.rank_deaths, 1);
    }

    #[test]
    fn rank_at_count_fires_on_the_first_count_phase_op() {
        let plan = FaultPlan::parse("seed=3,rank=1@count").unwrap();
        let spec = ClusterSpec::new(4, 0, 2);
        let config = PimConfig {
            fault: Some(plan),
            ..PimConfig::tiny()
        };
        let mut cluster =
            RankCluster::<FunctionalBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        // Many ops outside the Triangle Count phase: nothing fires.
        cluster.set_phase(Phase::SampleCreation);
        for _ in 0..8 {
            cluster.broadcast(0, &[1u8; 4]).unwrap();
        }
        assert_eq!(cluster.fault_counters().rank_deaths, 0);
        // The first op inside the count phase kills the rank.
        cluster.set_phase(Phase::TriangleCount);
        let banks = cluster.gather(0, 4).unwrap();
        assert_eq!(cluster.fault_counters().rank_deaths, 1);
        assert!(cluster.is_rank_dead(1));
        assert_eq!(banks[3], vec![0u8; 4], "dead shard tombstoned");
        assert_eq!(banks[0], vec![1u8; 4], "survivor data intact");
    }

    #[test]
    fn rank_flaky_derives_into_the_target_ranks_transfer_rate() {
        let plan = FaultPlan::parse("seed=5,transfer=100,rank_flaky=1:40000").unwrap();
        let spec = ClusterSpec::new(4, 0, 2);
        let p0 = spec.rank_fault_plan(&plan, 0);
        let p1 = spec.rank_fault_plan(&plan, 1);
        assert_eq!(p0.transfer_fail_ppm, 100, "other ranks keep the base rate");
        assert_eq!(p1.transfer_fail_ppm, 40000, "flaky rank gets the max");
        assert!(
            !p0.has_rank_faults() && !p1.has_rank_faults(),
            "rank entries never reach per-rank backends"
        );
        // The cluster's rank-local retry loop absorbs the flakiness: data
        // lands despite a 4% transfer-fault rate on rank 1.
        let config = PimConfig {
            fault: Some(plan),
            ..PimConfig::tiny()
        };
        let mut cluster =
            RankCluster::<FunctionalBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        for round in 0..32u8 {
            cluster.broadcast(0, &[round; 8]).unwrap();
        }
        // Inspect banks out-of-band (no fault path) so the check itself
        // cannot trip the flaky interconnect.
        for g in 0..cluster.nr_dpus() {
            let bank = cluster.dpu(g).unwrap().host_read(0, 8).unwrap();
            assert_eq!(bank, vec![31u8; 8]);
        }
        assert!(
            cluster.fault_counters().transfer_faults > 0,
            "a 4% rate over 32 broadcasts should have injected something"
        );
    }
}
