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
//! * **Fan-out.** One helper runs every op rank by rank, retries a
//!   transient fault on the failing rank only, and answers in global ids
//!   and global order. A dead rank follows the op's policy:
//!
//!   | op | dead rank |
//!   |---|---|
//!   | push | fails the batch if it holds writes, naming its first write's global id, before any rank mutates |
//!   | gather | zeroed tombstones |
//!   | masked launch | `None` slots |
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
    retry_backoff, splitmix64, DpuKill, FaultPlan, RankKill, MAX_KILLS, MAX_RANK_KILLS,
    RANK_AT_COUNT,
};
use crate::kernel::DpuContext;
use crate::phase::Phase;
use crate::stats::Ledger;
use crate::system::HostWrite;
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

/// Rank-local retries of transient faults before one is surfaced. Each
/// attempt redraws from the rank's own fault stream, so with any sane
/// fault probability the cap is unreachable; it exists as a backstop.
const RANK_RETRY_CAP: u32 = 64;

/// Remaps a rank-local [`SimError`] to the cluster's global id space.
fn remap_err(inverse: &[Vec<u32>], rank: usize, mut e: SimError) -> SimError {
    if let Some(dpu) = e.dpu_id_mut() {
        *dpu = inverse[rank].get(*dpu).map_or(*dpu, |&g| g as usize);
    }
    e
}

/// What a fan-out does with a dead rank (the module docs' policy table).
enum OnDead<'a, T> {
    /// Fail before any rank runs, naming the first core its share touches.
    Refuse,
    /// Answer each of the rank's global slots with a fresh filler.
    Fill(&'a dyn Fn() -> T),
}

/// One cluster op's fan-out policy.
struct FanOut<'a, T> {
    /// Rank-local retries are charged as `retry:{label}` host spans.
    label: &'a str,
    dead: OnDead<'a, T>,
    /// Whether kills decided at launch (at most [`MAX_KILLS`]) are absorbed
    /// by re-issuing the op on that rank, so victims answer masked `None`.
    absorb_kills: bool,
}

/// One rank's share of a fan-out, borrowed by every attempt.
trait Share {
    /// Rank-local id of the first core the share touches (`None`: none).
    fn first_local(&self) -> Option<usize>;
}

impl Share for &[HostWrite<'_>] {
    fn first_local(&self) -> Option<usize> {
        self.first().map(|w| w.dpu)
    }
}

/// Gathers and launches touch every rank.
impl Share for () {
    fn first_local(&self) -> Option<usize> {
        Some(0)
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

    /// Whether `rank` has died (whole-rank failure domain).
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.rank_dead.get(rank).copied().unwrap_or(false)
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
        let (due, pending) = (self.pending_rank_kills.iter())
            .partition(|k| k.at_op <= op || (k.at_op == RANK_AT_COUNT && counting));
        self.pending_rank_kills = pending;
        for kill in due {
            if !self.rank_dead[kill.rank] {
                self.rank_dead[kill.rank] = true;
                self.rank_deaths += 1;
                if let Some(hub) = &self.hub {
                    let rank = hub.with_rank(kill.rank as u32);
                    rank.fault("rank_dead", self.phase.metric_name(), op, None);
                }
            }
        }
    }

    /// Routes a global id to `(rank, local)`. A dead rank's banks are
    /// unreachable — unlike a dead core, whose bank a recovery controller
    /// can still read from surviving rank hardware — so recovery must
    /// come from replicas or journals.
    fn locate(&self, id: usize) -> SimResult<(usize, usize)> {
        let allocated = self.route.len();
        let &(r, l) = (self.route.get(id)).ok_or(SimError::NoSuchDpu { dpu: id, allocated })?;
        if self.rank_dead[r as usize] {
            return Err(SimError::DpuDead { dpu: id });
        }
        Ok((r as usize, l as usize))
    }

    /// The one rank fan-out: runs `op` on each rank's share and scatters
    /// its per-core results (if any) into global order. One rank with no
    /// rank kill scheduled or fired forwards verbatim (the R = 1
    /// identity). Otherwise a transient fault is retried on the failing
    /// rank only: it is decided before any mutation, so the retry is
    /// exact, and ranks that completed the op never see it twice.
    fn fan_out<I: Share, T>(
        &mut self,
        policy: FanOut<'_, T>,
        shares: &[I],
        op: impl Fn(&mut B, &I) -> SimResult<Vec<T>>,
    ) -> SimResult<Vec<T>> {
        if self.ranks.len() == 1 && self.pending_rank_kills.is_empty() && self.rank_deaths == 0 {
            return op(&mut self.ranks[0], &shares[0]);
        }
        self.rank_fault_step();
        let inverse = &self.inverse;
        for (r, share) in shares.iter().enumerate() {
            let refused = matches!(policy.dead, OnDead::Refuse) && self.rank_dead[r];
            if let Some(dpu) = share.first_local().filter(|_| refused) {
                return Err(remap_err(inverse, r, SimError::DpuDead { dpu }));
            }
        }
        let mut out: Vec<Option<T>> = (0..self.route.len()).map(|_| None).collect();
        for (r, share) in shares.iter().enumerate() {
            if share.first_local().is_none() {
                continue;
            }
            if self.rank_dead[r] {
                if let OnDead::Fill(fill) = policy.dead {
                    for &g in &inverse[r] {
                        out[g as usize] = Some(fill());
                    }
                }
                continue;
            }
            let b = &mut self.ranks[r];
            let (mut failures, mut kills) = (0u32, 0usize);
            let locals = loop {
                match op(b, share) {
                    Ok(locals) => break locals,
                    // The backoff is billed to the failing rank only: the
                    // other ranks' ops already completed.
                    Err(e) if e.is_transient() && failures < RANK_RETRY_CAP => {
                        let backoff = retry_backoff(failures);
                        b.charge_host_seconds_labeled(&format!("retry:{}", policy.label), backoff);
                        failures += 1;
                    }
                    // A kill decided at launch aborts it before any core
                    // runs. Re-issuing masks the victim, where an error
                    // would make the session repeat the op on every rank.
                    Err(SimError::DpuDead { .. }) if policy.absorb_kills && kills <= MAX_KILLS => {
                        kills += 1
                    }
                    Err(e) => return Err(remap_err(inverse, r, e)),
                }
            };
            for (l, v) in locals.into_iter().enumerate() {
                out[inverse[r][l] as usize] = Some(v);
            }
        }
        // A push answers no slots, so it gets none back.
        Ok(out
            .into_iter()
            .collect::<Option<Vec<T>>>()
            .unwrap_or_default())
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
        // A routed local id always exists on its rank.
        let (r, l) = self.locate(id)?;
        self.ranks[r].dpu(l)
    }

    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu> {
        let (r, l) = self.locate(id)?;
        self.ranks[r].dpu_mut(l)
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

    /// Host work blocks every rank: each rank's clock advances by the
    /// host seconds, so per-rank clocks read host + own PIM time and the
    /// elementwise max stays the true wall-clock.
    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds) {
        for b in &mut self.ranks {
            b.charge_host_seconds_labeled(label, seconds);
        }
    }

    /// One rank pushes the caller's batch as is: its local ids are the
    /// global ids. More ranks each get a share with rank-local ids whose
    /// payloads still point into the caller's bytes.
    fn push(&mut self, writes: &[HostWrite]) -> SimResult<()> {
        let policy: FanOut<()> = FanOut {
            label: "push",
            dead: OnDead::Refuse,
            absorb_kills: false,
        };
        let push = |b: &mut B, share: &&[HostWrite]| b.push(share).map(|()| vec![]);
        if self.ranks.len() == 1 {
            return self.fan_out(policy, &[writes], push).map(drop);
        }
        let mut shares = vec![Vec::new(); self.ranks.len()];
        for w in writes {
            let (dpu, allocated) = (w.dpu, self.route.len());
            let &(r, l) = (self.route.get(dpu)).ok_or(SimError::NoSuchDpu { dpu, allocated })?;
            shares[r as usize].push(HostWrite {
                dpu: l as usize,
                ..*w
            });
        }
        let shares: Vec<&[HostWrite]> = shares.iter().map(Vec::as_slice).collect();
        self.fan_out(policy, &shares, push).map(drop)
    }

    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>> {
        let policy = FanOut {
            label: "gather",
            dead: OnDead::Fill(&|| vec![0u8; len as usize]),
            absorb_kills: false,
        };
        let shares = vec![(); self.ranks.len()];
        self.fan_out(policy, &shares, |b, ()| b.gather(offset, len))
    }

    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized,
    {
        let policy = FanOut {
            label,
            dead: OnDead::Fill(&|| None),
            absorb_kills: true,
        };
        let shares = vec![(); self.ranks.len()];
        self.fan_out(policy, &shares, |b, ()| {
            b.execute_labeled_masked(label, &kernel)
        })
    }

    fn is_dpu_lost(&self, dpu: usize) -> bool {
        match self.locate(dpu) {
            Ok((r, l)) => self.ranks[r].is_dpu_lost(l),
            Err(e) => matches!(e, SimError::DpuDead { .. }),
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
    use crate::system::{fill_all, PimSystem};

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
        let payloads: Vec<[u8; 8]> = (1..7).map(|v| [v; 8]).collect();
        let writes: Vec<HostWrite> = (payloads.iter().enumerate())
            .map(|(dpu, data)| HostWrite {
                dpu,
                offset: 0,
                data,
            })
            .collect();
        cluster.push(&writes).unwrap();
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
        cluster.push(&fill_all(6, 0, &[1u8; 8])).unwrap();
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
            .push(&[HostWrite {
                dpu: 1,
                offset: 0,
                data: &[7; 8],
            }])
            .unwrap_err();
        assert_eq!(err, SimError::DpuDead { dpu: 1 });
        cluster
            .push(&[HostWrite {
                dpu: 2,
                offset: 0,
                data: &[9; 8],
            }])
            .unwrap();
        // Gathers answer zeroed tombstones for the dead rank.
        let banks = cluster.gather(0, 8).unwrap();
        assert_eq!(banks[1], vec![0u8; 8]);
        assert_eq!(banks[2], vec![9u8; 8]);
        assert_eq!(banks[3], vec![1u8; 8], "survivor baseline intact");
        // A strict launch behaves like one system with a dead core: the
        // survivors run, and the launch reports the lowest dead id.
        let launches = |c: &RankCluster<FunctionalBackend>| -> u64 {
            let kernels = c.rank_backends()[1].ledger().kernels;
            kernels
                .iter()
                .filter(|k| k.label == "strict")
                .map(|k| k.launches)
                .sum()
        };
        assert_eq!(launches(&cluster), 0);
        let strict = cluster.execute_labeled("strict", |ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(1);
            Ok(ctx.dpu_id())
        });
        assert_eq!(strict, Err(SimError::DpuDead { dpu: 0 }));
        assert_eq!(launches(&cluster), 1, "rank 1's cores still ran");
        // A masked launch answers `None` at exactly the dark ids, the
        // lowest of which the strict launch refused.
        let masked = cluster
            .execute_labeled_masked("probe", |ctx| Ok(ctx.dpu_id()))
            .unwrap();
        let dark: Vec<usize> = (0..masked.len()).filter(|&g| masked[g].is_none()).collect();
        assert_eq!(dark, vec![0, 1, 4]);
        for g in dark {
            assert_eq!(cluster.dpu(g).unwrap_err(), SimError::DpuDead { dpu: g });
        }
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
        cluster.push(&fill_all(6, 0, &[1u8; 8])).unwrap(); // op 0: all alive
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
        // Survivor rows keep their real MRAM occupancy from the fill.
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
            cluster.push(&fill_all(4, 0, &[1u8; 4])).unwrap();
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
        // The cluster's rank-local retry loop absorbs the flakiness on
        // every transfer, gathers included: each round's data lands and
        // reads back despite a 4% transfer-fault rate on rank 1.
        let config = PimConfig {
            fault: Some(plan),
            ..PimConfig::tiny()
        };
        let mut cluster =
            RankCluster::<FunctionalBackend>::allocate_cluster(spec, config, CostModel::default())
                .unwrap();
        for round in 0..32u8 {
            cluster.push(&fill_all(4, 0, &[round; 8])).unwrap();
            let banks = cluster
                .gather(0, 8)
                .unwrap_or_else(|e| panic!("round {round}: gather failed: {e}"));
            assert!(
                banks.iter().all(|bank| bank == &[round; 8]),
                "round {round}"
            );
        }
        assert!(
            cluster.fault_counters().transfer_faults > 0,
            "a 4% rate over 64 transfers should have injected something"
        );
    }
}
