//! Seeded, deterministic fault injection for the simulated PIM system.
//!
//! Real UPMEM servers ship with a fraction of their DPUs disabled as faulty,
//! and the PrIM characterization documents transfer errors as facts of life.
//! This module lets tests and experiments replay those conditions exactly:
//! a [`FaultPlan`] drives a splitmix64 stream keyed by a per-system operation
//! counter, so the same plan against the same host-side operation sequence
//! produces the same faults on every run and on every backend.
//!
//! Three fault classes are modeled:
//!
//! * **Transient transfer failures** (`transfer=PPM`): a `push`/`gather`
//!   call fails atomically with [`crate::SimError::FaultTransfer`];
//!   no data moves, but on the timed backend the wasted bus time is charged.
//! * **Transfer corruption** (`corrupt=PPM`): the operation succeeds but one
//!   byte of one payload is XOR-flipped. Hosts are expected to detect this
//!   with end-to-end checksums and retry.
//! * **Kernel-launch failures** (`launch=PPM`): an `execute` call fails with
//!   [`crate::SimError::FaultLaunch`] before any tasklet runs.
//! * **Permanent DPU death** (`kill=DPU@OP`): from operation index `OP`
//!   onward, the given DPU stops responding. Transfers addressed to it fail
//!   with [`crate::SimError::DpuDead`]; gathers return zeroed tombstones;
//!   kernels skip it. Host banks remain inspectable via [`crate::Dpu`]
//!   accessors — that models a recovery controller reading surviving ranks.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Modeled host seconds the retry after `attempt` consecutive failures
/// (0 for the first retry) of one operation waits: 1e-4 s, doubling per
/// further failure up to 2^6 ×. The session's retry loop and a cluster
/// rank's local retry both bill it, so a transient costs the same at
/// every rank count.
pub fn retry_backoff(attempt: u32) -> f64 {
    1e-4 * f64::from(1u32 << attempt.min(6))
}

/// Maximum number of scheduled DPU deaths in one plan.
pub const MAX_KILLS: usize = 8;

/// Maximum number of rank-level entries (`rank=` / `rank_flaky=`) in one
/// plan.
pub const MAX_RANK_KILLS: usize = 4;

/// Sentinel `at_op` meaning "fire at the first cluster operation of the
/// Triangle Count phase" — spelled `rank=R@count` in the grammar. Rank
/// deaths are decided by the cluster layer (which knows phases), not by
/// per-backend [`FaultState`]s, so the sentinel costs nothing here.
pub const RANK_AT_COUNT: u64 = u64::MAX;

/// Fixed-point denominator for fault probabilities: parts per million.
pub const PPM: u64 = 1_000_000;

/// splitmix64: the same generator `pim-tc` uses for sampling streams. Kept
/// local so the simulator stays dependency-free.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scheduled permanent DPU death.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpuKill {
    /// Physical DPU id to kill.
    pub dpu: usize,
    /// Operation index (push/gather/execute counter) at which the
    /// DPU stops responding. The op with this index is the first to observe
    /// the death.
    pub at_op: u64,
}

/// A scheduled permanent rank outage: every DPU homed on the rank stops
/// responding at once. Executed by the cluster layer (`pim_sim::RankCluster`),
/// which is the only component that knows rank boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankKill {
    /// Rank index to kill (cluster-relative, `0..ranks`).
    pub rank: usize,
    /// Cluster-level operation index at which the rank goes dark, or
    /// [`RANK_AT_COUNT`] for "the first op of the Triangle Count phase".
    pub at_op: u64,
}

/// A rank-wide transient fault load: transfers touching the rank fail with
/// the given probability (retried by the cluster's rank-local retry loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankFlaky {
    /// Rank index the flakiness applies to.
    pub rank: usize,
    /// Probability (ppm) that a transfer op on this rank fails transiently.
    pub ppm: u32,
}

/// A deterministic fault-injection schedule. Parsed from a spec string (see
/// [`FaultPlan::parse`]) or built directly; attached to a system via
/// [`crate::PimConfig::fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// Probability (ppm) that a transfer op fails atomically.
    pub transfer_fail_ppm: u32,
    /// Probability (ppm) that a transfer op corrupts one payload byte.
    pub corrupt_ppm: u32,
    /// Probability (ppm) that a kernel launch fails before running.
    pub launch_fail_ppm: u32,
    /// Scheduled permanent DPU deaths (dense prefix; `None` slots unused).
    pub kills: [Option<DpuKill>; MAX_KILLS],
    /// Scheduled permanent rank outages (`rank=R@OP`; dense prefix).
    /// Ignored by single systems — the cluster layer executes these.
    pub rank_kills: [Option<RankKill>; MAX_RANK_KILLS],
    /// Rank-wide transient transfer-fault loads (`rank_flaky=R:PPM`; dense
    /// prefix). The cluster derives them into the target rank's plan.
    pub rank_flaky: [Option<RankFlaky>; MAX_RANK_KILLS],
    /// Suggested proactive scrub cadence for the host (`scrub=N`): verify
    /// resident banks every `N` ingest chunks. The simulator injects
    /// nothing for this — it rides along in the plan so one spec string
    /// describes both the fault load and the matching scrub schedule, and
    /// hosts fall back to it when they have no explicit cadence configured.
    pub scrub: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            transfer_fail_ppm: 0,
            corrupt_ppm: 0,
            launch_fail_ppm: 0,
            kills: [None; MAX_KILLS],
            rank_kills: [None; MAX_RANK_KILLS],
            rank_flaky: [None; MAX_RANK_KILLS],
            scrub: None,
        }
    }
}

impl FaultPlan {
    /// Parse a fault spec. Grammar (comma-separated, whitespace ignored):
    ///
    /// ```text
    /// seed=U64 | transfer=PPM | corrupt=PPM | launch=PPM | kill=DPU@OP
    ///   | rank=R@OP | rank_flaky=R:PPM | scrub=N
    /// ```
    ///
    /// `kill=` may repeat up to [`MAX_KILLS`] times; `rank=` and
    /// `rank_flaky=` up to [`MAX_RANK_KILLS`] times each. `rank=R@OP`
    /// schedules a permanent whole-rank outage at cluster op `OP`; the
    /// special spelling `rank=R@count` fires at the first operation of the
    /// Triangle Count phase. `rank_flaky=R:PPM` makes every transfer on
    /// rank `R` fail transiently with the given probability. PPM values are
    /// parts per million in `0..=1_000_000`. `scrub=N` (N ≥ 1) suggests a
    /// host scrub cadence of every `N` ingest chunks. Example:
    /// `seed=7,transfer=2000,kill=3@40,rank=1@count,rank_flaky=2:5000`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut nr_kills = 0usize;
        let mut nr_rank_kills = 0usize;
        let mut nr_rank_flaky = 0usize;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{part}` is not KEY=VALUE"))?;
            let ppm = |v: &str| -> Result<u32, String> {
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("fault spec: `{v}` is not a ppm value"))?;
                if u64::from(n) > PPM {
                    return Err(format!("fault spec: {n} ppm exceeds {PPM}"));
                }
                Ok(n)
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault spec: `{value}` is not a u64 seed"))?;
                }
                "transfer" => plan.transfer_fail_ppm = ppm(value.trim())?,
                "scrub" => {
                    let n: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault spec: `{value}` is not a scrub cadence"))?;
                    if n == 0 {
                        return Err("fault spec: scrub cadence must be >= 1".into());
                    }
                    plan.scrub = Some(n);
                }
                "corrupt" => plan.corrupt_ppm = ppm(value.trim())?,
                "launch" => plan.launch_fail_ppm = ppm(value.trim())?,
                "kill" => {
                    let (dpu, op) = value
                        .trim()
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec: kill wants DPU@OP, got `{value}`"))?;
                    if nr_kills == MAX_KILLS {
                        return Err(format!("fault spec: more than {MAX_KILLS} kills"));
                    }
                    plan.kills[nr_kills] = Some(DpuKill {
                        dpu: dpu
                            .parse()
                            .map_err(|_| format!("fault spec: bad kill DPU id `{dpu}`"))?,
                        at_op: op
                            .parse()
                            .map_err(|_| format!("fault spec: bad kill op index `{op}`"))?,
                    });
                    nr_kills += 1;
                }
                "rank" => {
                    let (rank, op) = value
                        .trim()
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec: rank wants R@OP, got `{value}`"))?;
                    if nr_rank_kills == MAX_RANK_KILLS {
                        return Err(format!("fault spec: more than {MAX_RANK_KILLS} rank kills"));
                    }
                    let at_op = match op {
                        "count" => RANK_AT_COUNT,
                        n => n
                            .parse()
                            .map_err(|_| format!("fault spec: bad rank op index `{n}`"))?,
                    };
                    plan.rank_kills[nr_rank_kills] = Some(RankKill {
                        rank: rank
                            .parse()
                            .map_err(|_| format!("fault spec: bad rank id `{rank}`"))?,
                        at_op,
                    });
                    nr_rank_kills += 1;
                }
                "rank_flaky" => {
                    let (rank, p) = value.trim().split_once(':').ok_or_else(|| {
                        format!("fault spec: rank_flaky wants R:PPM, got `{value}`")
                    })?;
                    if nr_rank_flaky == MAX_RANK_KILLS {
                        return Err(format!(
                            "fault spec: more than {MAX_RANK_KILLS} rank_flaky entries"
                        ));
                    }
                    plan.rank_flaky[nr_rank_flaky] = Some(RankFlaky {
                        rank: rank
                            .parse()
                            .map_err(|_| format!("fault spec: bad rank_flaky rank id `{rank}`"))?,
                        ppm: ppm(p)?,
                    });
                    nr_rank_flaky += 1;
                }
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Read a plan from the `PIM_SIM_FAULTS` environment variable, if set.
    /// Returns `Ok(None)` when the variable is absent or empty.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("PIM_SIM_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.transfer_fail_ppm == 0
            && self.corrupt_ppm == 0
            && self.launch_fail_ppm == 0
            && self.kills.iter().all(Option::is_none)
            && !self.has_rank_faults()
    }

    /// True when the plan carries rank-level entries (`rank=` /
    /// `rank_flaky=`), which only the cluster layer can execute.
    pub fn has_rank_faults(&self) -> bool {
        self.rank_kills.iter().any(Option::is_some)
            || self.rank_flaky.iter().any(|f| f.is_some_and(|f| f.ppm > 0))
    }
}

impl fmt::Display for FaultPlan {
    /// Renders in the same grammar [`FaultPlan::parse`] accepts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},transfer={},corrupt={},launch={}",
            self.seed, self.transfer_fail_ppm, self.corrupt_ppm, self.launch_fail_ppm
        )?;
        for kill in self.kills.iter().flatten() {
            write!(f, ",kill={}@{}", kill.dpu, kill.at_op)?;
        }
        for kill in self.rank_kills.iter().flatten() {
            if kill.at_op == RANK_AT_COUNT {
                write!(f, ",rank={}@count", kill.rank)?;
            } else {
                write!(f, ",rank={}@{}", kill.rank, kill.at_op)?;
            }
        }
        for flaky in self.rank_flaky.iter().flatten() {
            write!(f, ",rank_flaky={}:{}", flaky.rank, flaky.ppm)?;
        }
        if let Some(n) = self.scrub {
            write!(f, ",scrub={n}")?;
        }
        Ok(())
    }
}

/// Counters of faults a system actually injected, surfaced through
/// [`crate::SystemReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Transfer ops that failed atomically.
    pub transfer_faults: u64,
    /// Transfer ops whose payload had one byte flipped.
    pub corruptions: u64,
    /// Kernel launches that failed before running.
    pub launch_faults: u64,
    /// DPUs that died permanently.
    pub dpu_deaths: u64,
    /// Whole ranks that died permanently (`rank=R@OP`; counted by the
    /// cluster layer on top of any per-DPU deaths).
    pub rank_deaths: u64,
}

impl FaultCounters {
    /// Counts one injected fault of `kind` (`kill`, `transfer_fail`,
    /// `launch_fail` or `corrupt`, the kinds an engine settles).
    pub(crate) fn count(&mut self, kind: &str) {
        let counter = match kind {
            "kill" => &mut self.dpu_deaths,
            "transfer_fail" => &mut self.transfer_faults,
            "launch_fail" => &mut self.launch_faults,
            "corrupt" => &mut self.corruptions,
            other => unreachable!("unknown fault kind {other}"),
        };
        *counter += 1;
    }

    /// Total number of injected events.
    pub fn total(&self) -> u64 {
        self.transfer_faults
            + self.corruptions
            + self.launch_faults
            + self.dpu_deaths
            + self.rank_deaths
    }
}

impl std::ops::AddAssign for FaultCounters {
    fn add_assign(&mut self, other: FaultCounters) {
        self.transfer_faults += other.transfer_faults;
        self.corruptions += other.corruptions;
        self.launch_faults += other.launch_faults;
        self.dpu_deaths += other.dpu_deaths;
        self.rank_deaths += other.rank_deaths;
    }
}

/// Which class of host-side operation is asking for a fault decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `push` / `gather`.
    Transfer,
    /// `execute` (kernel launch).
    Launch,
}

/// Outcome of consulting the plan for one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    None,
    /// A scheduled DPU death fires on this op; the op fails atomically.
    Kill {
        /// The DPU that just died.
        dpu: usize,
        /// The op index the death fired at.
        op: u64,
    },
    /// The op fails transiently; nothing is applied.
    Fail {
        /// The op index the failure fired at.
        op: u64,
    },
    /// The op succeeds but one payload byte must be flipped.
    Corrupt {
        /// Deterministic salt for choosing the victim byte.
        salt: u64,
        /// The op index the corruption fired at.
        op: u64,
    },
}

/// Per-system fault state: the plan, the operation counter, and which DPUs
/// have died so far. The engine counts what fires when it settles the
/// resulting fault record.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: Option<FaultPlan>,
    op_index: u64,
    dead: Vec<bool>,
}

impl FaultState {
    /// State for a freshly allocated system of `nr_dpus` DPUs.
    pub fn new(plan: Option<FaultPlan>, nr_dpus: usize) -> Self {
        let plan = plan.filter(|p| !p.is_inert());
        FaultState {
            plan,
            op_index: 0,
            dead: vec![false; if plan.is_some() { nr_dpus } else { 0 }],
        }
    }

    /// True when a plan is active (some fault could still fire or has fired).
    pub fn is_active(&self) -> bool {
        self.plan.is_some()
    }

    /// Whether `dpu` has died. Always false without an active plan.
    pub fn is_dead(&self, dpu: usize) -> bool {
        self.dead.get(dpu).copied().unwrap_or(false)
    }

    /// Snapshot of dead flags (empty without an active plan).
    pub fn dead_flags(&self) -> &[bool] {
        &self.dead
    }

    /// Deterministic draw for op `op` with stream salt `salt`.
    fn draw(&self, op: u64, salt: u64) -> u64 {
        let plan = self.plan.as_ref().expect("draw without plan");
        splitmix64(
            plan.seed ^ splitmix64(op.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)),
        )
    }

    /// Consult the plan for the next operation of kind `kind`. Advances the
    /// op counter only when a plan is active, so fault-free systems are
    /// byte-identical to systems built before this module existed.
    pub fn decide(&mut self, kind: OpKind) -> FaultDecision {
        let Some(plan) = self.plan else {
            return FaultDecision::None;
        };
        let op = self.op_index;
        self.op_index += 1;
        for kill in plan.kills.iter().flatten() {
            if kill.at_op <= op && kill.dpu < self.dead.len() && !self.dead[kill.dpu] {
                self.dead[kill.dpu] = true;
                return FaultDecision::Kill { dpu: kill.dpu, op };
            }
        }
        let (fail_ppm, can_corrupt) = match kind {
            OpKind::Transfer => (plan.transfer_fail_ppm, true),
            OpKind::Launch => (plan.launch_fail_ppm, false),
        };
        if self.draw(op, 1) % PPM < u64::from(fail_ppm) {
            return FaultDecision::Fail { op };
        }
        if can_corrupt && self.draw(op, 2) % PPM < u64::from(plan.corrupt_ppm) {
            return FaultDecision::Corrupt {
                salt: self.draw(op, 3),
                op,
            };
        }
        FaultDecision::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let spec = "seed=7,transfer=2000,corrupt=1000,launch=500,kill=3@40,kill=9@95";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.transfer_fail_ppm, 2000);
        assert_eq!(plan.corrupt_ppm, 1000);
        assert_eq!(plan.launch_fail_ppm, 500);
        assert_eq!(plan.kills[0], Some(DpuKill { dpu: 3, at_op: 40 }));
        assert_eq!(plan.kills[1], Some(DpuKill { dpu: 9, at_op: 95 }));
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn scrub_cadence_rides_along_in_the_plan() {
        let plan = FaultPlan::parse("seed=3,kill=1@7,scrub=4").unwrap();
        assert_eq!(plan.scrub, Some(4));
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        // A scrub cadence alone injects nothing: the plan stays inert and
        // fault-free systems remain byte-identical.
        let only_scrub = FaultPlan::parse("scrub=2").unwrap();
        assert!(only_scrub.is_inert());
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("warp=1").is_err());
        assert!(FaultPlan::parse("scrub=0").is_err());
        assert!(FaultPlan::parse("transfer=2000000").is_err());
        assert!(FaultPlan::parse("kill=3").is_err());
        assert!(FaultPlan::parse("kill=a@b").is_err());
        assert!(FaultPlan::parse("rank=1").is_err());
        assert!(FaultPlan::parse("rank=x@3").is_err());
        assert!(FaultPlan::parse("rank=1@soon").is_err());
        assert!(FaultPlan::parse("rank_flaky=1@200").is_err());
        assert!(FaultPlan::parse("rank_flaky=1:2000000").is_err());
        let nine_kills = (0..9)
            .map(|i| format!("kill={i}@0"))
            .collect::<Vec<_>>()
            .join(",");
        assert!(FaultPlan::parse(&nine_kills).is_err());
        let five_ranks = (0..5)
            .map(|i| format!("rank={i}@0"))
            .collect::<Vec<_>>()
            .join(",");
        assert!(FaultPlan::parse(&five_ranks).is_err());
    }

    #[test]
    fn rank_grammar_round_trips_through_display_and_serde() {
        let spec = "seed=7,rank=1@count,rank=2@40,rank_flaky=3:5000";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(
            plan.rank_kills[0],
            Some(RankKill {
                rank: 1,
                at_op: RANK_AT_COUNT
            })
        );
        assert_eq!(plan.rank_kills[1], Some(RankKill { rank: 2, at_op: 40 }));
        assert_eq!(plan.rank_flaky[0], Some(RankFlaky { rank: 3, ppm: 5000 }));
        assert!(plan.has_rank_faults());
        assert!(!plan.is_inert());
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn rank_flaky_with_zero_ppm_stays_inert() {
        let plan = FaultPlan::parse("rank_flaky=0:0").unwrap();
        assert!(!plan.has_rank_faults());
        assert!(plan.is_inert());
    }

    #[test]
    fn decisions_replay_exactly() {
        let plan =
            FaultPlan::parse("seed=42,transfer=200000,corrupt=100000,launch=150000").unwrap();
        let run = || {
            let mut st = FaultState::new(Some(plan), 4);
            (0..256)
                .map(|i| {
                    st.decide(if i % 3 == 0 {
                        OpKind::Launch
                    } else {
                        OpKind::Transfer
                    })
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|d| matches!(d, FaultDecision::Fail { .. })));
        assert!(a.iter().any(|d| matches!(d, FaultDecision::Corrupt { .. })));
    }

    #[test]
    fn kill_fires_once_at_its_op() {
        let plan = FaultPlan::parse("kill=2@5").unwrap();
        let mut st = FaultState::new(Some(plan), 4);
        for op in 0..10u64 {
            let d = st.decide(OpKind::Transfer);
            if op == 5 {
                assert_eq!(d, FaultDecision::Kill { dpu: 2, op: 5 });
            } else {
                assert_eq!(d, FaultDecision::None);
            }
        }
        assert!(st.is_dead(2));
        assert!(!st.is_dead(1));
    }

    #[test]
    fn inert_plan_disables_the_state() {
        let mut st = FaultState::new(Some(FaultPlan::default()), 4);
        assert!(!st.is_active());
        assert_eq!(st.decide(OpKind::Transfer), FaultDecision::None);
    }

    #[test]
    fn counters_round_trip_through_serde() {
        let c = FaultCounters {
            transfer_faults: 1,
            corruptions: 2,
            launch_faults: 3,
            dpu_deaths: 4,
            rank_deaths: 5,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: FaultCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::parse("seed=9,transfer=10,kill=1@2").unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
