//! Execution phases and modeled-time bookkeeping.
//!
//! §4.1 of the paper splits each run into three phases; the simulator
//! accumulates modeled seconds into whichever phase is current, and the
//! host orchestrator additionally folds in *measured* host-side seconds
//! (batch creation is real Rust code running on the real CPU).

use crate::cost::SimSeconds;
use serde::{Deserialize, Serialize};

/// The paper's three timing phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// PIM core allocation, kernel loading, variable initialization, host
    /// array allocation.
    Setup,
    /// Reading the input graph, batch creation, transfers into the PIM
    /// cores' DRAM banks (with reservoir sampling if needed).
    SampleCreation,
    /// Sample organization in the banks, the counting kernel itself, and
    /// result gathering.
    TriangleCount,
}

impl Phase {
    /// The phase's snake_case name as used in metric events and labels
    /// (see `docs/OBSERVABILITY.md`).
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::SampleCreation => "sample_creation",
            Phase::TriangleCount => "triangle_count",
        }
    }
}

/// Per-phase accumulated time, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Setup phase seconds.
    pub setup: SimSeconds,
    /// Sample-creation phase seconds.
    pub sample_creation: SimSeconds,
    /// Triangle-count phase seconds.
    pub triangle_count: SimSeconds,
}

impl PhaseTimes {
    /// Adds `seconds` to the given phase.
    pub fn add(&mut self, phase: Phase, seconds: SimSeconds) {
        match phase {
            Phase::Setup => self.setup += seconds,
            Phase::SampleCreation => self.sample_creation += seconds,
            Phase::TriangleCount => self.triangle_count += seconds,
        }
    }

    /// Seconds recorded for a phase.
    pub fn get(&self, phase: Phase) -> SimSeconds {
        match phase {
            Phase::Setup => self.setup,
            Phase::SampleCreation => self.sample_creation,
            Phase::TriangleCount => self.triangle_count,
        }
    }

    /// Total across all phases.
    pub fn total(&self) -> SimSeconds {
        self.setup + self.sample_creation + self.triangle_count
    }

    /// Total excluding setup — the quantity the paper uses from §4.3
    /// onward ("the setup time will not be considered").
    pub fn without_setup(&self) -> SimSeconds {
        self.sample_creation + self.triangle_count
    }

    /// Element-wise sum (used by the dynamic workload to accumulate over
    /// updates).
    pub fn merged(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            setup: self.setup + other.setup,
            sample_creation: self.sample_creation + other.sample_creation,
            triangle_count: self.triangle_count + other.triangle_count,
        }
    }

    /// Element-wise max (used by clusters, whose ranks run in parallel).
    pub(crate) fn max_with(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            setup: self.setup.max(other.setup),
            sample_creation: self.sample_creation.max(other.sample_creation),
            triangle_count: self.triangle_count.max(other.triangle_count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_route_to_the_right_bucket() {
        let mut t = PhaseTimes::default();
        t.add(Phase::Setup, 1.0);
        t.add(Phase::SampleCreation, 2.0);
        t.add(Phase::TriangleCount, 4.0);
        t.add(Phase::TriangleCount, 0.5);
        assert_eq!(t.get(Phase::Setup), 1.0);
        assert_eq!(t.get(Phase::SampleCreation), 2.0);
        assert_eq!(t.get(Phase::TriangleCount), 4.5);
        assert_eq!(t.total(), 7.5);
        assert_eq!(t.without_setup(), 6.5);
    }

    #[test]
    fn merged_sums_elementwise() {
        let a = PhaseTimes {
            setup: 1.0,
            sample_creation: 2.0,
            triangle_count: 3.0,
        };
        let b = PhaseTimes {
            setup: 0.5,
            sample_creation: 0.25,
            triangle_count: 0.125,
        };
        let m = a.merged(&b);
        assert_eq!(m.setup, 1.5);
        assert_eq!(m.sample_creation, 2.25);
        assert_eq!(m.triangle_count, 3.125);
    }
}
