//! Simulator error types.

use std::fmt;

/// Errors raised by the PIM simulator when code violates a hardware
/// constraint the real system would enforce (or crash on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A write or allocation exceeded the DPU's MRAM bank capacity.
    MramOverflow {
        /// DPU that overflowed.
        dpu: usize,
        /// Bytes requested beyond the current end.
        requested: u64,
        /// Bank capacity in bytes.
        capacity: u64,
    },
    /// A WRAM allocation exceeded the scratchpad budget.
    WramOverflow {
        /// DPU raising the error.
        dpu: usize,
        /// Tasklet raising the error.
        tasklet: usize,
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// A DMA transfer referenced MRAM outside the initialized region.
    BadAddress {
        /// DPU raising the error.
        dpu: usize,
        /// Start offset of the access.
        offset: u64,
        /// Length of the access in bytes.
        len: u64,
    },
    /// A DMA transfer violated the engine's alignment/size rules
    /// (8-byte-aligned, at most 2048 bytes per transfer on UPMEM).
    BadDma {
        /// DPU raising the error.
        dpu: usize,
        /// Offending transfer size.
        len: u64,
        /// Human-readable rule that was violated.
        rule: &'static str,
    },
    /// The host addressed a DPU id outside the allocated set.
    NoSuchDpu {
        /// Offending id.
        dpu: usize,
        /// Number of allocated DPUs.
        allocated: usize,
    },
    /// System allocation was asked for more DPUs than the machine has.
    TooManyDpus {
        /// DPUs requested.
        requested: usize,
        /// DPUs available.
        available: usize,
    },
    /// The fault plan failed a transfer op transiently; nothing was applied.
    FaultTransfer {
        /// Operation index the fault fired at.
        op: u64,
    },
    /// The fault plan failed a kernel launch transiently; no tasklet ran.
    FaultLaunch {
        /// Operation index the fault fired at.
        op: u64,
    },
    /// The addressed DPU has died permanently under the fault plan.
    DpuDead {
        /// The dead DPU.
        dpu: usize,
    },
}

impl SimError {
    /// The DPU id the error names, for the variants that carry one.
    pub fn dpu_id_mut(&mut self) -> Option<&mut usize> {
        match self {
            SimError::MramOverflow { dpu, .. }
            | SimError::WramOverflow { dpu, .. }
            | SimError::BadAddress { dpu, .. }
            | SimError::BadDma { dpu, .. }
            | SimError::NoSuchDpu { dpu, .. }
            | SimError::DpuDead { dpu } => Some(dpu),
            _ => None,
        }
    }

    /// True for injected faults that a retry can clear (transfer/launch
    /// failures). Permanent deaths and programming errors are not transient.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::FaultTransfer { .. } | SimError::FaultLaunch { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MramOverflow { dpu, requested, capacity } => write!(
                f,
                "DPU {dpu}: MRAM overflow ({requested} bytes past a {capacity}-byte bank)"
            ),
            SimError::WramOverflow { dpu, tasklet, requested, available } => write!(
                f,
                "DPU {dpu} tasklet {tasklet}: WRAM overflow ({requested} requested, {available} free)"
            ),
            SimError::BadAddress { dpu, offset, len } => {
                write!(f, "DPU {dpu}: MRAM access [{offset}, +{len}) out of range")
            }
            SimError::BadDma { dpu, len, rule } => {
                write!(f, "DPU {dpu}: invalid DMA of {len} bytes ({rule})")
            }
            SimError::NoSuchDpu { dpu, allocated } => {
                write!(f, "DPU id {dpu} out of range (allocated {allocated})")
            }
            SimError::TooManyDpus { requested, available } => {
                write!(f, "requested {requested} DPUs, system has {available}")
            }
            SimError::FaultTransfer { op } => {
                write!(f, "injected transient transfer fault at op {op}")
            }
            SimError::FaultLaunch { op } => {
                write!(f, "injected transient kernel-launch fault at op {op}")
            }
            SimError::DpuDead { dpu } => {
                write!(f, "DPU {dpu} has died permanently (injected fault)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::MramOverflow {
            dpu: 3,
            requested: 100,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("DPU 3") && s.contains("100") && s.contains("64"));
    }

    #[test]
    fn dpu_id_mut_reaches_the_named_core() {
        let mut e = SimError::BadDma {
            dpu: 2,
            len: 3,
            rule: "aligned",
        };
        *e.dpu_id_mut().unwrap() = 7;
        assert!(matches!(e, SimError::BadDma { dpu: 7, len: 3, .. }));
        assert_eq!(SimError::FaultTransfer { op: 1 }.dpu_id_mut(), None);
    }

    #[test]
    fn errors_are_comparable() {
        let a = SimError::NoSuchDpu {
            dpu: 1,
            allocated: 0,
        };
        let b = SimError::NoSuchDpu {
            dpu: 1,
            allocated: 0,
        };
        assert_eq!(a, b);
    }
}
