#![warn(missing_docs)]

//! `pim-sim` — a functional + timing simulator of an UPMEM-like
//! processing-in-memory system.
//!
//! The paper's platform is a real UPMEM server: 2560 DPUs (32-bit in-order
//! cores placed in DRAM dies), each owning a 64 MB DRAM bank (MRAM), a
//! 64 KB scratchpad (WRAM), and running up to 16 hardware threads
//! (tasklets) over a fine-grained-multithreaded pipeline. DPUs cannot talk
//! to each other; all data moves through the host CPU.
//!
//! No UPMEM toolchain exists in this environment, so this crate recreates
//! the system in software with two goals:
//!
//! 1. **Constraint fidelity** — kernels written against [`Tasklet`] can
//!    only touch MRAM through explicit bounded DMA transfers into WRAM
//!    buffers they have allocated from the 64 KB scratchpad; MRAM capacity
//!    is enforced; there is no inter-DPU channel. Code shaped by this API
//!    faces the same pressures as real DPU C code.
//! 2. **Timing fidelity** — every DMA, instruction batch, and host
//!    transfer is charged against a [`CostModel`] whose defaults come from
//!    the PrIM characterization of real UPMEM hardware (Gómez-Luna et al.,
//!    IEEE Access 2022). Execution produces *modeled seconds*, reported per
//!    phase exactly as the paper splits them (§4.1: Setup / Sample
//!    Creation / Triangle Count).
//!
//! The simulator is *functional*, not an ISA emulator: kernels are Rust
//! closures that account their work through [`Tasklet::charge`] hooks.
//! DESIGN.md §5 documents the model and its parameters.

pub mod backend;
pub mod chrome;
pub mod cluster;
pub mod config;
pub mod cost;
pub mod dpu;
pub mod energy;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod phase;
pub mod stats;
pub mod system;

pub use backend::{FunctionalBackend, PimBackend, TimedBackend};
pub use chrome::chrome_trace;
pub use cluster::{ClusterSpec, RankCluster};
pub use config::PimConfig;
pub use cost::{CostModel, DmaTable};
pub use dpu::Dpu;
pub use energy::{EnergyModel, EnergyReport};
pub use error::{SimError, SimResult};
pub use fault::{
    retry_backoff, DpuKill, FaultCounters, FaultPlan, RankFlaky, RankKill, RANK_AT_COUNT,
};
pub use kernel::{Charges, DpuContext, MramView, Tasklet};
pub use phase::{Phase, PhaseTimes};
pub use stats::{DpuActivity, KernelAgg, Ledger, SystemReport};
pub use system::{Clock, Functional, HostWrite, PimSystem, Timed};
