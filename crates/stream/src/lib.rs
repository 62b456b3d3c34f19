#![warn(missing_docs)]

//! `pim-stream` — streaming summaries and sampling primitives for PIM-TC.
//!
//! The paper layers four classic streaming techniques over the core
//! algorithm, each addressing one hardware limitation:
//!
//! * [`coloring`] — universal-hash vertex coloring (§3.1), which shards
//!   triangles across PIM cores without inter-core communication,
//! * [`uniform`] — DOULION-style uniform edge sampling at the host (§3.2),
//!   reducing CPU→PIM transfer volume,
//! * [`reservoir`] — the correction for TRIÈST-style reservoir sampling
//!   at the PIM core (§3.3), which bounds the per-bank memory footprint;
//!   the sampling rule itself runs in `pim-tc`'s receive kernel,
//! * [`misra_gries`] — the Misra-Gries heavy-hitter summary (§3.5), which
//!   finds high-degree vertices so the kernel can remap them,
//! * [`estimators`] — the statistical corrections that turn sampled counts
//!   back into unbiased triangle estimates,
//! * [`triest`] — host-side TRIÈST reference estimators (BASE / IMPR /
//!   fully-dynamic), for estimator-quality comparisons against the
//!   pipeline's post-hoc reservoir correction,
//! * [`journal`] — per-partition journals of routed keys and remap
//!   marks, which journal replay re-derives lost banks from.

pub mod coloring;
pub mod estimators;
pub mod journal;
pub mod misra_gries;
pub mod reservoir;
pub mod triest;
pub mod uniform;

pub use coloring::ColoringHash;
pub use journal::{JournalMark, JournalStep, PartitionJournal};
pub use misra_gries::MisraGries;
pub use uniform::UniformSampler;
