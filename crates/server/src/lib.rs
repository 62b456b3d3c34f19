//! Multi-tenant serving layer for the PIM triangle-counting engine.
//!
//! This crate implements the `pimtc serve` daemon: a TCP server (std
//! `TcpListener` + worker threads, in the mold of
//! `pim_metrics::MetricsServer`) that owns one simulated PIM cluster and
//! multiplexes concurrent tenant sessions over it.
//!
//! The pieces:
//!
//! * [`protocol`] — the line-delimited JSON wire format (`create-session`,
//!   `append-edges`, `query-count`, `checkpoint`, `close`, plus `ping`,
//!   `stats`, `shutdown`) and its structured error codes;
//! * [`scheduler`] — the [`scheduler::LeaseLedger`], which leases disjoint
//!   per-rank DPU blocks to tenants and can audit its own disjointness
//!   invariant;
//! * [`admission`] — the [`admission::AdmissionController`], which sizes a
//!   session via `pim_tc::planner::session_footprint` and rejects anything
//!   that does not fit the machine, naming the binding limit;
//! * [`serve`] — the [`serve::Server`] itself: accept loop, per-session
//!   serialized op queues under a global fair-share worker pool,
//!   the `pim_metrics::serve_http` endpoint table (`/metrics`,
//!   per-session `/healthz`, `/trace`) on the same listener, and
//!   graceful drain that checkpoints every live session (`PIMTCKPT`).
//!
//! See `docs/SERVING.md` for the protocol grammar and operational notes.

#![warn(missing_docs)]

pub mod admission;
pub mod protocol;
pub mod scheduler;
pub mod serve;

pub use admission::{AdmissionController, Rejection};
pub use protocol::{
    error_response, ok_response, parse_request, ErrorCode, Request, SessionSpec, DEFAULT_MAX_FRAME,
};
pub use scheduler::{Lease, LeaseLedger};
pub use serve::{DrainReport, ServeConfig, Server};
