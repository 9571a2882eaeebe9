//! Interconnect and remote-checkpoint simulation.
//!
//! The paper's remote checkpoints ride a 40 Gb/s InfiniBand fabric via
//! an ARMCI-style remote memory interface, driven by an asynchronous
//! helper process per node. This crate models each piece:
//!
//! * [`trace::UsageTrace`] — bucketed bytes-over-time series; the data
//!   behind Figure 10's peak-interconnect-usage comparison.
//! * [`link::Link`] — a NIC with capacity sharing, burst vs spread
//!   transfer shapes, and the contention-delay model for application
//!   communication slowed by checkpoint traffic.
//! * [`armci::RemoteStore`] — the buddy node's NVM checkpoint store
//!   with two-version commit and checksum-verified fetch.
//! * [`helper::HelperProcess`] — the per-node helper's CPU cost model
//!   (scan + per-op + copy), reproducing Table V's utilization.

#![warn(missing_docs)]

pub mod armci;
pub mod helper;
pub mod link;
pub mod recovery;
pub mod trace;

pub use armci::{RemoteError, RemoteStore};
pub use helper::{HelperParams, HelperProcess, HelperStats};
pub use link::{Link, LinkStats, IB_40GBPS};
pub use recovery::{fetch_with_retry, FaultModel, FetchOutcome, RetryPolicy};
pub use trace::UsageTrace;
