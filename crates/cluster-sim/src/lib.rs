//! Multi-node checkpoint simulation.
//!
//! * [`model`] — the Section-III closed-form two-level checkpoint
//!   performance model (with fixed-point solution of Eq. 1).
//! * [`failure`] — seeded Poisson failure injection, soft vs hard.
//! * [`app`] — the [`app::Workload`] trait rank behaviours implement.
//! * [`config`] — [`config::ClusterConfig`] and its builder: cluster
//!   shape, provisioning, and the ring-buddy topology helpers.
//! * [`run`] — [`run::Cluster`]: the cluster orchestrator that
//!   produces every remote-checkpointing result (Figures 9 and 10,
//!   Table V) and the execution-time side of Figures 7 and 8, run
//!   with composable [`run::RunOptions`].
//! * [`store`] — recovery of a store-attached run
//!   ([`run::RunOptions::store_dir`]) from its per-rank container
//!   files alone.

//! ```
//! use cluster_sim::{evaluate, ModelParams};
//! use nvm_emu::SimDuration;
//!
//! let pred = evaluate(&ModelParams {
//!     t_compute: SimDuration::from_secs(3600),
//!     data_bytes: 433 << 20,
//!     nvm_bw_core: 400.0 * (1 << 20) as f64,
//!     local_interval: SimDuration::from_secs(40),
//!     k: 3,
//!     remote_overhead: SimDuration::from_secs(2),
//!     mtbf_local: SimDuration::from_secs(3600),
//!     mtbf_remote: SimDuration::from_secs(36_000),
//!     r_local: SimDuration::from_secs(1),
//!     r_remote: SimDuration::from_secs(5),
//! });
//! assert!(pred.efficiency > 0.8 && pred.efficiency < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod app;
pub mod comm;
pub mod config;
pub mod failure;
pub mod model;
pub mod profile;
pub mod recovery;
pub mod reliability;
pub mod run;
pub mod store;

pub use app::{UniformWorkload, Workload};
pub use comm::{AlphaBeta, Collective, CommPattern};
pub use config::{ClusterConfig, ClusterConfigBuilder, ConfigError, RemoteConfig};
pub use failure::{FailureConfig, FailureEvent, FailureKind, FailureSchedule};
pub use model::{
    evaluate, optimal_interval, plan_two_level, ModelParams, ModelPrediction, TwoLevelPlan,
};
pub use nvm_obs::FlightDump;
pub use profile::{Phase, RunProfile};
pub use recovery::{collapse_batch, RecoveredChunkRecord, RecoveryRecord, RecoverySource};
pub use reliability::{
    expected_failures, schedule_loses_pair, simulated_unrecoverable_rate,
    unrecoverable_probability, unrecoverable_probability_for, BuddyTopology, ReliabilityParams,
};
pub use run::{Cluster, RunOptions, RunOutcome, RunResult, SimError, SpillReport, FLIGHT_TAIL};
pub use store::RankRecovery;
