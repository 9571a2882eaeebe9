//! NVM-checkpoints core engine.
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Optimizing Checkpoints Using NVM as Virtual Memory", IPDPS 2013):
//! an application-initiated checkpoint library that treats emulated
//! byte-addressable NVM as slow *virtual memory* rather than a fast
//! disk, and hides the NVM's write-latency and bandwidth limits with
//! shadow buffering and three pre-copy schemes.
//!
//! * [`engine::CheckpointEngine`] — per-process engine: the Table III
//!   interfaces, as a facade over the two parts below.
//! * [`commit::CommitCore`] — everything whose output is bytes:
//!   allocation, shadow buffering, the two-version commit, checksummed
//!   restart. Policy-free.
//! * [`precopy::Scheduler`] — everything whose output is *when*:
//!   background pre-copy windows and candidate choice, over a
//!   read-only view of the core.
//! * [`config::PrecopyPolicy`] — `None` (baseline), `Cpc`, `Dcpc`,
//!   `Dcpcp`.
//! * [`precopy::PrecopyPlanner`] — learns the checkpoint interval and
//!   data size, yields the `T_p = I - D/BW` threshold.
//! * [`predict::PredictionTable`] — per-chunk modification-count
//!   predictor that keeps hot chunks out of the pre-copy stream.
//! * [`checksum`] — CRC-64 used for commit/restart integrity.
//!
//! # Quick example
//!
//! ```
//! use nvm_chkpt::{CheckpointEngine, EngineConfig};
//! use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
//!
//! let dram = MemoryDevice::dram(64 << 20);
//! let nvm = MemoryDevice::pcm(64 << 20);
//! let clock = VirtualClock::new();
//! let mut engine = CheckpointEngine::new(
//!     0, &dram, &nvm, 32 << 20, clock.clone(), EngineConfig::default(),
//! ).unwrap();
//!
//! let field = engine.nvmalloc("field", 4096, true).unwrap();
//! engine.write(field, 0, &[42u8; 4096]).unwrap();
//! engine.compute(SimDuration::from_secs(1));
//! let report = engine.nvchkptall().unwrap();
//! assert_eq!(report.total_bytes(), 4096);
//! assert_eq!(engine.committed_bytes(field).unwrap(), vec![42u8; 4096]);
//! ```

#![warn(missing_docs)]

pub mod capi;
pub mod checksum;
pub mod commit;
pub mod config;
pub mod engine;
pub mod persist;
pub mod precopy;
pub mod predict;
pub mod restart;
pub mod stats;

pub use commit::CommitCore;
pub use config::{ConfigError, EngineConfig, EngineConfigBuilder, PrecopyPolicy};
pub use engine::{CheckpointEngine, EngineError, RemoteImage, RestartReport};
pub use persist::{
    PersistError, Persistence, RecoveredChunk, RecoveredState, StoreStats, SyntheticPayload,
};
pub use precopy::PrecopyPlanner;
pub use predict::PredictionTable;
pub use restart::RestartStrategy;
pub use stats::{EngineStats, EpochReport};

// The Table-III C surface, re-exported so bindings and examples import
// from the crate root instead of reaching into `capi`.
pub use capi::{
    nv2dalloc, nv_genid, nvalloc, nvchkptall, nvchkptid, nvcompute, nvdelete, nvm_close,
    nvm_last_error, nvm_last_error_len, nvm_open, nvm_simulate_restart, nvread, nvwrite, NvmCtx,
};

// Re-exports so downstream crates rarely need the substrate crates
// directly.
pub use nvm_heap::{Materialization, Versioning};
pub use nvm_paging::{genid, ChunkId, Granularity};

// Event-tracing surface: attach a `Tracer` with
// [`CheckpointEngine::set_tracer`] and collect [`TraceEvent`]s from
// its [`BufferSink`].
pub use nvm_trace::{BufferSink, TraceEvent, TraceEventKind, Tracer};
