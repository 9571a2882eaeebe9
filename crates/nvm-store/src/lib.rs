//! Durable, crash-consistent checkpoint containers.
//!
//! The emulator's NVM device is process-volatile: its bytes die with
//! the process, so "restart" experiments could only ever restart from
//! state the same process still held. This crate gives every rank a
//! real on-media home — one container file per process — implementing
//! the engine's [`Persistence`] trait:
//!
//! * [`mod@format`] — the on-media layout: a write-once superblock, a data
//!   region of per-chunk shadow **slot pairs** (each slot a checksummed
//!   header + payload, written in one media write), and an append-only
//!   **commit log** whose last fully valid record *is* the checkpoint.
//! * [`container::Container`] — the [`Persistence`] implementation
//!   over any [`media::Media`]: staged payloads only ever target the
//!   slot the last durable record does not reference; commit is a
//!   single record append + fsync; extents referenced by the last
//!   durable record are never reused before the next commit retires
//!   it. [`container::FileStore`] is the file-backed instantiation
//!   the cluster's `--store DIR` mode uses.
//! * [`crashsim`] — the deterministic crash-injection harness: record
//!   every media operation of a scripted run, replay the image a crash
//!   would leave at *every* operation boundary (including torn
//!   prefixes of every write), recover it, and check recovery against
//!   a bit-for-bit oracle of each committed epoch.
//!
//! Mirroring checkpoints into a container is cost-free in virtual
//! time — the emulated NVM device already charged write time,
//! bandwidth and wear for every shadow copy — so attaching a store
//! never changes simulation results; it only makes them survive the
//! process.
//!
//! ```
//! use nvm_chkpt::persist::Persistence;
//! use nvm_paging::ChunkId;
//! use nvm_store::{Container, MemMedia};
//!
//! let mut store = Container::open(MemMedia::new(), 0, 1 << 16).unwrap();
//! store.put_chunk(ChunkId(1), "field", 4, 0, &[1, 2, 3, 4]).unwrap();
//! store.commit(0).unwrap();
//! assert_eq!(store.read_chunk(ChunkId(1)).unwrap(), vec![1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]

pub mod container;
pub mod crashsim;
pub mod format;
pub mod media;
pub mod spill;

pub use container::{Container, FileStore};
pub use crashsim::{
    check_crash_point, enumerate_points, enumerate_points_exhaustive, expected_mark, standard_run,
    surviving_image, CommitMark, CrashMode, CrashPoint, CrashRun, OpRecord, RecordingMedia,
};
pub use media::{FileMedia, Media, MemMedia};
pub use spill::FileSpill;

// Re-export the trait surface so store users rarely need nvm-chkpt
// directly.
pub use nvm_chkpt::persist::{
    PersistError, Persistence, RecoveredChunk, RecoveredState, StoreStats,
};
