//! The engine-over-a-container-file fixture the kv and store workloads
//! share: the serving configuration (real bytes, checksums, DCPCP —
//! `EngineConfig::default`) mirrored into a `FileStore`.

use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartReport, RestartStrategy, Tracer};
use nvm_emu::{MemoryDevice, VirtualClock};
use nvm_store::FileStore;
use std::path::Path;

/// Capacities of one fixture, bytes.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// DRAM device (working copies).
    pub dram: usize,
    /// NVM device.
    pub nvm: usize,
    /// Chunk bytes the engine may hold; both version slots of every
    /// chunk come out of it.
    pub container: usize,
    /// Data region of the container file (two shadow slots per chunk).
    pub store: usize,
}

/// A fresh engine on fresh devices, mirrored into a new container file
/// at `path`.
pub fn engine_with_store(path: &Path, sizes: Sizes, clock: VirtualClock) -> CheckpointEngine {
    let mut engine = CheckpointEngine::new(
        0,
        &MemoryDevice::dram(sizes.dram),
        &MemoryDevice::pcm(sizes.nvm),
        sizes.container,
        clock,
        EngineConfig::default(),
    )
    .expect("fixture engine");
    let store = FileStore::open_path(path, 0, sizes.store).expect("fixture container file");
    engine.set_persistence(Box::new(store));
    engine
}

/// A crashed process comes back: fresh devices, nothing but the
/// container file at `path`, every chunk restored before control
/// returns.
pub fn restart_from_store(
    path: &Path,
    sizes: Sizes,
    clock: VirtualClock,
) -> Result<(CheckpointEngine, RestartReport), String> {
    let store = FileStore::open_existing(path).map_err(|e| e.to_string())?;
    CheckpointEngine::restart_from_store(
        &MemoryDevice::dram(sizes.dram),
        &MemoryDevice::pcm(sizes.nvm),
        sizes.container,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        Tracer::disabled(),
    )
    .map_err(|e| e.to_string())
}
