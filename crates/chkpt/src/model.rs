//! The reference model of committed bytes, and the engine run in
//! lockstep with it.
//!
//! [`Model`] is what an application may rely on and nothing more: per
//! chunk, the working copy it wrote and the version the last checkpoint
//! of that chunk committed. The proptest below drives an engine and the
//! model through one random history of writes, computes (the pre-copy
//! drain), `nvchkptall`, `nvchkptid`, `nvrealloc`, `nvdelete` and
//! re-`nvmalloc`, and restarts, under every pre-copy policy, with the
//! devices' bytes in RAM or in a spill store, with and without a durable
//! backend. After every operation the engine's working copies and
//! committed slots must equal the model's; after every commit each
//! committed chunk's checksum must be the CRC of its slot; every restart
//! must verify clean. Policies differ in when bytes are copied and
//! hashed — a staged chunk is checksummed as it is copied — never in
//! which bytes are committed under which checksum.

use crate::checksum::crc64;
use crate::persist::{PersistError, Persistence, RecoveredState, StoreStats};
use crate::{CheckpointEngine, ChunkId, EngineConfig, PrecopyPolicy, RestartStrategy, Tracer};
use nvm_emu::{MemSpill, MemoryDevice, SimDuration, VirtualClock};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// In-memory stand-in for the nvm-store container (which depends on
/// this crate, so cannot be used here). It checksums a staged payload
/// the way the container does: one `crc64` pass, kept and returned.
#[derive(Default)]
pub(crate) struct CrcStore {
    staged: BTreeMap<ChunkId, u64>,
}

impl Persistence for CrcStore {
    fn put_chunk(
        &mut self,
        id: ChunkId,
        _name: &str,
        _len: usize,
        _epoch: u64,
        payload: &[u8],
    ) -> Result<u64, PersistError> {
        let crc = crc64(payload);
        self.staged.insert(id, crc);
        Ok(crc)
    }
    fn delete_chunk(&mut self, id: ChunkId) {
        self.staged.remove(&id);
    }
    fn commit(&mut self, _epoch: u64) -> Result<(), PersistError> {
        Ok(())
    }
    fn recover(&mut self) -> Result<RecoveredState, PersistError> {
        Ok(Default::default())
    }
    fn payload_len(&self, id: ChunkId) -> Result<usize, PersistError> {
        Err(PersistError::NoSuchChunk(id.0))
    }
    fn read_chunk_into(&mut self, id: ChunkId, _buf: &mut [u8]) -> Result<(), PersistError> {
        Err(PersistError::NoSuchChunk(id.0))
    }
    fn stats(&self) -> StoreStats {
        Default::default()
    }
}

/// Per chunk, the working copy and the committed version (absent: never
/// committed, or superseded by a grow): what the engine must hold.
#[derive(Default)]
struct Model {
    working: BTreeMap<ChunkId, Vec<u8>>,
    committed: BTreeMap<ChunkId, Vec<u8>>,
}

impl Model {
    fn alloc(&mut self, id: ChunkId, len: usize) {
        self.working.insert(id, vec![0; len]);
    }

    fn write(&mut self, id: ChunkId, offset: usize, data: &[u8]) {
        let working = self.working.get_mut(&id).expect("written chunks exist");
        working[offset..offset + data.len()].copy_from_slice(data);
    }

    fn commit(&mut self, id: ChunkId) {
        self.committed.insert(id, self.working[&id].clone());
    }

    fn commit_all(&mut self) {
        self.committed = self.working.clone();
    }

    /// `nvrealloc` to a larger size: the working copy is carried over
    /// and zero-extended; the old committed version is superseded.
    fn grow(&mut self, id: ChunkId, new_len: usize) {
        self.working
            .get_mut(&id)
            .expect("grown chunks exist")
            .resize(new_len, 0);
        self.committed.remove(&id);
    }

    fn delete(&mut self, id: ChunkId) {
        self.working.remove(&id);
        self.committed.remove(&id);
    }

    /// A process restart on the surviving NVM: each working copy is its
    /// committed version, or zeros where none was committed.
    fn restart(&mut self) {
        for (id, working) in &mut self.working {
            match self.committed.get(id) {
                Some(committed) => working.clone_from(committed),
                None => working.fill(0),
            }
        }
    }
}

/// Chunk names and first sizes: a sub-page chunk, one a page and a
/// fraction long, and one several checksum-kernel strides long.
const CHUNKS: [(&str, usize); 3] = [("c0", 300), ("c1", 5_000), ("c2", 20_000)];

/// One operation of a history: `(kind, chunk, a, b)`, read by
/// [`Lockstep::step`].
type Op = (u8, usize, u16, u16);

/// An engine, the devices it runs on, and the model it must agree with.
struct Lockstep {
    engine: CheckpointEngine,
    nvm: MemoryDevice,
    clock: VirtualClock,
    spilled: bool,
    store: bool,
    model: Model,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Lockstep {
    fn device(device: MemoryDevice, spilled: bool) -> MemoryDevice {
        if spilled {
            device.attach_spill(Box::new(MemSpill::new()));
        }
        device
    }

    fn dram(spilled: bool) -> MemoryDevice {
        Self::device(MemoryDevice::dram(16 << 20), spilled)
    }

    fn new(policy: PrecopyPolicy, spilled: bool, store: bool) -> Result<Self, String> {
        let nvm = Self::device(MemoryDevice::pcm(16 << 20), spilled);
        let clock = VirtualClock::new();
        let config = EngineConfig::default().with_precopy(policy);
        let dram = Self::dram(spilled);
        let engine = CheckpointEngine::new(0, &dram, &nvm, 4 << 20, clock.clone(), config);
        let mut world = Lockstep {
            engine: engine.map_err(err)?,
            nvm,
            clock,
            spilled,
            store,
            model: Model::default(),
        };
        world.attach_store();
        for (name, len) in CHUNKS {
            let id = world.engine.nvmalloc(name, len, true).map_err(err)?;
            world.model.alloc(id, len);
        }
        Ok(world)
    }

    fn attach_store(&mut self) {
        if self.store {
            self.engine.set_persistence(Box::new(CrcStore::default()));
        }
    }

    /// Apply one operation to engine and model alike.
    fn step(&mut self, (kind, c, a, b): Op) -> Result<(), String> {
        let (name, first_len) = CHUNKS[c];
        let id = crate::genid(name);
        let len = self.model.working.get(&id).map(Vec::len);
        match (kind, len) {
            (0..=3, Some(len)) => {
                let offset = a as usize % len;
                let data: Vec<u8> = (0..1 + b as usize % (len - offset))
                    .map(|i| (i as u8).wrapping_mul(31) ^ a as u8)
                    .collect();
                self.engine.write(id, offset, &data).map_err(err)?;
                self.model.write(id, offset, &data);
            }
            (4 | 5, _) => {
                let dur = SimDuration::from_millis(100 + u64::from(a % 4_000));
                self.engine.compute(dur);
            }
            (6, _) => {
                self.engine.nvchkptall().map_err(err)?;
                self.model.commit_all();
                return self.check_checksums();
            }
            (7, Some(_)) => {
                self.engine.nvchkptid(id).map_err(err)?;
                self.model.commit(id);
                return self.check_checksums();
            }
            (8, Some(len)) if b % 2 == 0 => {
                let new_len = len + 1 + a as usize % 4_096;
                self.engine.nvrealloc(id, new_len).map_err(err)?;
                self.model.grow(id, new_len);
            }
            (8, Some(_)) => {
                self.engine.nvdelete(id).map_err(err)?;
                self.model.delete(id);
            }
            (8, None) => {
                self.engine.nvmalloc(name, first_len, true).map_err(err)?;
                self.model.alloc(id, first_len);
            }
            (9, _) => self.restart()?,
            _ => {}
        }
        Ok(())
    }

    /// The process dies and restarts on its surviving NVM, with fresh
    /// DRAM; every committed chunk must verify.
    fn restart(&mut self) -> Result<(), String> {
        let config = *self.engine.config();
        let region = self.engine.metadata_region();
        let (engine, report) = CheckpointEngine::restart(
            &Self::dram(self.spilled),
            &self.nvm,
            region,
            self.clock.clone(),
            config,
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .map_err(err)?;
        self.engine = engine;
        self.attach_store();
        self.model.restart();
        if !report.corrupt.is_empty() {
            return Err(format!("restart found corrupt chunks: {report:?}"));
        }
        let restored: Vec<ChunkId> = self.model.committed.keys().copied().collect();
        if report.restored != restored {
            return Err(format!("restored {report:?}, committed {restored:?}"));
        }
        Ok(())
    }

    /// Working copies and committed slots are the model's.
    fn check_bytes(&mut self) -> Result<(), String> {
        for (&id, want) in &self.model.working {
            let mut got = vec![0u8; want.len()];
            self.engine.read(id, 0, &mut got).map_err(err)?;
            if &got != want {
                return Err(format!("working copy of {id:?} differs from the model"));
            }
            let committed = self.model.committed.get(&id);
            let has = self.engine.heap().chunk(id).map_err(err)?.has_committed();
            if has != committed.is_some() {
                let model = committed.is_some();
                return Err(format!("{id:?} committed: engine {has}, model {model}"));
            }
            if let Some(want) = committed {
                if &self.engine.committed_bytes(id).map_err(err)? != want {
                    return Err(format!("committed slot of {id:?} differs from the model"));
                }
            }
        }
        Ok(())
    }

    /// Each committed chunk's checksum is the CRC of its slot's bytes.
    fn check_checksums(&self) -> Result<(), String> {
        for &id in self.model.committed.keys() {
            let sum = self.engine.heap().chunk(id).map_err(err)?.checksum;
            let slot = crc64(&self.engine.committed_bytes(id).map_err(err)?);
            if sum != Some(slot) {
                return Err(format!("{id:?}: checksum {sum:x?}, slot CRC {slot:#x}"));
            }
        }
        Ok(())
    }
}

/// Run `ops` on one engine configuration, checking after every step.
fn run_history(
    policy: PrecopyPolicy,
    spilled: bool,
    store: bool,
    ops: &[Op],
) -> Result<(), String> {
    let mut world = Lockstep::new(policy, spilled, store)?;
    for (i, &op) in ops.iter().enumerate() {
        let at = |e: String| format!("op {i} {op:?}: {e}");
        world.step(op).map_err(at)?;
        world.check_bytes().map_err(at)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writes weigh four of ten kinds, computes two, and commits,
    /// grow/delete/re-allocate and restarts one each.
    #[test]
    fn engine_commits_what_the_model_commits_under_every_policy_backing_and_store(
        ops in proptest::collection::vec((0u8..10, 0usize..3, any::<u16>(), any::<u16>()), 1..40),
    ) {
        for policy in [PrecopyPolicy::None, PrecopyPolicy::Cpc, PrecopyPolicy::Dcpc, PrecopyPolicy::Dcpcp] {
            for spilled in [false, true] {
                for store in [false, true] {
                    let outcome = run_history(policy, spilled, store, &ops);
                    prop_assert!(
                        outcome.is_ok(),
                        "{policy:?} spilled={spilled} store={store}: {}",
                        outcome.unwrap_err()
                    );
                }
            }
        }
    }
}
