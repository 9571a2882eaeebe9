//! The reference model of committed bytes, and the engine run in
//! lockstep with it over a real container: the harness `lockstep.rs`
//! and `precopy_invariants.rs` state their properties over.
//!
//! [`Model`] is what an application may rely on and nothing more.
//! [`run_history`] runs a history of the operations [`Lockstep::step`]
//! lists under one pre-copy policy, on RAM or spilled devices, with or
//! without an `nvm_store::Container`; after every operation the
//! engine's working copies, committed slots and checksums must be the
//! model's, the clock must not have run backwards, and every restart
//! must bring back exactly the model's committed chunks, verified.

use nvm_chkpt::checksum::crc64;
use nvm_chkpt::{
    genid, CheckpointEngine, ChunkId, EngineConfig, PrecopyPolicy, RemoteImage, RestartStrategy,
    Tracer, Versioning,
};
use nvm_emu::{MemSpill, MemoryDevice, SimDuration, SpillStore, VirtualClock};
use nvm_store::{
    expected_mark, surviving_image, CommitMark, Container, CrashPoint, MemMedia, RecordingMedia,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use RestartStrategy::{Eager, Lazy, Parallel};

/// Bytes per chunk.
type Chunks = BTreeMap<ChunkId, Vec<u8>>;

/// Where a restart rebuilds the process from: the surviving device, or
/// on fresh ones the container alone or a buddy's committed chunks.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    Device,
    Store,
    Images,
}

/// Per chunk, the working copy and the committed version (absent:
/// never committed, or superseded by a grow), and what the container's
/// last durable record holds: what the engine and its store must hold.
#[derive(Default)]
pub(crate) struct Model {
    pub(crate) working: Chunks,
    pub(crate) committed: Chunks,
    durable: Chunks,
    /// Chunks grown or deleted since that record: the next drops them.
    dropped: BTreeSet<ChunkId>,
}

impl Model {
    fn alloc(&mut self, id: ChunkId, len: usize) {
        self.working.insert(id, vec![0; len]);
    }

    fn write(&mut self, id: ChunkId, offset: usize, data: &[u8]) {
        let working = self.working.get_mut(&id).expect("written chunks exist");
        working[offset..offset + data.len()].copy_from_slice(data);
    }

    /// A checkpoint of `only` (`None`: every chunk); the container's
    /// record then carries every committed chunk and no dropped one.
    fn commit(&mut self, only: Option<ChunkId>) {
        if let Some(id) = only {
            self.committed.insert(id, self.working[&id].clone());
        } else {
            self.committed.clone_from(&self.working);
        }
        let dropped = std::mem::take(&mut self.dropped);
        self.durable.retain(|id, _| !dropped.contains(id));
        self.durable.extend(self.committed.clone());
    }

    /// `nvrealloc` to a larger `Some(new_len)`, which carries the
    /// working copy over zero-extended, or `nvdelete` (`None`): either
    /// supersedes the committed version.
    fn resize(&mut self, id: ChunkId, new_len: Option<usize>) {
        match new_len {
            Some(new_len) => self.working.get_mut(&id).unwrap().resize(new_len, 0),
            None => drop(self.working.remove(&id)),
        }
        self.committed.remove(&id);
        self.dropped.insert(id);
    }

    /// What a process restarted from `source` holds.
    fn restart(&mut self, source: Source) {
        // The container is reopened: it never heard of those.
        self.dropped.clear();
        match source {
            // Every chunk: its committed version, or zeros.
            Source::Device => {
                for (id, working) in &mut self.working {
                    match self.committed.get(id) {
                        Some(committed) => working.clone_from(committed),
                        None => working.fill(0),
                    }
                }
            }
            Source::Images => self.working.clone_from(&self.committed),
            // The last durable record, which lags the device's table by
            // the grows and deletes since it was written (and, if a
            // restart from elsewhere reopened the container in that
            // window, until the chunk commits again): such a chunk
            // comes back as it was committed.
            Source::Store => {
                self.committed.clone_from(&self.durable);
                self.working.clone_from(&self.durable);
            }
        }
    }
}

/// A spill store whose armed fault counts down its writes: the write
/// that takes `countdown` from 1 to 0 fails, once.
struct FaultySpill {
    inner: MemSpill,
    countdown: Arc<AtomicUsize>,
}

const FAULT: &str = "injected spill write fault";

impl SpillStore for FaultySpill {
    fn alloc(&mut self, len: usize) -> io::Result<u64> {
        self.inner.alloc(len)
    }
    fn write(&mut self, slot: u64, offset: usize, data: &[u8]) -> io::Result<()> {
        let counted = (self.countdown).fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1));
        if counted == Ok(1) {
            return Err(io::Error::other(FAULT));
        }
        self.inner.write(slot, offset, data)
    }
    fn read(&mut self, slot: u64, offset: usize, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read(slot, offset, buf)
    }
    fn free(&mut self, slot: u64, len: usize) {
        self.inner.free(slot, len);
    }
    fn live_bytes(&self) -> u64 {
        self.inner.live_bytes()
    }
    fn peak_bytes(&self) -> u64 {
        self.inner.peak_bytes()
    }
}

/// Chunk names and first sizes: a sub-page chunk, one a page and a
/// fraction long, and one several checksum-kernel strides long.
const CHUNKS: [(&str, usize); 3] = [("c0", 300), ("c1", 5_000), ("c2", 20_000)];
const STRATEGIES: [RestartStrategy; 3] = [Eager, Parallel { streams: 4 }, Lazy];
const PID: u64 = 3;
const CAPACITY: usize = 1 << 20;
/// The container's data region: its commit log starts past it.
const STORE_CAP: usize = 256 << 10;

/// One operation of a history: `(kind, chunk, a, b)`, read by
/// [`Lockstep::step`].
pub(crate) type Op = (u8, usize, u16, u16);

/// An engine, its devices and container, and the model it must match.
pub(crate) struct Lockstep {
    spilled: bool,
    pub(crate) engine: CheckpointEngine,
    nvm: MemoryDevice,
    clock: VirtualClock,
    /// Armed by a fault op: the NVM spill write it counts down to fails.
    fault: Arc<AtomicUsize>,
    /// The container's media (store axis): a seed, the image the last
    /// crash left, then every op since; `since` is the first op since
    /// the last restart, `marks` one per durable state, the seed's first.
    media: Option<SharedMedia>,
    since: usize,
    marks: Vec<CommitMark>,
    /// Chunks a lazy restart left for their first access.
    deferred: BTreeSet<ChunkId>,
    /// The device's chunk table is this process's: not after a restart
    /// from elsewhere (whose deferred chunks wait in the store), until
    /// a commit saves one.
    on_device: bool,
    pub(crate) model: Model,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Fresh devices; when `spilled`, the NVM's spill store faults as
/// `fault` is armed.
fn devices(spilled: bool, fault: &Arc<AtomicUsize>) -> (MemoryDevice, MemoryDevice) {
    let (dram, nvm) = (MemoryDevice::dram(4 << 20), MemoryDevice::pcm(4 << 20));
    if spilled {
        dram.attach_spill(Box::new(MemSpill::new()));
        let (inner, countdown) = (MemSpill::new(), fault.clone());
        nvm.attach_spill(Box::new(FaultySpill { inner, countdown }));
    }
    (dram, nvm)
}

impl Lockstep {
    pub(crate) fn new(config: EngineConfig, spilled: bool, store: bool) -> Result<Self, String> {
        let fault = Arc::default();
        let ((dram, nvm), clock) = (devices(spilled, &fault), VirtualClock::new());
        let engine = CheckpointEngine::new(PID, &dram, &nvm, CAPACITY, clock.clone(), config);
        let mut world = Lockstep {
            spilled,
            engine: engine.map_err(err)?,
            nvm,
            clock,
            fault,
            media: None,
            since: 0,
            marks: Vec::new(),
            deferred: BTreeSet::new(),
            on_device: true,
            model: Model::default(),
        };
        let empty = store.then(MemMedia::new);
        if let Some(store) = world.reopen(empty)? {
            world.engine.set_persistence(Box::new(store));
        }
        for (name, len) in CHUNKS {
            let id = world.engine.nvmalloc(name, len, true).map_err(err)?;
            world.model.alloc(id, len);
        }
        Ok(world)
    }

    /// The container opened again — on its media or, after a crash, on
    /// media seeded with the `crashed` image — recording from here on.
    fn reopen(&mut self, crashed: Option<MemMedia>) -> Result<Option<Store>, String> {
        if let Some(image) = crashed {
            self.media = Some(Arc::new(Mutex::new(RecordingMedia::seeded(&image))));
            // Durable from the seed's fsync (op 1) on.
            self.marks = vec![self.mark(2)];
        }
        let Some(media) = &self.media else {
            return Ok(None);
        };
        self.since = media.lock().unwrap().ops().len();
        let store = Container::open(media.clone(), PID, STORE_CAP).map_err(err)?;
        Ok(Some(store))
    }

    fn mark(&self, ops_after: usize) -> CommitMark {
        let durable = self.model.durable.iter();
        let expected = durable.map(|(id, bytes)| (id.0, bytes.clone())).collect();
        CommitMark::new(self.engine.epoch(), ops_after, expected)
    }

    /// Apply one operation to engine and model alike.
    fn step(&mut self, (kind, c, a, b): Op) -> Result<(), String> {
        let (name, first_len) = CHUNKS[c];
        let id = genid(name);
        let len = self.model.working.get(&id).map(Vec::len);
        let before = self.clock.now();
        match (kind, len) {
            (0..=3, Some(len)) => {
                let offset = a as usize % len;
                let data: Vec<u8> = (0..1 + b as usize % (len - offset))
                    .map(|i| (i as u8).wrapping_mul(31) ^ a as u8)
                    .collect();
                self.engine.write(id, offset, &data).map_err(err)?;
                self.model.write(id, offset, &data);
                self.deferred.remove(&id);
            }
            (4 | 5, _) => self
                .engine
                .compute(SimDuration::from_millis(100 + u64::from(a % 4_000))),
            (6, _) => {
                self.engine.nvchkptall().map_err(err)?;
                self.committed(None);
            }
            (7, Some(_)) => {
                self.engine.nvchkptid(id).map_err(err)?;
                self.committed(Some(id));
            }
            (8, Some(len)) => {
                let new_len = (b % 2 == 0).then(|| len + 1 + a as usize % 4_096);
                match new_len {
                    Some(new_len) => self.engine.nvrealloc(id, new_len),
                    None => self.engine.nvdelete(id),
                }
                .map_err(err)?;
                self.model.resize(id, new_len);
                self.deferred.remove(&id);
            }
            (8, None) => {
                self.engine.nvmalloc(name, first_len, true).map_err(err)?;
                self.model.alloc(id, first_len);
            }
            // Single versioning stages over the committed slot: it
            // survives no crash, so that axis has none.
            (9.., _) if self.engine.config().versioning == Versioning::Single => {}
            (9, _) => {
                let source = match a % 3 {
                    0 if self.on_device => Source::Device,
                    1 if self.media.is_some() => Source::Store,
                    _ => Source::Images,
                };
                self.restart(source, STRATEGIES[c], None)?;
            }
            (10, _) if self.media.is_some() => {
                let media = self.media.as_ref().expect("store axis").lock().unwrap();
                // Counted back from the last op: after a commit, 2 is its record.
                let since = &media.ops()[self.since..];
                let back = since.len() - usize::from(a) % (since.len() + 1);
                let mut point = CrashPoint::pick(since, back, b as u8, b.into());
                point.at_op += self.since;
                drop(media);
                self.restart(Source::Store, STRATEGIES[c], Some(point))?;
            }
            (11.., _) => {
                let only = (b % 2 == 1 && len.is_some()).then_some(id);
                self.fault.store(1 + a as usize % 8, SeqCst);
                let done = match only {
                    Some(id) => self.engine.nvchkptid(id).map(|_| ()),
                    None => self.engine.nvchkptall().map(|_| ()),
                };
                self.fault.store(0, SeqCst);
                match done {
                    Ok(()) => self.committed(only),
                    // The two-version rollback: the previous commit is
                    // intact, wherever the failed checkpoint stopped.
                    Err(e) if e.to_string().contains(FAULT) => {
                        let source = match self.on_device {
                            true => Source::Device,
                            false => Source::Images,
                        };
                        self.restart(source, Eager, None)?;
                    }
                    Err(e) => return Err(err(e)),
                }
            }
            _ => {}
        }
        if self.clock.now() < before {
            return Err(format!("the clock ran back from {before}"));
        }
        Ok(())
    }

    /// A checkpoint of `only` (`None`: of every chunk) returned. It
    /// restored `only`, every chunk deferred in the store and, without
    /// dirty tracking, every chunk, and it saved the chunk table.
    fn committed(&mut self, only: Option<ChunkId>) {
        self.model.commit(only);
        if let Some(id) = only {
            self.deferred.remove(&id);
        }
        let tracking = self.engine.config().precopy != PrecopyPolicy::None;
        if !self.on_device || only.is_none() && !tracking {
            self.deferred.clear();
        }
        self.on_device = true;
        if let Some(media) = &self.media {
            let ops_after = media.lock().unwrap().ops().len();
            self.marks.push(self.mark(ops_after));
        }
    }

    /// The process dies (and the container with it at `crash`) and comes
    /// back from `source` under `strategy`: exactly the chunks the model
    /// has committed, each verified.
    fn restart(
        &mut self,
        source: Source,
        strategy: RestartStrategy,
        crash: Option<CrashPoint>,
    ) -> Result<(), String> {
        let crashed = match (crash, &self.media) {
            (Some(point), Some(media)) => {
                let mark = expected_mark(&self.marks, &point).ok_or("no durable state")?;
                let durable = mark.expected.iter();
                self.model.durable = durable.map(|(id, b)| (ChunkId(*id), b.clone())).collect();
                Some(surviving_image(media.lock().unwrap().ops(), &point))
            }
            _ => None,
        };
        let (config, clock) = (*self.engine.config(), self.clock.clone());
        let tracer = Tracer::disabled();
        let (dram, nvm) = devices(self.spilled, &self.fault);
        let mut store = self.reopen(crashed)?;
        let (engine, report) = match source {
            Source::Device => {
                let region = self.engine.metadata_region();
                CheckpointEngine::restart(&dram, &self.nvm, region, clock, config, strategy, tracer)
            }
            Source::Store => {
                let store = Box::new(store.take().expect("a store restart has a store"));
                CheckpointEngine::restart_from_store(
                    &dram, &nvm, CAPACITY, clock, config, strategy, store, tracer,
                )
            }
            Source::Images => {
                // What `committed_bytes` shipped to the buddy: the
                // per-step check holds it to the model's.
                let mut images = Vec::new();
                for (&id, payload) in &self.model.committed {
                    let chunk = self.engine.heap().chunk(id).map_err(err)?;
                    let (name, epoch) = (chunk.name.clone(), chunk.committed_epoch);
                    let (len, payload) = (payload.len(), payload.clone());
                    let checksum = None;
                    images.push(RemoteImage {
                        id,
                        name,
                        len,
                        checksum,
                        epoch,
                        payload,
                    });
                }
                let epoch = self.engine.epoch();
                CheckpointEngine::restart_from_images(
                    PID, &dram, &nvm, CAPACITY, clock, config, strategy, &images, epoch, tracer,
                )
            }
        }
        .map_err(err)?;
        self.engine = engine;
        if source != Source::Device {
            self.nvm = nvm;
        }
        if let Some(store) = store {
            self.engine.set_persistence(Box::new(store));
        }
        self.model.restart(source);
        self.on_device = source == Source::Device;
        self.deferred = report.deferred.iter().copied().collect();
        let back: BTreeSet<_> = report.restored.iter().chain(&report.deferred).collect();
        let never: BTreeSet<_> = report.never_committed.iter().collect();
        let model = &self.model;
        let committed: BTreeSet<_> = model.committed.keys().collect();
        let uncommitted = model.working.keys().filter(|id| !committed.contains(id));
        if !report.corrupt.is_empty() || back != committed || !never.into_iter().eq(uncommitted) {
            return Err(format!("{source:?}: {report:?}, committed {committed:?}"));
        }
        Ok(())
    }

    /// Working copies and, with `slots`, committed slots and their CRCs
    /// are the model's — of every chunk a read would not restore.
    fn check(&mut self, slots: bool) -> Result<(), String> {
        let (pending, deferred) = (self.engine.lazy_pending_count(), &self.deferred);
        if pending != deferred.len() {
            return Err(format!("{pending} chunks pending, deferred {deferred:?}"));
        }
        for (&id, want) in &self.model.working {
            if self.deferred.contains(&id) {
                continue;
            }
            let mut got = vec![0u8; want.len()];
            self.engine.read(id, 0, &mut got).map_err(err)?;
            if &got != want {
                return Err(format!("working copy of {id:?} differs from the model"));
            }
            if !slots {
                continue;
            }
            let slot = self.engine.committed_bytes(id).ok();
            if slot.as_ref() != self.model.committed.get(&id) {
                return Err(format!("committed slot of {id:?} differs from the model"));
            }
            let sum = self.engine.heap().chunk(id).map_err(err)?.checksum;
            if slot.is_some_and(|slot| sum != Some(crc64(&slot))) {
                return Err(format!("{id:?}: checksum {sum:x?} is not its slot's"));
            }
        }
        Ok(())
    }
}

type SharedMedia = Arc<Mutex<RecordingMedia>>;
type Store = Container<SharedMedia>;

/// Run `ops` on `world`, checking after every step — its slots, under
/// single versioning, only once `nvchkptall` has committed every stage.
pub(crate) fn run_history(world: Result<Lockstep, String>, ops: &[Op]) -> Result<Lockstep, String> {
    let mut world = world?;
    for (i, &op) in ops.iter().enumerate() {
        let at = |e: String| format!("op {i} {op:?}: {e}");
        world.step(op).map_err(at)?;
        let slots = world.engine.config().versioning == Versioning::Double || op.0 == 6;
        world.check(slots).map_err(at)?;
    }
    Ok(world)
}

const POLICIES: [PrecopyPolicy; 4] = [
    PrecopyPolicy::None,
    PrecopyPolicy::Cpc,
    PrecopyPolicy::Dcpc,
    PrecopyPolicy::Dcpcp,
];

/// Writes weigh four of twelve kinds, computes and commits two each, the
/// rest one each; every kind past those is a fault.
pub(crate) fn ops(kinds: u8) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..kinds, 0usize..3, any::<u16>(), any::<u16>()), 1..40)
}

/// Run `ops` under every policy and each `(spilled, store)` of `on`.
pub(crate) fn every_policy(
    versioning: Versioning,
    on: &[(bool, bool)],
    ops: &[Op],
) -> Result<(), String> {
    for policy in POLICIES {
        for &(spilled, store) in on {
            let mut config = EngineConfig::default().with_precopy(policy);
            config.versioning = versioning;
            let world = Lockstep::new(config, spilled, store);
            let axes = format!("{policy:?} {versioning:?} spilled={spilled} store={store}");
            run_history(world, ops).map_err(|e| format!("{axes}: {e}"))?;
        }
    }
    Ok(())
}

pub(crate) const BACKINGS: [(bool, bool); 4] =
    [(false, false), (false, true), (true, false), (true, true)];
