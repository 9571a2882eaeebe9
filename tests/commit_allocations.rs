//! Pins the byte path's allocation behaviour: a committed or restored
//! chunk is staged, checksummed, mirrored and verified where it lies,
//! so no step of `nvchkptall`, `nvchkptid` or any restart asks the
//! allocator for a chunk-sized temporary.
//!
//! The global allocator is wrapped to record every request of at least
//! one chunk (1 MiB). A region of 2 MiB or more takes its bytes from a
//! mapping instead, which `nvm_emu::mapped_bytes` counts. A phase may
//! ask for such bytes, either way, only for a device region that is
//! still resident when the phase ends (a restart's new working copies,
//! a fresh device's container): the large bytes requested plus the
//! bytes mapped and the growth of the devices' resident bytes must
//! differ by less than one chunk — a region holds its first page
//! without a large request (`nvm_emu::device` module docs), and a
//! chunk-sized temporary is a whole chunk more than what stays
//! resident.
//!
//! The checksum under all of those steps asks for nothing at all:
//! every request, of any size, is counted too, and `crc64` over 64 KiB
//! and over 4 MiB must make none.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test can
//! pollute the process-wide counters between two samples.

use nvm_chkpt::checksum::crc64;
use nvm_chkpt::{
    CheckpointEngine, ChunkId, EngineConfig, PrecopyPolicy, RestartReport, RestartStrategy, Tracer,
};
use nvm_emu::{mapped_bytes, MemoryDevice, RegionId, SimDuration, VirtualClock};
use nvm_store::{Container, MemMedia};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

const MB: usize = 1 << 20;
const CHUNKS: usize = 8;
const CHUNK_BYTES: usize = MB;
/// Both version slots of every chunk (and, in the store, their
/// headers), plus slack.
const CONTAINER: usize = 2 * CHUNKS * CHUNK_BYTES + 4 * MB;

/// System allocator that counts every request, and sums, and
/// remembers the largest of, the requests of at least [`CHUNK_BYTES`].
struct LargeRequests;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    REQUESTS.fetch_add(1, Relaxed);
    if size >= CHUNK_BYTES {
        LARGE_BYTES.fetch_add(size, Relaxed);
        LARGEST.fetch_max(size, Relaxed);
    }
}

unsafe impl GlobalAlloc for LargeRequests {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargeRequests = LargeRequests;

/// Run `f`; every chunk-sized request it made, and every mapping, must
/// be a region that `devices` still hold. A region's first page is held
/// without a large request, so the two may differ by less than one
/// chunk.
fn phase<R>(what: &str, devices: [&MemoryDevice; 2], f: impl FnOnce() -> R) -> R {
    let resident = || devices.iter().map(|d| d.resident_bytes()).sum::<u64>();
    let asked = || LARGE_BYTES.load(Relaxed) as u64 + mapped_bytes();
    let (regions, before) = (resident(), asked());
    LARGEST.store(0, Relaxed);
    let out = f();
    let asked = asked() - before;
    let grew = resident() - regions;
    assert!(
        asked.abs_diff(grew) < CHUNK_BYTES as u64,
        "{what}: chunk-sized temporary requested: {asked} large or mapped bytes, resident grew \
         {grew} (largest single request {} bytes)",
        LARGEST.load(Relaxed)
    );
    out
}

fn payload(chunk: usize, epoch: u8) -> Vec<u8> {
    (0..CHUNK_BYTES)
        .map(|i| (i as u8).wrapping_mul(31) ^ (chunk as u8) ^ epoch.wrapping_mul(17))
        .collect()
}

type SharedMedia = Arc<Mutex<MemMedia>>;

struct Process {
    dram: MemoryDevice,
    nvm: MemoryDevice,
    engine: CheckpointEngine,
    ids: Vec<ChunkId>,
    /// What each chunk's committed version must hold.
    model: Vec<Vec<u8>>,
}

fn config() -> EngineConfig {
    EngineConfig::default().with_precopy(PrecopyPolicy::Cpc)
}

fn fresh_devices() -> (MemoryDevice, MemoryDevice) {
    (
        MemoryDevice::dram(CHUNKS * CHUNK_BYTES + 4 * MB),
        MemoryDevice::pcm(CONTAINER + 4 * MB),
    )
}

impl Process {
    /// A CPC engine over eight 1 MiB chunks, mirrored into `media` when
    /// there is one, two full epochs in: both version slots of every
    /// chunk exist on the device and in the container.
    fn start(media: Option<&SharedMedia>) -> Self {
        let (dram, nvm) = fresh_devices();
        let mut engine =
            CheckpointEngine::new(0, &dram, &nvm, CONTAINER, VirtualClock::new(), config())
                .unwrap();
        if let Some(media) = media {
            let store = Container::open(media.clone(), 0, CONTAINER).unwrap();
            engine.set_persistence(Box::new(store));
        }
        let ids = (0..CHUNKS)
            .map(|c| {
                engine
                    .nvmalloc(&format!("c{c}"), CHUNK_BYTES, true)
                    .unwrap()
            })
            .collect();
        let mut p = Process {
            dram,
            nvm,
            engine,
            ids,
            model: vec![Vec::new(); CHUNKS],
        };
        for epoch in 0..2 {
            for c in 0..CHUNKS {
                p.write(c, epoch);
            }
            p.engine.compute(SimDuration::from_secs(5));
            p.engine.nvchkptall().unwrap();
        }
        p
    }

    fn write(&mut self, chunk: usize, epoch: u8) {
        self.model[chunk] = payload(chunk, epoch);
        self.engine
            .write(self.ids[chunk], 0, &self.model[chunk])
            .unwrap();
    }

    /// `nvchkptall` over chunks pre-copy staged in `compute` and chunks
    /// the blocking step has to copy itself, then `nvchkptid`.
    fn commits(&mut self, what: &str) {
        for c in 0..CHUNKS / 2 {
            self.write(c, 2);
        }
        let [dram, nvm] = [self.dram.clone(), self.nvm.clone()];
        phase(&format!("{what}: compute"), [&dram, &nvm], || {
            self.engine.compute(SimDuration::from_secs(5))
        });
        for c in CHUNKS / 2..CHUNKS {
            self.write(c, 2);
        }
        let report = phase(&format!("{what}: nvchkptall"), [&dram, &nvm], || {
            self.engine.nvchkptall().unwrap()
        });
        let half = (CHUNKS / 2 * CHUNK_BYTES) as u64;
        assert_eq!(report.precopied_bytes, half, "{what}: staged in compute");
        assert_eq!(report.coordinated_bytes, half, "{what}: copied blocking");

        self.write(3, 3);
        phase(&format!("{what}: nvchkptid"), [&dram, &nvm], || {
            self.engine.nvchkptid(self.ids[3]).unwrap()
        });
        self.check(what);
    }

    /// Committed versions and working copies are the model's.
    fn check(&mut self, what: &str) {
        let mut working = vec![0u8; CHUNK_BYTES];
        for (c, id) in self.ids.iter().enumerate() {
            assert!(
                self.engine.committed_bytes(*id).unwrap() == self.model[c],
                "{what}: committed bytes of chunk {c}"
            );
            self.engine.read(*id, 0, &mut working).unwrap();
            assert!(
                working == self.model[c],
                "{what}: working copy of chunk {c}"
            );
        }
    }

    /// Soft failure: the process dies, its NVM device survives.
    fn crash(self) -> (MemoryDevice, RegionId, Vec<ChunkId>, Vec<Vec<u8>>) {
        let region = self.engine.metadata_region();
        (self.nvm, region, self.ids, self.model)
    }

    /// A restart made inside a [`phase`], the first access of every
    /// deferred chunk inside another, then the bytes checked.
    fn restarted(
        what: &str,
        devices: (MemoryDevice, MemoryDevice),
        ids: Vec<ChunkId>,
        model: Vec<Vec<u8>>,
        restart: impl FnOnce(&MemoryDevice, &MemoryDevice) -> (CheckpointEngine, RestartReport),
    ) -> Self {
        let (dram, nvm) = devices;
        let (engine, report) = phase(what, [&dram, &nvm], || restart(&dram, &nvm));
        assert!(report.corrupt.is_empty(), "{what}");
        assert_eq!(report.restored.len() + report.deferred.len(), CHUNKS);
        let mut p = Process {
            dram,
            nvm,
            engine,
            ids,
            model,
        };
        let [dram, nvm] = [p.dram.clone(), p.nvm.clone()];
        phase(&format!("{what}: first access"), [&dram, &nvm], || {
            for id in &report.deferred {
                p.engine.read(*id, 0, &mut [0u8; 64]).unwrap();
            }
        });
        assert_eq!(p.engine.lazy_pending_count(), 0, "{what}");
        p.check(what);
        p
    }
}

#[test]
fn no_commit_or_restart_step_allocates_a_chunk_sized_temporary() {
    // --- The checksum: nothing, of any size, once the first call has
    // detected what the CPU can do. ---
    let bytes = [payload(0, 0), payload(1, 0), payload(2, 0), payload(3, 0)].concat();
    let first = crc64(&bytes[..64 << 10]);
    let requests = REQUESTS.load(Relaxed);
    let again = (crc64(&bytes[..64 << 10]), crc64(&bytes));
    assert_eq!(REQUESTS.load(Relaxed) - requests, 0, "crc64 allocated");
    assert_eq!(again.0, first);
    assert_ne!(again.1, first);

    // --- Without a store. ---
    let mut p = Process::start(None);
    p.commits("no store");
    for strategy in [RestartStrategy::Eager, RestartStrategy::Lazy] {
        let (nvm, region, ids, model) = p.crash();
        let what = format!("device restart, {strategy:?}");
        let devices = (fresh_devices().0, nvm);
        p = Process::restarted(&what, devices, ids, model, |dram, nvm| {
            let clock = VirtualClock::new();
            let tracer = Tracer::disabled();
            CheckpointEngine::restart(dram, nvm, region, clock, config(), strategy, tracer).unwrap()
        });
    }
    // A restarted engine commits the same way.
    p.commits("no store, restarted");
    drop(p);

    // --- With a store: `Container<MemMedia>` whose image never has to
    // grow past its capacity (a growing `Vec` is not the byte path).
    let media: SharedMedia = Arc::new(Mutex::new(MemMedia::from_bytes(Vec::with_capacity(
        CONTAINER + 4 * MB,
    ))));
    let mut p = Process::start(Some(&media));
    p.commits("store");
    for strategy in [RestartStrategy::Eager, RestartStrategy::Lazy] {
        // Hard failure: nothing survives but the container image.
        let Process { ids, model, .. } = p;
        let what = format!("restart_from_store, {strategy:?}");
        let store = Container::open(media.clone(), 0, 0).unwrap();
        p = Process::restarted(&what, fresh_devices(), ids, model, |dram, nvm| {
            CheckpointEngine::restart_from_store(
                dram,
                nvm,
                CONTAINER,
                VirtualClock::new(),
                config(),
                strategy,
                Box::new(store),
                Tracer::disabled(),
            )
            .unwrap()
        });
        p.commits(&what);
    }
    let (nvm, region, ids, model) = p.crash();
    let devices = (fresh_devices().0, nvm);
    Process::restarted(
        "device restart after store",
        devices,
        ids,
        model,
        |dram, nvm| {
            let (clock, tracer) = (VirtualClock::new(), Tracer::disabled());
            CheckpointEngine::restart(
                dram,
                nvm,
                region,
                clock,
                config(),
                RestartStrategy::Lazy,
                tracer,
            )
            .unwrap()
        },
    );
}
