//! Pins the application write path's allocation behaviour: in steady
//! state a write asks the allocator for nothing, whatever the size of
//! the chunk it lands in — the page map answers from its uniform state
//! and cached counts and never builds a per-page vector for a write
//! that leaves every page as it was, and a device write into a region
//! already materialized is a copy, whether or not its pages were
//! written before — a metadata save of a table no larger than the last
//! one encodes into the buffer the region keeps, and a kv operation
//! compares keys where the log holds them and encodes its record into
//! the buffer the store keeps, so that an `upsert` or a `delete`
//! allocates nothing, even when its append reaches log pages never
//! written before, a `read` hit allocates the value it returns and
//! nothing else — and zero-fills nothing — and a read miss allocates
//! nothing. A size-only engine costs what is written to it: building
//! one with seven 50 MiB chunks and committing it asks for no buffer
//! larger than a page (its 1 MiB metadata region holds only the page a
//! save reaches), and a steady-state commit encodes the chunk table
//! from the heap's own, copying no record or name. A kv recovery
//! replays the log where the restarted engine holds it, copying out no
//! segment.
//!
//! The global allocator is wrapped to count every request. Everything
//! runs inside ONE `#[test]` so no concurrent test can pollute the
//! process-wide counter between two samples.

use nvm_chkpt::{
    CheckpointEngine, EngineConfig, Materialization, PrecopyPolicy, RestartStrategy, Tracer,
};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock, PAGE_SIZE};
use nvm_kv::{KvConfig, KvStore};
use nvm_paging::{ChunkId, ChunkRecord, MetadataRegion, ProcessMetadata};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const MB: usize = 1 << 20;

/// System allocator wrapped with a request counter, which also sums
/// and keeps the largest of the sizes asked for.
struct CountingAlloc;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static ZEROED: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    REQUESTS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        ZEROED.fetch_add(1, Relaxed);
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
static COUNTER: CountingAlloc = CountingAlloc;

fn requests_during(f: impl FnOnce()) -> usize {
    let before = REQUESTS.load(Relaxed);
    f();
    REQUESTS.load(Relaxed) - before
}

/// What `f` returns, with the largest single request it made and the
/// bytes all of its requests asked for.
fn sizes_during<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let before = BYTES.load(Relaxed);
    LARGEST.store(0, Relaxed);
    let out = f();
    (out, LARGEST.load(Relaxed), BYTES.load(Relaxed) - before)
}

fn engine(container: usize, config: EngineConfig) -> CheckpointEngine {
    let dram = MemoryDevice::dram(container);
    let nvm = MemoryDevice::pcm(2 * container + 4 * MB);
    CheckpointEngine::new(0, &dram, &nvm, 2 * container, VirtualClock::new(), config).unwrap()
}

#[test]
fn steady_state_writes_and_saves_do_not_allocate() {
    // --- The cluster workloads' write: a size-only chunk, rewritten
    // whole every iteration (51,200 pages). ---
    const BIG: usize = 200 * MB;
    let synthetic = EngineConfig::builder()
        .precopy(PrecopyPolicy::Cpc)
        .materialization(Materialization::Synthetic)
        .checksums(false)
        .build()
        .unwrap();
    let mut e = engine(BIG, synthetic);
    let id = e.nvmalloc("field", BIG, true).unwrap();
    e.write_synthetic(id, 0, BIG).unwrap(); // warm-up
    let whole = requests_during(|| {
        for _ in 0..1000 {
            e.write_synthetic(id, 0, BIG).unwrap();
        }
    });
    assert_eq!(whole, 0, "whole-chunk writes of a 200 MiB synthetic chunk");

    // --- The kv workloads' write: a few bytes into a byte-backed
    // 4 MiB chunk (1,024 pages) that is already dirty, most of them
    // into pages never written before: one write at its end
    // materialized it whole... ---
    const SMALL: usize = 4 * MB;
    let mut e = engine(
        SMALL,
        EngineConfig::default().with_precopy(PrecopyPolicy::Cpc),
    );
    let id = e.nvmalloc("log", SMALL, true).unwrap();
    e.write(id, SMALL - 16, &[1; 16]).unwrap(); // warm-up
    let small = requests_during(|| {
        for i in 0..1000 {
            e.write(id, (i * 4099) % (SMALL - 16), &[i as u8; 16])
                .unwrap();
        }
    });
    assert_eq!(small, 0, "16-byte writes into a dirty chunk");

    // --- ...and the first one after a commit left the chunk clean and
    // write-protected: the fault re-opens the whole chunk. ---
    e.compute(SimDuration::from_secs(1));
    e.nvchkptall().unwrap();
    let faults = e.stats().faults;
    let fault = requests_during(|| e.write(id, 3 * MB + 5, &[9; 16]).unwrap());
    assert_eq!(
        e.stats().faults,
        faults + 1,
        "that write took the fault path"
    );
    assert_eq!(fault, 0, "the first write after a commit");

    // --- The kv path: mutations of existing keys that neither roll a
    // segment nor grow the index, then read hits. ---
    const KEYS: usize = 200;
    const SEGMENT: usize = MB;
    let mut e = engine(4 * MB, EngineConfig::default());
    let cfg = KvConfig {
        initial_index_slots: 1024,
        segment_bytes: SEGMENT as u64,
        ..KvConfig::default()
    };
    let mut kv = KvStore::create(&mut e, cfg).unwrap();
    let session = kv.new_session().unwrap();
    let keys: Vec<String> = (0..KEYS).map(|k| format!("user{k:08}")).collect();
    // Warm-up: every key twice (the second pass overwrites, as the
    // measured ones will). The segment's first write past its first
    // page materialized it whole; the measured appends then reach its
    // pages never written before, and those cost no allocation.
    for pass in 0..2u8 {
        for key in &keys {
            kv.upsert(&mut e, session, key.as_bytes(), &[pass; 32])
                .unwrap();
        }
    }
    let before = kv.stats();
    let upserts = requests_during(|| {
        for i in 0..1000 {
            let key = keys[(i * 7) % KEYS].as_bytes();
            kv.upsert(&mut e, session, key, &[i as u8; 32]).unwrap();
        }
    });
    assert_eq!(
        (kv.stats().segments, kv.stats().index_slots),
        (before.segments, before.index_slots),
        "no segment rolled, the index did not grow"
    );
    let pages = |bytes: u64| bytes.div_ceil(PAGE_SIZE as u64);
    let reached = pages(kv.stats().log_bytes) - pages(before.log_bytes);
    assert!(reached >= 8, "the appends reached {reached} fresh pages");
    assert_eq!(upserts, 0, "upserts of existing keys into fresh log pages");
    let zeroed = ZEROED.load(Relaxed);
    let reads = requests_during(|| {
        for i in 0..1000 {
            let key = keys[(i * 13) % KEYS].as_bytes();
            assert!(kv.read(&mut e, session, key).unwrap().is_some());
        }
    });
    assert_eq!(reads, 1000, "read hits: the returned value, nothing else");
    assert_eq!(ZEROED.load(Relaxed), zeroed, "read hits zero-fill nothing");
    let absent: Vec<String> = (0..KEYS).map(|k| format!("gone{k:08}")).collect();
    let misses = requests_during(|| {
        for i in 0..1000 {
            let key = absent[(i * 13) % KEYS].as_bytes();
            assert!(kv.read(&mut e, session, key).unwrap().is_none());
        }
    });
    assert_eq!(misses, 0, "read misses");
    let deletes = requests_during(|| {
        for key in &keys[..KEYS / 2] {
            assert!(kv.delete(&mut e, session, key.as_bytes()).unwrap());
        }
    });
    assert_eq!(kv.stats().segments, before.segments, "no segment rolled");
    assert_eq!(deletes, 0, "deletes of existing keys");

    // --- A metadata save whose table is no larger than the last. ---
    let nvm = MemoryDevice::pcm(4 * MB);
    let mut region = MetadataRegion::create(&nvm).unwrap();
    let mut meta = ProcessMetadata::new(3);
    meta.records = (0..8)
        .map(|i| ChunkRecord {
            id: ChunkId(i),
            name: format!("var \"{i}\""),
            len: SMALL,
            persistent: true,
            versions: [Some((i * 8 * MB as u64, SMALL as u64)), None],
            committed_slot: Some(0),
            checksum: Some(u64::MAX - i),
            committed_epoch: 1,
        })
        .collect();
    region.save(&meta).unwrap(); // warm-up: sizes the kept buffer
    let saves = requests_during(|| {
        for epoch in 2..102 {
            for r in &mut meta.records {
                r.committed_epoch = epoch % 10; // same width: same size
                r.committed_slot = Some((epoch % 2) as u8);
            }
            region.save(&meta).unwrap();
        }
    });
    assert_eq!(saves, 0, "repeated saves of a same-size table");
    assert_eq!(region.load().unwrap().0, meta);

    // --- The paper sweep's engine, from nothing: two devices, a
    // synthetic engine, seven 50 MiB chunks and the first commit. Its
    // one RAM-backed region, the 1 MiB metadata region, holds the page
    // a save writes and nothing more (it was zero-filled whole: largest
    // request 1 MiB, 1.07 MB in all). ---
    const FIELD: usize = 50 * MB;
    let ((mut e, fields), largest, bytes) = sizes_during(|| {
        let mut e = engine(7 * FIELD, synthetic);
        let fields: Vec<_> = (0..7)
            .map(|i| e.nvmalloc(&format!("field_{i}"), FIELD, true).unwrap())
            .collect();
        e.nvchkptall().unwrap();
        (e, fields)
    });
    assert!(largest <= PAGE_SIZE, "largest request: {largest} bytes");
    assert!(bytes < 64 << 10, "{bytes} bytes requested");

    // --- ...and its steady-state commit, whose chunk table is encoded
    // from the heap's own: no record built, no name copied (it was 8
    // of 11 requests). ---
    let mut epoch = || {
        for &id in &fields {
            e.write_synthetic(id, 0, FIELD).unwrap();
        }
        e.compute(SimDuration::from_secs(1));
        requests_during(|| {
            e.nvchkptall().unwrap();
        })
    };
    // Warm-up: the kept buffers and the scheduler's history fill, and
    // the engine's epoch log (which doubles) gets room for five epochs
    // to come.
    for _ in 0..4 {
        epoch();
    }
    for _ in 0..3 {
        let commit = epoch();
        assert!(commit <= 3, "{commit} requests in a 7-chunk nvchkptall");
    }

    // --- Recovery replays the log where the restarted engine holds it:
    // over nine 64 KiB segments it asks for no buffer as large as a
    // segment, and for fewer bytes in all than the log holds (it used
    // to ask for one buffer per segment). Its largest requests are the
    // rebuilt 16 KiB index table, built once and written once. ---
    const SEG: usize = 64 << 10;
    let cfg = KvConfig {
        initial_index_slots: 1024,
        segment_bytes: SEG as u64,
        ..KvConfig::default()
    };
    let mut e = engine(4 * MB, EngineConfig::default());
    let mut kv = KvStore::create(&mut e, cfg.clone()).unwrap();
    let session = kv.new_session().unwrap();
    while kv.stats().segments < 9 {
        for key in &keys {
            kv.upsert(&mut e, session, key.as_bytes(), &[7; 32])
                .unwrap();
        }
    }
    kv.checkpoint(&mut e).unwrap();
    for key in &keys[..10] {
        // Acknowledged after the token: a stale tail to zero.
        kv.upsert(&mut e, session, key.as_bytes(), &[8; 32])
            .unwrap();
    }
    e.nvchkptall().unwrap();
    let (dram, nvm) = (e.heap().dram().clone(), e.heap().nvm().clone());
    let (clock, region) = (e.clock().clone(), e.metadata_region());
    drop((kv, e));
    let (mut e, _) = CheckpointEngine::restart(
        &dram,
        &nvm,
        region,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Tracer::disabled(),
    )
    .unwrap();
    let ((kv, recovery), largest, bytes) = sizes_during(|| KvStore::recover(&mut e, cfg).unwrap());
    let log = kv.stats().segments as usize * SEG;
    assert_eq!((kv.stats().segments, recovery.dropped), (9, 10));
    assert!(largest < SEG, "largest request: {largest} bytes");
    assert!(bytes < log, "{bytes} bytes requested for a {log}-byte log");
}
