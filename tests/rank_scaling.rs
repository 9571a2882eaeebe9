//! Rank-scaling gates: a 256-rank byte-materialized run must stay
//! memory-frugal, and its instrumented outputs must be byte-identical
//! between serial and `--threads 4` execution.
//!
//! * **RSS gate** — the process-wide counting allocator measures the
//!   peak live heap bytes during a 256-rank byte run, whose NVM
//!   devices spill to one file per node. The gate: live heap must stay
//!   below 25% of the naive in-RAM-images projection (live heap + the
//!   spill files' live-byte high-water mark). Without spilling, both
//!   NVM version slots of every rank and the buddy node's remote
//!   images would all be resident — the projection *is* that design's
//!   floor. DRAM working copies never spill; this workload's writes
//!   are size-only, so they hold no bytes here.
//! * **Identity gate** — the same 256-rank cluster run serial and on
//!   4 worker threads with tracing, metrics, and durable stores all
//!   on: the serialized result, the JSONL trace stream, and every
//!   per-rank `rank_<n>.store` container file must match byte for
//!   byte.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test can
//! touch the process-wide allocator peak between reset and read.

use cluster_sim::{Cluster, ClusterConfig, RemoteConfig, RunOptions, UniformWorkload, Workload};
use nvm_chkpt::{EngineConfig, Materialization, PrecopyPolicy};
use nvm_emu::{SimDuration, TempDir};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// System allocator wrapped with live-byte and peak-live accounting.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// Reset the peak watermark to the current live footprint.
fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

const RANKS: usize = 256;
const RANKS_PER_NODE: usize = 8;
const CHUNK_BYTES: usize = 32 * 1024;
const CHUNKS: usize = 2;

/// 256 ranks, byte-materialized with CRC verification, ring-buddy
/// remote checkpointing.
fn config(threads: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(RANKS / RANKS_PER_NODE)
        .ranks_per_node(RANKS_PER_NODE)
        .container_bytes(CHUNKS * CHUNK_BYTES * 2 + (1 << 20))
        .engine(
            EngineConfig::builder()
                .materialization(Materialization::Bytes)
                .checksums(true)
                .precopy(PrecopyPolicy::Dcpcp)
                .node_concurrency(RANKS_PER_NODE)
                .build()
                .expect("valid engine config"),
        )
        .local_interval(Some(SimDuration::from_secs(5)))
        .remote(RemoteConfig::infiniband(SimDuration::from_secs(10), true))
        .iterations(8)
        .threads(threads)
        .build()
        .expect("valid 256-rank config")
}

fn factory(_g: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        CHUNKS,
        CHUNK_BYTES,
        SimDuration::from_secs(2),
        CHUNK_BYTES as u64,
    ))
}

/// Every container file a store-attached run left under `dir`, keyed
/// by file name.
fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".store") {
            out.insert(name, std::fs::read(entry.path()).expect("read container"));
        }
    }
    out
}

#[test]
fn rank_256_run_is_memory_frugal_and_thread_count_invariant() {
    // --- RSS gate: spilled images must dominate the naive projection.
    let baseline = reset_peak();
    let outcome = Cluster::new(config(1), factory)
        .run(RunOptions::new())
        .expect("256-rank run");
    let peak_live = PEAK.load(Relaxed).saturating_sub(baseline) as u64;
    let spill = outcome.spill.expect("byte runs spill");
    assert_eq!(
        spill.resident_bytes, 0,
        "every NVM region must live in a spill file, and no working copy holds bytes"
    );
    assert!(spill.peak_bytes > 0);
    let naive = peak_live + spill.peak_bytes;
    assert!(
        peak_live * 4 < naive,
        "peak live heap {peak_live} B must stay below 25% of the naive \
         in-RAM-images projection {naive} B (spilled {} B)",
        spill.peak_bytes
    );
    assert_eq!(outcome.result.iterations_executed, 8);

    // --- Identity gate: serial vs 4 worker threads, instrumented.
    type Snapshot = (String, Vec<u8>, BTreeMap<String, Vec<u8>>);
    let mut snapshots: Vec<Snapshot> = Vec::new();
    for threads in [1usize, 4] {
        let store = TempDir::new("rank-scaling-store").expect("tempdir");
        let outcome = Cluster::new(config(threads), factory)
            .run(
                RunOptions::new()
                    .with_trace(true)
                    .with_metrics(true)
                    .with_store_dir(store.path()),
            )
            .expect("instrumented 256-rank run");
        let result = outcome.result;
        assert!(!result.trace.is_empty());
        assert!(result.metrics.is_some());
        let json = serde_json::to_string(&result).expect("serialize result");
        let jsonl = nvm_trace::to_jsonl(&result.trace).into_bytes();
        let files = store_files(store.path());
        assert_eq!(files.len(), RANKS, "one container file per rank");
        snapshots.push((json, jsonl, files));
    }
    let (serial, threaded) = (&snapshots[0], &snapshots[1]);
    assert_eq!(
        serial.0, threaded.0,
        "serialized RunResult diverged between serial and threads=4"
    );
    assert_eq!(
        serial.1, threaded.1,
        "JSONL trace stream diverged between serial and threads=4"
    );
    assert_eq!(
        serial.2.keys().collect::<Vec<_>>(),
        threaded.2.keys().collect::<Vec<_>>(),
        "store directories hold different container sets"
    );
    for (name, bytes) in &serial.2 {
        assert_eq!(
            bytes, &threaded.2[name],
            "container {name} diverged between serial and threads=4"
        );
    }
}
