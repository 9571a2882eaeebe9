//! Pins what a recovery from the buddy holds in memory: the restore
//! ladder's buddy rung rebuilds a hard-failed node one rank at a time,
//! so the fetched images of only one rank are alive at once.
//!
//! The global allocator is wrapped with live-byte and peak-live
//! accounting. The same byte run is made twice, serially: without a
//! failure, then with node 1 lost after the first remote epoch and
//! rebuilt from its buddy's images. The size-only writes of the
//! uniform workload give a working copy no bytes, so what the
//! recovery leaves behind is the failed node's restored working copies
//! (written from the images). The failure run may peak at most those
//! plus two ranks' images above the run without it: one rank's images
//! in flight, and a second rank's worth of slack for the verification
//! copy and the rebuilt engines. Fetching every rank's images before
//! rebuilding any holds eight ranks' images on top of the working
//! copies, and fails.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test can
//! touch the process-wide allocator peak between reset and read.

use cluster_sim::{
    Cluster, ClusterConfig, FailureEvent, FailureKind, FailureSchedule, RecoverySource,
    RemoteConfig, RunOptions, UniformWorkload, Workload,
};
use nvm_chkpt::{EngineConfig, Materialization, PrecopyPolicy};
use nvm_emu::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
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

const NODES: usize = 4;
const RANKS_PER_NODE: usize = 8;
const CHUNKS: usize = 4;
/// Below the 2 MiB at which a region's bytes come from a mapping, so
/// every working copy is a heap allocation the counter sees.
const CHUNK_BYTES: usize = 64 * 1024;
/// One rank's committed images, all chunks.
const RANK_IMAGES: usize = CHUNKS * CHUNK_BYTES;

/// Byte-materialized with CRC verification, ring-buddy remote
/// DCPCP pre-copy, serial; node 1 is lost after the first remote
/// epoch when `fail` is set.
fn config(fail: bool) -> ClusterConfig {
    let events = if fail {
        vec![FailureEvent {
            at: SimTime::from_secs(11),
            kind: FailureKind::Hard,
            node: 1,
        }]
    } else {
        Vec::new()
    };
    ClusterConfig::builder()
        .nodes(NODES)
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
        .schedule(FailureSchedule::from_events(events))
        .build()
        .expect("valid cluster config")
}

fn factory(_g: u64) -> Box<dyn Workload> {
    Box::new(UniformWorkload::new(
        CHUNKS,
        CHUNK_BYTES,
        SimDuration::from_secs(2),
        CHUNK_BYTES as u64,
    ))
}

/// Run `config(fail)`; its peak live heap above what was live before
/// it, and the bytes its devices held in RAM at the end.
fn peak_of(fail: bool) -> (u64, u64, cluster_sim::RunResult) {
    let baseline = LIVE.load(Relaxed);
    PEAK.store(baseline, Relaxed);
    let outcome = Cluster::new(config(fail), factory)
        .run(RunOptions::new())
        .expect("byte run");
    let peak = PEAK.load(Relaxed).saturating_sub(baseline) as u64;
    let resident = outcome.spill.expect("byte runs spill").resident_bytes;
    (peak, resident, outcome.result)
}

#[test]
fn buddy_recovery_holds_one_rank_of_images_at_a_time() {
    let (steady, steady_resident, _) = peak_of(false);
    let (failed, failed_resident, result) = peak_of(true);

    assert_eq!(result.recovery.len(), 1);
    let rec = &result.recovery[0];
    assert_eq!(rec.source, RecoverySource::RemoteBuddy);
    assert_eq!(rec.verified_chunks, (RANKS_PER_NODE * CHUNKS) as u64);
    assert_eq!(rec.bytes_fetched, (RANKS_PER_NODE * RANK_IMAGES) as u64);

    // The size-only workload leaves working copies empty; the recovery
    // writes the failed node's back from the images, and they stay.
    let restored = (RANKS_PER_NODE * RANK_IMAGES) as u64;
    assert_eq!(steady_resident, 0);
    assert_eq!(failed_resident, restored);

    let bound = restored + 2 * RANK_IMAGES as u64;
    assert!(
        failed <= steady + bound,
        "a recovery from the buddy peaked {} B above the run without it \
         (peaks {failed} B and {steady} B): more than the node's restored working \
         copies ({restored} B) plus two ranks' images ({} B)",
        failed.saturating_sub(steady),
        2 * RANK_IMAGES
    );
}
