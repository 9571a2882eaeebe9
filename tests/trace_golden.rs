//! Golden-trace tests for the nvm-trace subsystem.
//!
//! Two guarantees pinned here:
//!
//! * a canonical 3-epoch CPC run emits an exact, stable event sequence
//!   (the trace is part of the public behavior, not a debug aid);
//! * cluster traces are byte-identical between `--threads 1` and
//!   `--threads 4` once serialized to JSONL — per-rank buffers merge
//!   in `(time, rank)` order regardless of execution interleaving.

use cluster_sim::{Cluster, ClusterConfig, RemoteConfig, RunOptions, Workload};
use hpc_workloads::SyntheticApp;
use nvm_chkpt::{
    BufferSink, CheckpointEngine, EngineConfig, PrecopyPolicy, TraceEventKind, Tracer,
};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
use nvm_trace::{read_jsonl, to_jsonl};
use std::sync::Arc;

const MB: usize = 1 << 20;
const CHUNK: usize = 64 * 1024;

/// The canonical run: one 64 KiB persistent chunk, CPC pre-copy,
/// three write/compute/checkpoint epochs.
fn canonical_cpc_events() -> Vec<nvm_trace::TraceEvent> {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    let clock = VirtualClock::new();
    let config = EngineConfig::builder()
        .precopy(PrecopyPolicy::Cpc)
        .build()
        .unwrap();
    let mut engine = CheckpointEngine::new(0, &dram, &nvm, 32 * MB, clock, config).unwrap();
    // Ring-buffer sink: large enough to keep everything here, but the
    // same sink type a long-running job would cap.
    let sink = Arc::new(BufferSink::with_capacity(256));
    engine.set_tracer(Tracer::new(sink.clone()));

    let id = engine.nvmalloc("field", CHUNK, true).unwrap();
    for epoch in 0..3u8 {
        engine.write(id, 0, &[epoch + 1; CHUNK]).unwrap();
        engine.compute(SimDuration::from_secs(1));
        engine.nvchkptall().unwrap();
    }
    sink.snapshot()
}

#[test]
fn canonical_cpc_run_matches_golden_sequence() {
    let events = canonical_cpc_events();
    let chunk = nvm_paging::genid("field").0;
    // Drain cost and interference come from the device cost model; pin
    // the observed values as self-consistent rather than hardcoding
    // device constants: every epoch drains the same 64 KiB chunk, so
    // every drain (and every pre-copy window) must charge identically.
    let drain_cost = events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::PrecopyDrain { cost_ns, .. } => Some(cost_ns),
            _ => None,
        })
        .expect("canonical run drains at least once");
    assert!(drain_cost > 0, "a 64 KiB drain must charge virtual time");
    let interference = events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::PrecopyEnd {
                interference_ns, ..
            } => Some(interference_ns),
            _ => None,
        })
        .expect("canonical run closes its pre-copy windows");
    let golden: Vec<TraceEventKind> = vec![
        // Epoch 0: fresh chunk (no fault — new allocations start
        // writable). CPC pre-copies constantly, so the chunk drains in
        // the background even before the first checkpoint and the
        // coordinated phase finds nothing dirty.
        TraceEventKind::PrecopyStart {
            epoch: 0,
            candidates: 1,
        },
        TraceEventKind::PrecopyDrain {
            chunk,
            bytes: CHUNK as u64,
            cost_ns: drain_cost,
        },
        TraceEventKind::PrecopyEnd {
            epoch: 0,
            busy_ns: drain_cost,
            interference_ns: interference,
        },
        TraceEventKind::CoordinatedBegin { epoch: 0, dirty: 0 },
        TraceEventKind::CommitFlip { chunk, slot: 0 },
        TraceEventKind::CoordinatedEnd {
            epoch: 0,
            copied_bytes: 0,
        },
        // Epoch 1: the checkpoint re-protected the chunk, so the write
        // faults; CPC drains it in the background; the coordinated
        // phase finds nothing left to copy.
        TraceEventKind::ProtectionFault { chunk },
        TraceEventKind::PrecopyStart {
            epoch: 1,
            candidates: 1,
        },
        TraceEventKind::PrecopyDrain {
            chunk,
            bytes: CHUNK as u64,
            cost_ns: drain_cost,
        },
        TraceEventKind::PrecopyEnd {
            epoch: 1,
            busy_ns: drain_cost,
            interference_ns: interference,
        },
        TraceEventKind::CoordinatedBegin { epoch: 1, dirty: 0 },
        TraceEventKind::CommitFlip { chunk, slot: 1 },
        TraceEventKind::CoordinatedEnd {
            epoch: 1,
            copied_bytes: 0,
        },
        // Epoch 2: same shape; the commit slot flips back.
        TraceEventKind::ProtectionFault { chunk },
        TraceEventKind::PrecopyStart {
            epoch: 2,
            candidates: 1,
        },
        TraceEventKind::PrecopyDrain {
            chunk,
            bytes: CHUNK as u64,
            cost_ns: drain_cost,
        },
        TraceEventKind::PrecopyEnd {
            epoch: 2,
            busy_ns: drain_cost,
            interference_ns: interference,
        },
        TraceEventKind::CoordinatedBegin { epoch: 2, dirty: 0 },
        TraceEventKind::CommitFlip { chunk, slot: 0 },
        TraceEventKind::CoordinatedEnd {
            epoch: 2,
            copied_bytes: 0,
        },
    ];
    let kinds: Vec<TraceEventKind> = events.iter().map(|e| e.kind.clone()).collect();
    assert_eq!(kinds, golden);
    // Timestamps are monotone and the stream round-trips through JSONL.
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    let jsonl = to_jsonl(&events);
    assert_eq!(read_jsonl(&jsonl).unwrap(), events);
}

fn traced_config(threads: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(2, 2).with_threads(threads);
    cfg.container_bytes = 24 * MB;
    cfg.local_interval = Some(SimDuration::from_secs(5));
    cfg.remote = Some(RemoteConfig::infiniband(SimDuration::from_secs(10), true));
    cfg.iterations = 8;
    cfg
}

fn gtc_factory(_g: u64) -> Box<dyn Workload> {
    Box::new(SyntheticApp::gtc_scaled(0.01).with_compute(SimDuration::from_secs(2)))
}

#[test]
fn jsonl_trace_is_byte_identical_across_thread_counts() {
    let [a, b] = [1usize, 4].map(|threads| {
        let result = Cluster::new(traced_config(threads), gtc_factory)
            .run(RunOptions::new().with_trace(true))
            .unwrap()
            .result;
        assert!(!result.trace.is_empty());
        to_jsonl(&result.trace)
    });
    assert_eq!(
        a, b,
        "serial and 4-thread traces must serialize identically"
    );
}
