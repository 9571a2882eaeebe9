//! Shared fixtures for the hot-path microbenchmarks in
//! `benches/hotpaths.rs`, plus the calibration workload the
//! perf-regression gate normalizes against.
//!
//! The benchmarks cover the paths the thread-scaling work of this
//! repo optimizes — a single engine checkpoint epoch under each
//! pre-copy policy, the per-rank cluster simulate loop, the
//! coordinator-side trace/metrics merges, the buddy fetch used by
//! remote recovery — and the byte path under them: the CRC-64 kernel
//! and one store-mirrored commit + restart. Fixtures live here (not in the bench file) so
//! unit tests keep them compiling and behaving even when the bench
//! binary is not run.
//!
//! CI runs the suite through `scripts/check_perf.py`, which divides
//! every benchmark's ns/iter by [`calibration_spin`]'s ns/iter on the
//! same machine and compares those *ratios* to the committed baseline
//! (`experiments/perf_baseline.json`). Raw nanoseconds differ per
//! runner; the ratio to a fixed ALU workload is stable enough to gate
//! on.

#![warn(missing_docs)]

use cluster_sim::{Cluster, ClusterConfig, RunOptions, RunResult};
use hpc_workloads::SyntheticApp;
use nvm_chkpt::{
    CheckpointEngine, ChunkId, EngineConfig, Materialization, PrecopyPolicy, RestartStrategy,
    Tracer,
};
use nvm_emu::{MemoryDevice, SimDuration, VirtualClock};
use nvm_kv::{KvConfig, KvStore, SessionId};
use nvm_metrics::{Metrics, MetricsRegistry};
use nvm_store::{Container, MemMedia};
use nvm_trace::{merge_ranked, TraceEvent, TraceEventKind};
use rdma_sim::RemoteStore;
use std::sync::{Arc, Mutex};

const MB: usize = 1 << 20;

/// Fixed ALU workload the perf gate uses as its machine-speed unit:
/// `rounds` integer multiply/rotate/xor steps, returning the
/// accumulator so the optimizer cannot drop the loop.
pub fn calibration_spin(rounds: u64) -> u64 {
    let mut acc = 0x9E3779B97F4A7C15u64;
    for i in 0..rounds {
        acc = acc
            .wrapping_mul(0x2545F4914F6CDD1D)
            .rotate_left(23)
            .wrapping_add(i);
    }
    acc
}

/// Engine with one 4 MB persistent chunk, ready for epoch stepping
/// under the given pre-copy policy.
pub fn epoch_engine(policy: PrecopyPolicy) -> (CheckpointEngine, ChunkId) {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    let cfg = EngineConfig::builder()
        .precopy(policy)
        .materialization(Materialization::Synthetic)
        .checksums(false)
        .build()
        .expect("valid config");
    let mut e =
        CheckpointEngine::new(0, &dram, &nvm, 24 * MB, VirtualClock::new(), cfg).expect("engine");
    let id = e.nvmalloc("bench", 4 * MB, true).expect("alloc");
    (e, id)
}

/// One full checkpoint epoch: dirty the chunk, run a compute interval
/// (the pre-copy window), then take the coordinated checkpoint.
/// Returns total bytes the epoch moved to NVM.
pub fn epoch_step(e: &mut CheckpointEngine, id: ChunkId) -> u64 {
    e.write_synthetic(id, 0, 4 * MB).expect("dirty");
    e.compute(SimDuration::from_secs(1));
    e.nvchkptall().expect("checkpoint").total_bytes()
}

/// Smallest cluster that still exercises the per-rank simulate loop:
/// 1 node x 2 ranks, 4 iterations, local checkpoints on.
pub fn tiny_cluster_config() -> ClusterConfig {
    let mut c = ClusterConfig::new(1, 2);
    c.container_bytes = 32 * MB;
    c.engine = c.engine.with_precopy(PrecopyPolicy::Dcpcp);
    c.local_interval = Some(SimDuration::from_secs(2));
    c.iterations = 4;
    c
}

/// Build and run the tiny cluster serially (what one `b.iter` of the
/// `cluster/rank_simulate_loop` benchmark measures).
pub fn run_tiny_cluster() -> RunResult {
    Cluster::new(tiny_cluster_config(), |_| {
        Box::new(SyntheticApp::lammps_scaled(0.01).with_compute(SimDuration::from_millis(500)))
    })
    .run(RunOptions::new())
    .expect("cluster run")
    .result
}

/// Per-rank trace buffers shaped like a paper-preset run: `ranks`
/// buffers of `per_rank` time-ordered events each.
pub fn trace_buffers(ranks: usize, per_rank: usize) -> Vec<Vec<TraceEvent>> {
    (0..ranks as u64)
        .map(|rank| {
            (0..per_rank as u64)
                .map(|i| TraceEvent {
                    t_ns: i * 1_000 + rank,
                    rank,
                    kind: TraceEventKind::ProtectionFault { chunk: i % 17 },
                })
                .collect()
        })
        .collect()
}

/// Merge per-rank buffers the way the coordinator does.
pub fn merge_traces(buffers: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    merge_ranked(buffers)
}

/// Merge per-rank buffers hierarchically: contiguous shard-local
/// merges first, then a global fold of the shard results — the
/// coordinator's plan at scale, where the serial floor is O(shards)
/// pre-merged buffers instead of O(ranks). Byte-identical to
/// [`merge_traces`] on the same input.
pub fn merge_traces_sharded(buffers: Vec<Vec<TraceEvent>>, shards: usize) -> Vec<TraceEvent> {
    let per_shard = buffers.len().div_ceil(shards.max(1));
    let mut shard_results = Vec::with_capacity(shards);
    let mut it = buffers.into_iter();
    loop {
        let chunk: Vec<Vec<TraceEvent>> = it.by_ref().take(per_shard).collect();
        if chunk.is_empty() {
            break;
        }
        shard_results.push(merge_ranked(chunk));
    }
    merge_ranked(shard_results)
}

/// Per-rank metrics registries with the hot counters/histograms
/// touched, mimicking end-of-run rank state.
pub fn touched_rank_metrics(ranks: usize) -> Vec<Metrics> {
    (0..ranks)
        .map(|r| {
            let m = Metrics::new();
            let faults = m.counter_handle("chkpt_faults_total");
            let bytes = m.counter_handle("chkpt_precopied_bytes_total");
            let hist = m.histogram_handle("chkpt_fault_ns");
            for i in 0..64u64 {
                faults.add(1);
                bytes.add(4096);
                hist.observe(1_000 + i * 37 + r as u64);
            }
            m
        })
        .collect()
}

/// Fold per-rank metrics into one registry in rank order (the
/// coordinator merge step).
pub fn fold_metrics(ranks: &[Metrics]) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for m in ranks {
        m.merge_into(&mut out);
    }
    out
}

/// Merged event stream of a traced tiny-cluster run — the analyzer
/// benchmark's input. Built once per bench process; the analyzer is
/// what gets timed, not the simulation.
pub fn traced_tiny_events() -> Vec<TraceEvent> {
    Cluster::new(tiny_cluster_config(), |_| {
        Box::new(SyntheticApp::lammps_scaled(0.01).with_compute(SimDuration::from_millis(500)))
    })
    .run(RunOptions::new().with_trace(true))
    .expect("cluster run")
    .result
    .trace
}

/// One analyzer pass: span reconstruction, critical-path blame, and
/// the virtual-time rollup over the given stream (what one `b.iter`
/// of `obs/analyze_tiny_trace` measures).
pub fn analyze_events(events: &[TraceEvent]) -> nvm_obs::AnalysisReport {
    nvm_obs::analyze(events, nvm_obs::DEFAULT_BUCKET_NS)
}

/// Buddy store holding one committed chunk of `chunk_bytes`, as a
/// surviving node sees its failed buddy's data.
pub fn buddy_store(chunk_bytes: usize) -> (RemoteStore, Vec<u8>, ChunkId) {
    let nvm = MemoryDevice::pcm(chunk_bytes * 4 + 8 * MB);
    let mut store = RemoteStore::new(&nvm, true);
    let data = payload(chunk_bytes);
    let chunk = ChunkId(7);
    store.put(0, chunk, &data).expect("put");
    store.commit_rank(0, 1);
    (store, data, chunk)
}

/// Deterministic non-repeating bytes for the checksum and store
/// benchmarks.
pub fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8)
        .collect()
}

/// Byte-materialized, checksummed engine holding one committed 4 MB
/// chunk, mirrored into an in-memory container (see
/// [`store_commit_restart_step`]).
pub struct StoreFixture {
    engine: CheckpointEngine,
    /// The container image, shared with the container inside `engine`
    /// so a restart can open it while that engine lives on.
    media: Arc<Mutex<MemMedia>>,
}

fn store_devices() -> (MemoryDevice, MemoryDevice) {
    (MemoryDevice::dram(16 * MB), MemoryDevice::pcm(32 * MB))
}

/// Build the [`StoreFixture`]. Pre-copy is off, so every
/// `nvchkptall` re-commits the whole chunk without a write in
/// between.
pub fn store_fixture() -> StoreFixture {
    let (dram, nvm) = store_devices();
    let media = Arc::new(Mutex::new(MemMedia::new()));
    let store = Container::open(media.clone(), 0, 12 * MB).expect("container");
    let mut engine = CheckpointEngine::new(
        0,
        &dram,
        &nvm,
        16 * MB,
        VirtualClock::new(),
        EngineConfig::no_precopy(),
    )
    .expect("engine");
    engine.set_persistence(Box::new(store));
    let id = engine.nvmalloc("bench", 4 * MB, true).expect("alloc");
    engine.write(id, 0, &payload(4 * MB)).expect("fill");
    engine.nvchkptall().expect("first commit");
    StoreFixture { engine, media }
}

/// One `nvchkptall` of the 4 MB chunk (NVM copy, checksum, container
/// slot write, commit record) followed by a `restart_from_store` of a
/// fresh process from the container image alone (what one `b.iter` of
/// `store/commit_restart_4m` measures). Returns the restored chunk
/// count.
pub fn store_commit_restart_step(fx: &mut StoreFixture) -> usize {
    fx.engine.nvchkptall().expect("commit");
    let (dram, nvm) = store_devices();
    let store = Container::open(fx.media.clone(), 0, 0).expect("reopen");
    let (_restarted, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        VirtualClock::new(),
        EngineConfig::no_precopy(),
        RestartStrategy::Eager,
        Box::new(store),
        Tracer::disabled(),
    )
    .expect("restart");
    assert!(report.corrupt.is_empty());
    report.restored.len()
}

/// Keys preloaded into the [`kv_store`] fixture.
pub const KV_BENCH_KEYS: u64 = 256;

/// Operations one [`kv_mix_step`] issues (half upserts, half reads).
pub const KV_MIX_OPS: u64 = 64;

/// Fixed-width bench key for slot `k`.
fn kv_bench_key(k: u64) -> [u8; 12] {
    let mut key = *b"bench-kv\0\0\0\0";
    key[8..].copy_from_slice(&(k as u32).to_le_bytes());
    key
}

/// Byte-materialized engine (the serving configuration: checksums
/// on) carrying a [`KvStore`] preloaded with [`KV_BENCH_KEYS`]
/// 64-byte values under one session. The record log only grows, so
/// the kv benchmarks build a fresh fixture per iteration instead of
/// stepping one store forever.
pub fn kv_store() -> (CheckpointEngine, KvStore, SessionId) {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    let mut e = CheckpointEngine::new(
        0,
        &dram,
        &nvm,
        24 * MB,
        VirtualClock::new(),
        EngineConfig::default(),
    )
    .expect("engine");
    let mut kv = KvStore::create(
        &mut e,
        KvConfig {
            initial_index_slots: 1024,
            segment_bytes: 256 * 1024,
            max_sessions: 4,
            trace_ops: false,
        },
    )
    .expect("store");
    let session = kv.new_session().expect("session");
    let mut value = [0u8; 64];
    for k in 0..KV_BENCH_KEYS {
        value[..8].copy_from_slice(&k.to_le_bytes());
        kv.upsert(&mut e, session, &kv_bench_key(k), &value)
            .expect("preload");
    }
    (e, kv, session)
}

/// [`KV_MIX_OPS`] alternating upserts and reads over the preloaded
/// keys (what one `b.iter` of `kv/upsert_read_mix` measures).
/// Returns the read-hit count so the optimizer cannot drop the loop.
pub fn kv_mix_step(e: &mut CheckpointEngine, kv: &mut KvStore, session: SessionId) -> u64 {
    let mut hits = 0;
    let mut value = [0u8; 64];
    for i in 0..KV_MIX_OPS {
        let key = kv_bench_key(i % KV_BENCH_KEYS);
        if i % 2 == 0 {
            value[..8].copy_from_slice(&i.to_le_bytes());
            kv.upsert(e, session, &key, &value).expect("upsert");
        } else if kv.read(e, session, &key).expect("read").is_some() {
            hits += 1;
        }
    }
    hits
}

/// Dirty a handful of keys, publish a CPR token, then drain it
/// through a full engine checkpoint (what one `b.iter` of
/// `kv/checkpoint_drain` measures). Returns the bytes the drain
/// moved to NVM.
pub fn kv_drain_step(e: &mut CheckpointEngine, kv: &mut KvStore, session: SessionId) -> u64 {
    let mut value = [0u8; 64];
    for i in 0..8u64 {
        value[..8].copy_from_slice(&i.to_le_bytes());
        kv.upsert(e, session, &kv_bench_key(i), &value)
            .expect("upsert");
    }
    kv.checkpoint(e).expect("token");
    e.nvchkptall().expect("checkpoint").total_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_spin_is_input_dependent() {
        assert_ne!(calibration_spin(1_000), calibration_spin(1_001));
        assert_eq!(calibration_spin(1_000), calibration_spin(1_000));
    }

    #[test]
    fn epoch_step_copies_bytes_under_each_policy() {
        for policy in [
            PrecopyPolicy::None,
            PrecopyPolicy::Cpc,
            PrecopyPolicy::Dcpcp,
        ] {
            let (mut e, id) = epoch_engine(policy);
            // Two epochs: the second runs with a warm predictor.
            let first = epoch_step(&mut e, id);
            let second = epoch_step(&mut e, id);
            assert!(first > 0 || second > 0, "policy {policy:?} copied nothing");
            assert_eq!(e.epoch(), 2);
        }
    }

    #[test]
    fn tiny_cluster_runs_and_checkpoints() {
        let r = run_tiny_cluster();
        assert!(r.local_checkpoints > 0);
        assert!(r.total_time > SimDuration::ZERO);
    }

    #[test]
    fn trace_fixture_merges_sorted() {
        let merged = merge_traces(trace_buffers(8, 32));
        assert_eq!(merged.len(), 8 * 32);
        assert!(merged
            .windows(2)
            .all(|w| (w[0].t_ns, w[0].rank) <= (w[1].t_ns, w[1].rank)));
    }

    #[test]
    fn sharded_merge_matches_flat_merge() {
        let buffers = trace_buffers(64, 16);
        let flat = merge_traces(buffers.clone());
        for shards in [1, 7, 8, 64] {
            assert_eq!(
                merge_traces_sharded(buffers.clone(), shards),
                flat,
                "{shards}-shard merge diverged from the flat merge"
            );
        }
    }

    #[test]
    fn metrics_fixture_folds_all_ranks() {
        let ranks = touched_rank_metrics(8);
        let folded = fold_metrics(&ranks);
        assert_eq!(folded.snapshot().counter("chkpt_faults_total"), 8 * 64);
    }

    #[test]
    fn analyzer_fixture_produces_a_full_report() {
        let events = traced_tiny_events();
        assert!(!events.is_empty());
        let report = analyze_events(&events);
        assert_eq!(report.events, events.len() as u64);
        assert!(report.blame.critical_path_ns > 0);
        assert!(report.blame.critical_path_ns <= report.blame.wall_ns);
        assert!(!report.rollup.series.is_empty());
    }

    #[test]
    fn kv_fixture_serves_and_drains() {
        let (mut e, mut kv, session) = kv_store();
        let hits = kv_mix_step(&mut e, &mut kv, session);
        assert_eq!(hits, KV_MIX_OPS / 2, "every preloaded key should hit");
        let drained = kv_drain_step(&mut e, &mut kv, session);
        assert!(drained > 0, "the drain moved no bytes to NVM");
        assert_eq!(kv.stats().token, 1);
    }

    #[test]
    fn store_fixture_commits_and_restarts() {
        let mut fx = store_fixture();
        assert_eq!(store_commit_restart_step(&mut fx), 1);
        assert_eq!(store_commit_restart_step(&mut fx), 1);
        assert_eq!(fx.engine.epoch(), 3);
    }

    #[test]
    fn buddy_store_fetch_roundtrips() {
        let (store, data, chunk) = buddy_store(256 * 1024);
        let (fetched, cost) = store.fetch(0, chunk).expect("fetch");
        assert_eq!(fetched, data);
        assert!(cost > SimDuration::ZERO);
    }
}
