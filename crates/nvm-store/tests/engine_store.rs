//! Engine ↔ store integration: checkpoints mirrored into a real
//! container file survive the process, restart strategies behave over
//! media exactly as they do over the emulated device, and attaching a
//! store never perturbs simulation results.

use nvm_chkpt::checksum::crc64;
use nvm_chkpt::{
    CheckpointEngine, ConfigError, EngineConfig, EngineError, EpochReport, PrecopyPolicy,
    RemoteImage, RestartReport, RestartStrategy, Tracer,
};
use nvm_emu::{MemoryDevice, SimDuration, TempDir, VirtualClock};
use nvm_paging::ChunkId;
use nvm_store::format::{decode_record, RecordParse, SlotHeader, Superblock, TableEntry};
use nvm_store::{Container, FileStore, MemMedia, Persistence};

const MB: usize = 1 << 20;
const STORE_CAP: usize = 8 * MB;

fn devices() -> (MemoryDevice, MemoryDevice, VirtualClock) {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    (dram, nvm, VirtualClock::new())
}

fn engine_with(
    dram: &MemoryDevice,
    nvm: &MemoryDevice,
    clock: VirtualClock,
    store: Option<Box<dyn Persistence>>,
) -> CheckpointEngine {
    let mut e =
        CheckpointEngine::new(7, dram, nvm, 16 * MB, clock, EngineConfig::default()).unwrap();
    if let Some(s) = store {
        e.set_persistence(s);
    }
    e
}

/// Three epochs of a small two-chunk workload; returns the chunk ids
/// in allocation order.
/// Two chunks through three epochs; returns them and the epochs'
/// reports.
fn run_three_epochs(e: &mut CheckpointEngine) -> (ChunkId, ChunkId, Vec<EpochReport>) {
    let a = e.nvmalloc("a", 4096, true).unwrap();
    let b = e.nvmalloc("b", 12000, true).unwrap();
    let mut reports = Vec::new();
    for epoch in 0u8..3 {
        e.write(a, 0, &vec![epoch + 1; 4096]).unwrap();
        e.write(b, 100, &vec![0x40 | epoch; 8000]).unwrap();
        e.compute(SimDuration::from_millis(200));
        reports.push(e.nvchkptall().unwrap());
    }
    (a, b, reports)
}

#[test]
fn checkpoints_survive_the_process_through_a_file_store() {
    let tmp = TempDir::new("store-roundtrip").unwrap();
    let path = tmp.join("rank.store");

    let (a, b, bytes_a, bytes_b) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        let (a, b, _) = run_three_epochs(&mut e);
        (
            a,
            b,
            e.committed_bytes(a).unwrap(),
            e.committed_bytes(b).unwrap(),
        )
        // engine, devices, clock all drop here: the process is gone.
    };

    // A brand-new "process" recovers from the file alone.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (mut e2, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.restored.len(), 2);
    assert!(report.corrupt.is_empty());
    assert!(
        report.duration > SimDuration::ZERO,
        "restore must cost time"
    );
    assert_eq!(e2.committed_bytes(a).unwrap(), bytes_a);
    assert_eq!(e2.committed_bytes(b).unwrap(), bytes_b);
    assert_eq!(e2.epoch(), 3, "resume after the last committed epoch");

    // And the revived process can keep checkpointing into the store.
    e2.write(a, 0, &[9u8; 4096]).unwrap();
    e2.nvchkptall().unwrap();
    assert_eq!(e2.committed_bytes(a).unwrap(), vec![9u8; 4096]);
}

#[test]
fn lazy_store_restart_never_reads_untouched_chunks_from_media() {
    let tmp = TempDir::new("store-lazy").unwrap();
    let path = tmp.join("rank.store");
    let (a, b, _) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e)
    };

    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let reads_at_open = store.stats().payload_reads;
    let (mut e2, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Lazy,
        Box::new(store),
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.deferred.len(), 2);
    assert!(report.restored.is_empty());
    let stats = e2.persistence_stats().unwrap();
    assert_eq!(
        stats.payload_reads, reads_at_open,
        "lazy restart must not fetch any payload from media"
    );
    assert_eq!(e2.lazy_pending_count(), 2);

    // First access to `a` fetches exactly one payload.
    let mut buf = vec![0u8; 4096];
    e2.read(a, 0, &mut buf).unwrap();
    assert_eq!(buf, vec![3u8; 4096]);
    let stats = e2.persistence_stats().unwrap();
    assert_eq!(stats.payload_reads, reads_at_open + 1);
    assert_eq!(e2.lazy_pending_count(), 1);

    // `b` stays pinned on media: still never read.
    let _ = b;
    assert_eq!(
        e2.persistence_stats().unwrap().payload_reads,
        reads_at_open + 1
    );
}

#[test]
fn coordinated_checkpoint_drains_store_lazy_chunks_first() {
    let tmp = TempDir::new("store-lazy-chkpt").unwrap();
    let path = tmp.join("rank.store");
    let (a, b, _) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e)
    };

    // Lazy restart, then checkpoint immediately without touching
    // anything: the engine must restore from media before committing,
    // or it would overwrite good checkpoints with unrestored garbage.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (mut e2, _) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Lazy,
        Box::new(store),
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(e2.lazy_pending_count(), 2);
    e2.nvchkptall().unwrap();
    assert_eq!(e2.lazy_pending_count(), 0);
    drop(e2);

    // A third process still sees the epoch-2 payloads.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (e3, _) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(e3.committed_bytes(a).unwrap(), vec![3u8; 4096]);
    let expect_b = {
        let mut v = vec![0u8; 12000];
        v[100..8100].fill(0x42);
        v
    };
    assert_eq!(e3.committed_bytes(b).unwrap(), expect_b);
}

#[test]
fn attaching_a_store_does_not_perturb_simulation_results() {
    let run = |store: Option<Box<dyn Persistence>>| {
        let (dram, nvm, clock) = devices();
        let mut e = engine_with(&dram, &nvm, clock.clone(), store);
        let (_, _, log) = run_three_epochs(&mut e);
        (clock.now(), log, e.stats())
    };

    let (t_plain, log_plain, stats_plain) = run(None);
    let (t_store, log_store, stats_store) = run(Some(Box::new(
        Container::open(MemMedia::new(), 7, STORE_CAP).unwrap(),
    )));
    assert_eq!(
        t_plain, t_store,
        "store mirroring must be free in virtual time"
    );
    assert_eq!(log_plain, log_store);
    assert_eq!(
        serde_json::to_string(&stats_plain).unwrap(),
        serde_json::to_string(&stats_store).unwrap()
    );
}

#[test]
fn identical_engine_histories_produce_identical_store_files() {
    let tmp = TempDir::new("store-determinism").unwrap();
    let run = |path: &std::path::Path| {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e);
    };
    let p1 = tmp.join("one.store");
    let p2 = tmp.join("two.store");
    run(&p1);
    run(&p2);
    let b1 = std::fs::read(&p1).unwrap();
    let b2 = std::fs::read(&p2).unwrap();
    assert_eq!(b1, b2, "same history must lay out the same bytes");
}

/// Chunk table of the last valid commit record in a container image.
fn last_table(image: &[u8]) -> Vec<TableEntry> {
    let sb = Superblock::decode(image).expect("superblock");
    let mut pos = sb.log_start() as usize;
    let mut last = None;
    while let RecordParse::Valid {
        table, total_len, ..
    } = decode_record(&image[pos..])
    {
        last = Some(table);
        pos += total_len;
    }
    last.expect("at least one commit record")
}

/// Data-region size for [`scripted_history`] containers: small, so the
/// committed fixture file is.
const SCRIPT_CAP: usize = 16 * 1024;

/// A commit history that exercises every way a slot gets committed:
/// CPC pre-copy, a pre-copied chunk re-dirtied before the coordinated
/// step, clean carry-over, `nvchkptall` and `nvchkptid`.
fn scripted_history(store: Box<dyn Persistence>, policy: PrecopyPolicy) -> CheckpointEngine {
    let (dram, nvm, clock) = devices();
    let config = EngineConfig::default().with_precopy(policy);
    let mut e = CheckpointEngine::new(7, &dram, &nvm, 16 * MB, clock, config).unwrap();
    e.set_persistence(store);
    let a = e.nvmalloc("a", 1000, true).unwrap();
    let b = e.nvmalloc("b", 3000, true).unwrap();
    let c = e.nvmalloc("c", 517, true).unwrap();
    e.write(c, 0, &[0xC3; 517]).unwrap();
    for epoch in 0u8..3 {
        let ramp: Vec<u8> = (0..1000u32)
            .map(|i| (i as u8).wrapping_mul(epoch + 3))
            .collect();
        e.write(a, 0, &ramp).unwrap();
        e.compute(SimDuration::from_millis(200));
        e.write(b, 100, &vec![0x40 | epoch; 2000]).unwrap();
        if epoch == 1 {
            e.write(a, 10, &[0xEE; 5]).unwrap();
        }
        e.nvchkptall().unwrap();
    }
    e.write(b, 0, &[9u8; 16]).unwrap();
    e.nvchkptid(b).unwrap();
    e
}

#[test]
fn one_checksum_is_shared_by_engine_slot_header_and_recovery() {
    for policy in [
        PrecopyPolicy::Cpc,
        PrecopyPolicy::Dcpc,
        PrecopyPolicy::Dcpcp,
    ] {
        let tmp = TempDir::new("store-one-crc").unwrap();
        let path = tmp.join("rank.store");
        let store = FileStore::open_path(&path, 7, SCRIPT_CAP).unwrap();
        let e = scripted_history(Box::new(store), policy);

        let image = std::fs::read(&path).unwrap();
        let data_start = Superblock::decode(&image).unwrap().data_start() as usize;
        let table = last_table(&image);
        assert_eq!(table.len(), 3, "{policy:?}");
        let recovered = FileStore::open_existing(&path).unwrap().recover().unwrap();
        for (entry, rec) in table.iter().zip(&recovered.chunks) {
            let id = ChunkId(entry.id);
            let engine_sum = e.heap().chunk(id).unwrap().checksum.expect("checksums on");
            let slot_sum = crc64(&e.committed_bytes(id).unwrap());
            let at = data_start + entry.offset as usize;
            let header = SlotHeader::decode(&image[at..]).unwrap();
            assert_eq!(engine_sum, slot_sum, "{policy:?} {id:?}: NVM slot bytes");
            assert_eq!(engine_sum, header.payload_crc, "{policy:?} {id:?}: header");
            assert_eq!(engine_sum, entry.crc, "{policy:?} {id:?}: commit record");
            assert_eq!(rec.id, id);
            assert_eq!(engine_sum, rec.checksum, "{policy:?} {id:?}: recovered");
        }
    }
}

#[test]
fn container_written_before_the_checksum_rewrite_still_opens_and_matches() {
    // `fixtures/pr11_cpc_history.store` is the file `scripted_history`
    // left behind when run (CPC) at the commit before the slice-by-16
    // kernel and the single-pass commit landed. Same digests, same
    // layout: it must verify chunk by chunk, and today's engine must
    // write the very same bytes.
    let golden: &[u8] = include_bytes!("fixtures/pr11_cpc_history.store");
    let tmp = TempDir::new("store-compat").unwrap();

    let old = tmp.join("old.store");
    std::fs::write(&old, golden).unwrap();
    let mut store = FileStore::open_existing(&old).unwrap();
    let state = store.recover().unwrap();
    assert_eq!(state.epoch, Some(3));
    assert_eq!(state.chunks.len(), 3);
    for rec in &state.chunks {
        let payload = store.read_chunk(rec.id).unwrap();
        assert_eq!(payload.len(), rec.len);
        assert_eq!(crc64(&payload), rec.checksum);
    }

    let new = tmp.join("new.store");
    let store = FileStore::open_path(&new, 7, SCRIPT_CAP).unwrap();
    drop(scripted_history(Box::new(store), PrecopyPolicy::Cpc));
    assert!(
        std::fs::read(&new).unwrap() == golden,
        "container bytes diverged from the pre-rewrite file"
    );
}

/// Where a restart-matrix cell rebuilds the process from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Source {
    /// The surviving NVM device and metadata region.
    Device,
    /// The container file alone, on fresh devices.
    Store,
    /// Chunk images as fetched from a buddy, on fresh devices.
    Images,
}

/// One cell of the restart matrix: replay [`scripted_history`] (CPC)
/// into a container file, optionally corrupt one chunk's committed
/// copy where `source` will look for it, kill the process, and restart
/// it from `source` under `strategy` with `config`.
fn restart_cell(
    source: Source,
    strategy: RestartStrategy,
    config: EngineConfig,
    corrupt: Option<ChunkId>,
) -> Result<(CheckpointEngine, RestartReport), EngineError> {
    let tmp = TempDir::new("restart-matrix").unwrap();
    let path = tmp.join("rank.store");
    let store = FileStore::open_path(&path, 7, SCRIPT_CAP).unwrap();
    let mut e = scripted_history(Box::new(store), PrecopyPolicy::Cpc);
    let tracer = Tracer::disabled();
    const CAP: usize = 16 * MB;
    match source {
        Source::Device => {
            if let Some(id) = corrupt {
                e.corrupt_committed(id).unwrap();
            }
            let (dram, nvm) = (e.heap().dram().clone(), e.heap().nvm().clone());
            let (region, clock) = (e.metadata_region(), e.clock().clone());
            drop(e);
            CheckpointEngine::restart(&dram, &nvm, region, clock, config, strategy, tracer)
        }
        Source::Store => {
            drop(e);
            let mut store = FileStore::open_existing(&path).unwrap();
            if let Some(id) = corrupt {
                store.corrupt_payload(id).unwrap();
            }
            let ((dram, nvm, clock), store) = (devices(), Box::new(store));
            CheckpointEngine::restart_from_store(
                &dram, &nvm, CAP, clock, config, strategy, store, tracer,
            )
        }
        Source::Images => {
            assert!(corrupt.is_none(), "fetched images arrive verified");
            let images: Vec<RemoteImage> = (e.heap().persistent_ids().into_iter())
                .map(|id| {
                    let (chunk, payload) = (e.heap().chunk(id).unwrap(), e.committed_bytes(id));
                    RemoteImage {
                        id,
                        name: chunk.name.clone(),
                        len: chunk.len,
                        checksum: None,
                        epoch: chunk.committed_epoch,
                        payload: payload.unwrap(),
                    }
                })
                .collect();
            drop(e);
            let (dram, nvm, clock) = devices();
            CheckpointEngine::restart_from_images(
                7, &dram, &nvm, CAP, clock, config, strategy, &images, 3, tracer,
            )
        }
    }
}

const SOURCES: [Source; 3] = [Source::Device, Source::Store, Source::Images];

#[test]
fn restart_duration_orders_by_source_and_strategy() {
    // What each cell rebuilds is `tests/lockstep.rs`'s to check; here
    // only what it costs. Store and images install the same payloads
    // under the same charge; only the device-local restart also pays a
    // metadata load and a verifying read of each slot. Parallel
    // streams never take longer than one.
    let config = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
    let duration = |source, strategy| {
        restart_cell(source, strategy, config, None)
            .unwrap()
            .1
            .duration
    };
    let eager = SOURCES.map(|source| duration(source, RestartStrategy::Eager));
    for (source, eager) in SOURCES.into_iter().zip(eager) {
        let parallel = duration(source, RestartStrategy::Parallel { streams: 4 });
        assert!(
            parallel <= eager,
            "{source:?}: parallel {parallel} vs eager {eager}"
        );
    }
    assert_eq!(eager[1], eager[2], "store vs images");
    assert!(eager[0] > eager[1], "device vs store");
}

#[test]
fn corrupted_slot_surfaces_on_first_access_not_at_restart() {
    let config = EngineConfig::default().with_precopy(PrecopyPolicy::Cpc);
    for source in [Source::Device, Source::Store] {
        // Eager: the restart reads everything, so it reports the bad
        // chunk up front and restores the rest.
        let clean = restart_cell(source, RestartStrategy::Eager, config, None);
        let ids = clean.unwrap().1.restored;
        let (bad, good) = (ids[1], [ids[0], ids[2]]);
        let restarted = restart_cell(source, RestartStrategy::Eager, config, Some(bad));
        let (_e, report) = restarted.unwrap();
        assert_eq!(report.corrupt, vec![bad], "{source:?}");
        assert_eq!(report.restored, good, "{source:?}");

        // Lazy: nothing was read yet, so the restart succeeds without
        // noticing; clean chunks restore, the bad one fails its first
        // touch with a checksum error.
        let restarted = restart_cell(source, RestartStrategy::Lazy, config, Some(bad));
        let (mut e, report) = restarted.unwrap();
        assert!(report.corrupt.is_empty(), "{source:?}: not detected yet");
        assert_eq!(report.deferred, ids, "{source:?}");
        e.read(good[0], 0, &mut [0u8; 16]).unwrap();
        match e.read(bad, 0, &mut [0u8; 16]).unwrap_err() {
            EngineError::ChecksumMismatch { chunk, .. } => assert_eq!(chunk, bad, "{source:?}"),
            other => panic!("{source:?}: expected checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn restart_matrix_invalid_config_is_a_config_error_from_every_source() {
    let bad = EngineConfig {
        node_concurrency: 0,
        ..EngineConfig::default()
    };
    for source in SOURCES {
        match restart_cell(source, RestartStrategy::Eager, bad, None) {
            Err(EngineError::Config(ConfigError::ZeroNodeConcurrency)) => {}
            Err(other) => panic!("{source:?}: wrong error: {other}"),
            Ok(_) => panic!("{source:?}: node_concurrency 0 must be rejected"),
        }
    }
}

#[test]
fn one_device_behind_both_handles_is_a_config_error_from_every_entry_point() {
    // The engine nests the two device locks (DRAM, then NVM); two
    // handles onto one device would take one non-reentrant lock twice.
    let shared = MemoryDevice::pcm(64 * MB);
    let (dram, nvm) = (shared.clone(), shared.clone());
    let config = EngineConfig::default();
    let tmp = TempDir::new("store-one-device").unwrap();
    let store = FileStore::open_path(&tmp.join("rank.store"), 7, SCRIPT_CAP).unwrap();
    let region = nvm.alloc(64).unwrap();
    let attempts: [(&str, Result<CheckpointEngine, EngineError>); 4] = [
        (
            "new",
            CheckpointEngine::new(7, &dram, &nvm, 16 * MB, VirtualClock::new(), config),
        ),
        (
            "restart",
            CheckpointEngine::restart(
                &dram,
                &nvm,
                region,
                VirtualClock::new(),
                config,
                RestartStrategy::Lazy,
                Tracer::disabled(),
            )
            .map(|(e, _)| e),
        ),
        (
            "restart_from_store",
            CheckpointEngine::restart_from_store(
                &dram,
                &nvm,
                16 * MB,
                VirtualClock::new(),
                config,
                RestartStrategy::Eager,
                Box::new(store),
                Tracer::disabled(),
            )
            .map(|(e, _)| e),
        ),
        (
            "restart_from_images",
            CheckpointEngine::restart_from_images(
                7,
                &dram,
                &nvm,
                16 * MB,
                VirtualClock::new(),
                config,
                RestartStrategy::Eager,
                &[],
                0,
                Tracer::disabled(),
            )
            .map(|(e, _)| e),
        ),
    ];
    for (entry, attempt) in attempts {
        match attempt {
            Err(EngineError::Config(ConfigError::SharedDevice)) => {}
            Err(other) => panic!("{entry}: wrong error: {other}"),
            Ok(_) => panic!("{entry}: one device behind both handles must be rejected"),
        }
    }
    assert_eq!(shared.used(), 64, "a refused engine allocates nothing");
}

#[test]
fn a_payload_that_does_not_fit_its_chunk_is_corrupt_not_a_panic() {
    // A container written by a size-only run holds 32-byte descriptors;
    // one written by a byte run holds the bytes. Restarting either
    // under the other materialization asks the store for a payload of
    // the wrong length: a typed error from `read_chunk_into`.
    let sized = EngineConfig::builder()
        .materialization(nvm_chkpt::Materialization::Synthetic)
        .checksums(false)
        .build()
        .unwrap();
    for (written_as, restarted_as) in [
        (sized, EngineConfig::default()),
        (EngineConfig::default(), sized),
    ] {
        let tmp = TempDir::new("store-wrong-materialization").unwrap();
        let path = tmp.join("rank.store");
        {
            let (dram, nvm, clock) = devices();
            let mut e = CheckpointEngine::new(7, &dram, &nvm, 16 * MB, clock, written_as).unwrap();
            e.set_persistence(Box::new(FileStore::open_path(&path, 7, STORE_CAP).unwrap()));
            let a = e.nvmalloc("a", 4096, true).unwrap();
            e.write_synthetic(a, 0, 4096).unwrap();
            e.nvchkptall().unwrap();
        }
        for strategy in [RestartStrategy::Eager, RestartStrategy::Lazy] {
            let (dram, nvm, clock) = devices();
            let restarted = CheckpointEngine::restart_from_store(
                &dram,
                &nvm,
                16 * MB,
                clock,
                restarted_as,
                strategy,
                Box::new(FileStore::open_existing(&path).unwrap()),
                Tracer::disabled(),
            );
            // Lazy notices at the first access instead.
            let outcome = restarted.and_then(|(mut e, report)| {
                let id = report.deferred[0];
                e.write_synthetic(id, 0, 1)
            });
            match outcome {
                Err(EngineError::Store(nvm_chkpt::persist::PersistError::Corrupt(_))) => {}
                other => panic!("{strategy:?}: expected a corrupt-store error, got {other:?}"),
            }
        }
    }
}
