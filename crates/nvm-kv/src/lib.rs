//! # nvm-kv — a key-value serving layer over the NVM checkpoint engine
//!
//! A concurrent-by-session key-value store whose persistence *is* the
//! chunk/commit machinery from `nvm-chkpt`: the append-only record log
//! and the token block live in persistent `nvmalloc`'d chunks
//! (real-byte materialized), so pre-copy policies (CPC/DCPC/DCPCP)
//! drain dirty kv pages in the background, `nvchkptall` commits them
//! with the shadow/version-flip protocol, and the whole recovery
//! ladder — local container, remote buddy, checksum verification —
//! applies to serving state unchanged. The hash index is a
//! non-persistent chunk: nothing checkpoints it, and recovery rebuilds
//! it from the log.
//!
//! Checkpoints are non-blocking in the FASTER-CPR style:
//! [`KvStore::checkpoint`] publishes a [`KvCheckpointToken`] that
//! snapshots the committed log prefix plus every session's serial
//! watermark, while sessions keep serving. Recovery
//! ([`KvStore::recover`]) rebuilds the index from the committed log
//! prefix and replays through the watermarks, dropping
//! acknowledged-after-token writes.
//!
//! ```
//! use nvm_chkpt::{CheckpointEngine, EngineConfig};
//! use nvm_emu::{MemoryDevice, VirtualClock};
//! use nvm_kv::{KvConfig, KvStore};
//!
//! let dram = MemoryDevice::dram(64 << 20);
//! let nvm = MemoryDevice::pcm(64 << 20);
//! let mut engine = CheckpointEngine::new(
//!     0, &dram, &nvm, 32 << 20, VirtualClock::new(), EngineConfig::default(),
//! ).unwrap();
//!
//! let mut kv = KvStore::create(&mut engine, KvConfig::default()).unwrap();
//! let s = kv.new_session().unwrap();
//! kv.upsert(&mut engine, s, b"hello", b"world").unwrap();
//! let token = kv.checkpoint(&mut engine).unwrap();
//! engine.nvchkptall().unwrap(); // token becomes crash-durable here
//! assert_eq!(token.token, 1);
//! assert_eq!(kv.read(&mut engine, s, b"hello").unwrap().unwrap(), b"world");
//! ```

pub mod layout;
pub mod store;

pub use store::{KvCheckpointToken, KvConfig, KvError, KvRecovery, KvStats, KvStore, SessionId};

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    use nvm_chkpt::{
        CheckpointEngine, EngineConfig, EngineError, HeapError, RestartStrategy, Tracer,
    };
    use nvm_emu::{DeviceError, MemSpill, MemoryDevice, VirtualClock};
    use nvm_metrics::{names, MetricsRegistry};
    use nvm_store::{Container, MemMedia};

    use crate::layout::{decode_record_header, record_len, RECORD_HEADER_BYTES};
    use crate::{KvConfig, KvError, KvStore};

    const MB: usize = 1 << 20;

    type Contents = BTreeMap<Vec<u8>, Vec<u8>>;

    fn mk_engine() -> (CheckpointEngine, MemoryDevice, MemoryDevice, VirtualClock) {
        let dram = MemoryDevice::dram(256 * MB);
        let nvm = MemoryDevice::pcm(256 * MB);
        let clock = VirtualClock::new();
        let engine = CheckpointEngine::new(
            0,
            &dram,
            &nvm,
            128 * MB,
            clock.clone(),
            EngineConfig::default(),
        )
        .unwrap();
        (engine, dram, nvm, clock)
    }

    fn small_cfg() -> KvConfig {
        KvConfig {
            initial_index_slots: 16,
            segment_bytes: 4096,
            max_sessions: 4,
            trace_ops: false,
        }
    }

    #[test]
    fn upsert_read_delete_round_trip() {
        let (mut e, _d, _n, _c) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();

        assert!(kv.read(&mut e, s, b"k1").unwrap().is_none());
        kv.upsert(&mut e, s, b"k1", b"v1").unwrap();
        kv.upsert(&mut e, s, b"k2", b"v2").unwrap();
        assert_eq!(kv.read(&mut e, s, b"k1").unwrap().unwrap(), b"v1");
        kv.upsert(&mut e, s, b"k1", b"v1-updated").unwrap();
        assert_eq!(kv.read(&mut e, s, b"k1").unwrap().unwrap(), b"v1-updated");

        assert!(kv.delete(&mut e, s, b"k1").unwrap());
        assert!(!kv.delete(&mut e, s, b"k1").unwrap());
        assert!(kv.read(&mut e, s, b"k1").unwrap().is_none());
        assert_eq!(kv.read(&mut e, s, b"k2").unwrap().unwrap(), b"v2");

        // Deleted keys can come back.
        kv.upsert(&mut e, s, b"k1", b"back").unwrap();
        assert_eq!(kv.read(&mut e, s, b"k1").unwrap().unwrap(), b"back");
    }

    #[test]
    fn rmw_sees_old_value() {
        let (mut e, _d, _n, _c) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();

        let existed = kv
            .rmw(&mut e, s, b"ctr", |old| {
                assert!(old.is_none());
                vec![1]
            })
            .unwrap();
        assert!(!existed);
        let existed = kv
            .rmw(&mut e, s, b"ctr", |old| {
                let mut v = old.unwrap().to_vec();
                v[0] += 1;
                v
            })
            .unwrap();
        assert!(existed);
        assert_eq!(kv.read(&mut e, s, b"ctr").unwrap().unwrap(), vec![2]);
    }

    #[test]
    fn index_grows_and_log_spans_segments() {
        let (mut e, _d, _n, _c) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();

        // 200 keys through a 16-slot initial table and 4 KiB segments
        // forces several growths and several segments.
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            let val = vec![i as u8; 40];
            kv.upsert(&mut e, s, key.as_bytes(), &val).unwrap();
        }
        let stats = kv.stats();
        assert_eq!(stats.occupied_slots, 200);
        assert!(stats.index_slots >= 256, "index never grew: {stats:?}");
        assert!(stats.segments > 1, "log never spanned: {stats:?}");
        for i in (0..200u32).step_by(17) {
            let key = format!("key-{i:04}");
            let got = kv.read(&mut e, s, key.as_bytes()).unwrap().unwrap();
            assert_eq!(got, vec![i as u8; 40]);
        }
    }

    #[test]
    fn recovery_lands_on_last_committed_token() {
        let (mut e, dram, nvm, clock) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();

        kv.upsert(&mut e, s, b"a", b"1").unwrap();
        kv.upsert(&mut e, s, b"b", b"2").unwrap();
        let token = kv.checkpoint(&mut e).unwrap();
        assert_eq!(token.token, 1);
        e.nvchkptall().unwrap();

        // Acknowledged after the token, committed by a later
        // nvchkptall — but no later kv token: recovery must drop it.
        kv.upsert(&mut e, s, b"a", b"99").unwrap();
        kv.upsert(&mut e, s, b"c", b"3").unwrap();
        e.nvchkptall().unwrap();

        let region = e.metadata_region();
        drop(e);
        let (mut e2, _report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        let (mut kv2, recovery) = KvStore::recover(&mut e2, small_cfg()).unwrap();
        assert_eq!(recovery.token, 1);
        assert_eq!(recovery.replayed, 2);
        assert_eq!(recovery.dropped, 2);

        let want: BTreeMap<Vec<u8>, Vec<u8>> = [
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
        ]
        .into();
        assert_eq!(kv2.contents(&mut e2).unwrap(), want);

        // Sessions resume from their watermarks and keep serving.
        let s2 = kv2.resume_session(0).unwrap();
        assert_eq!(kv2.session_serial(s2).unwrap(), 2);
        kv2.upsert(&mut e2, s2, b"d", b"4").unwrap();
        assert_eq!(kv2.read(&mut e2, s2, b"d").unwrap().unwrap(), b"4");
    }

    #[test]
    fn recovery_without_any_token_is_empty() {
        let (mut e, dram, nvm, clock) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();
        kv.upsert(&mut e, s, b"a", b"1").unwrap();
        // Engine commit, but no kv token: everything must be dropped.
        e.nvchkptall().unwrap();

        let region = e.metadata_region();
        drop(e);
        let (mut e2, _report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        let (mut kv2, recovery) = KvStore::recover(&mut e2, small_cfg()).unwrap();
        assert_eq!(recovery.token, 0);
        assert_eq!(recovery.replayed, 0);
        assert_eq!(recovery.dropped, 1);
        assert!(kv2.contents(&mut e2).unwrap().is_empty());
    }

    /// One known mix on `kv`: 2 upserts, 2 reads (1 miss), 1 rmw,
    /// 1 delete of a live key and 1 token, values filled with `tag`.
    /// Returns the log bytes it appended.
    fn metered_mix(kv: &mut KvStore, e: &mut CheckpointEngine, tag: u8) -> u64 {
        let s = kv.resume_session(0).unwrap();
        kv.upsert(e, s, b"a", &[tag; 8]).unwrap();
        kv.upsert(e, s, b"b", &[tag; 8]).unwrap();
        assert!(kv.read(e, s, b"a").unwrap().is_some());
        assert!(kv.read(e, s, b"zz").unwrap().is_none());
        assert!(kv.rmw(e, s, b"a", |_| vec![tag; 4]).unwrap());
        assert!(kv.delete(e, s, b"b").unwrap());
        kv.checkpoint(e).unwrap();
        (2 * record_len(1, 8) + record_len(1, 4) + record_len(1, 0)) as u64
    }

    /// Check that `reg` holds exactly one [`metered_mix`] that
    /// appended `appended` log bytes.
    fn assert_one_mix(reg: &MetricsRegistry, appended: u64) {
        let snap = reg.snapshot();
        let want: BTreeMap<String, u64> = [
            (names::KV_UPSERTS_TOTAL, 2),
            (names::KV_READS_TOTAL, 2),
            (names::KV_READ_MISSES_TOTAL, 1),
            (names::KV_RMWS_TOTAL, 1),
            (names::KV_DELETES_TOTAL, 1),
            (names::KV_CHECKPOINT_TOKENS_TOTAL, 1),
            (names::KV_LOG_APPENDED_BYTES_TOTAL, appended),
        ]
        .map(|(names::Counter(name), v)| (name.to_string(), v))
        .into();
        assert_eq!(snap.counters, want);
        assert_eq!(snap.histogram(names::KV_OP_NS).unwrap().count, 6);
        assert_eq!(
            snap.histogram(names::KV_CHECKPOINT_TOKEN_NS).unwrap().count,
            1
        );
    }

    #[test]
    fn kv_counts_land_in_the_engines_current_registry() {
        let (mut e, dram, nvm, clock) = mk_engine();
        // Created on an unmetered engine, then metered, as a cluster
        // rank's setup runs before the coordinator attaches a registry.
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        kv.new_session().unwrap();
        metered_mix(&mut kv, &mut e, 1);
        e.set_metrics(Some(MetricsRegistry::new()));
        let appended = metered_mix(&mut kv, &mut e, 2);
        let first = e.metrics_mut().replace(MetricsRegistry::new()).unwrap();
        assert_one_mix(&first, appended);

        // A swapped-in registry gets exactly what follows the swap.
        let appended = metered_mix(&mut kv, &mut e, 3);
        assert_one_mix(e.metrics().unwrap(), appended);
        e.nvchkptall().unwrap();

        // A recovery on a metered, restarted engine records its replay.
        let region = e.metadata_region();
        drop(e);
        let (mut e2, _report) = CheckpointEngine::restart(
            &dram,
            &nvm,
            region,
            clock,
            EngineConfig::default(),
            RestartStrategy::Eager,
            Tracer::disabled(),
        )
        .unwrap();
        e2.set_metrics(Some(MetricsRegistry::new()));
        let (_kv2, recovery) = KvStore::recover(&mut e2, small_cfg()).unwrap();
        // Four log records per mix: 2 upserts, the rmw, the tombstone.
        assert_eq!(recovery.replayed, 3 * 4);
        let snap = e2.metrics().unwrap().snapshot();
        assert_eq!(
            snap.counter(names::KV_RECOVERY_REPLAYED_TOTAL),
            recovery.replayed
        );
        assert_eq!(snap.counter(names::KV_RECOVERY_DROPPED_TOTAL), 0);
        assert_eq!(snap.counters.len(), 2, "{:?}", snap.counters);
    }

    /// An engine on `dram`, restarted from its NVM device after a
    /// history that spans several log segments, grows the index,
    /// deletes, and acknowledges records past its one durable token;
    /// with the contents at that token.
    fn restarted_after_history(dram: &MemoryDevice) -> (CheckpointEngine, Contents) {
        let nvm = MemoryDevice::pcm(256 * MB);
        let clock = VirtualClock::new();
        let config = EngineConfig::default();
        let mut e = CheckpointEngine::new(0, dram, &nvm, 128 * MB, clock.clone(), config).unwrap();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();
        for i in 0..300u32 {
            let key = format!("key-{:03}", i % 120);
            kv.upsert(&mut e, s, key.as_bytes(), &[i as u8; 40])
                .unwrap();
            if i % 7 == 0 {
                kv.delete(&mut e, s, format!("key-{:03}", i % 50).as_bytes())
                    .unwrap();
            }
        }
        kv.checkpoint(&mut e).unwrap();
        e.nvchkptall().unwrap();
        let durable = kv.contents(&mut e).unwrap();
        for i in 0..30u32 {
            kv.upsert(&mut e, s, format!("late-{i}").as_bytes(), b"gone")
                .unwrap();
        }
        e.nvchkptall().unwrap();
        let region = e.metadata_region();
        drop(e);
        let strategy = RestartStrategy::Eager;
        let restarted = CheckpointEngine::restart(
            dram,
            &nvm,
            region,
            clock,
            config,
            strategy,
            Tracer::disabled(),
        );
        (restarted.unwrap().0, durable)
    }

    #[test]
    fn recovery_replays_a_spilled_log_as_it_replays_one_in_ram() {
        let ram = MemoryDevice::dram(256 * MB);
        let spilled = MemoryDevice::dram(256 * MB);
        spilled.attach_spill(Box::new(MemSpill::new()));
        let [in_ram, from_spill] = [&ram, &spilled].map(|dram| {
            let (mut e, durable) = restarted_after_history(dram);
            let spill_read = dram.spill_read_bytes();
            let (mut kv, recovery) = KvStore::recover(&mut e, small_cfg()).unwrap();
            let lent = dram.spill_read_bytes() - spill_read;
            assert_eq!(kv.contents(&mut e).unwrap(), durable);
            (recovery, e.clock().now(), lent, kv.stats().segments)
        });
        let (recovery, clock, lent, segments) = in_ram;
        assert!(
            recovery.replayed > 0 && recovery.dropped >= 30,
            "{recovery:?}"
        );
        assert!(segments > 4, "{segments} segments");
        assert_eq!(lent, 0, "RAM-backed segments are lent in place");
        let (spill_recovery, spill_clock, spill_lent, _) = from_spill;
        assert!(
            spill_lent >= segments * 4096,
            "the lend read {spill_lent} bytes"
        );
        assert_eq!((spill_recovery, spill_clock), (recovery, clock));
    }

    /// Run a recovery on `e` (working copies on `dram`) that must fail,
    /// and check it changed nothing: no chunk added or deleted, nothing
    /// written, no chunk table saved, and the clock moved by the reads
    /// alone. Returns the error.
    fn failed_recovery_changes_nothing(e: &mut CheckpointEngine, dram: &MemoryDevice) -> KvError {
        let nvm = e.heap().nvm().clone();
        let chunks = |e: &CheckpointEngine| -> Vec<_> {
            (e.heap().chunks())
                .map(|c| (c.id, c.name.clone(), c.len))
                .collect()
        };
        let written = || {
            let (d, n) = (dram.stats(), nvm.stats());
            (d.bytes_written, n.bytes_written, n.write_ops)
        };
        let (before, t0, writes) = (chunks(e), e.clock().now(), written());
        let err = KvStore::recover(e, small_cfg())
            .err()
            .expect("recovery fails");
        assert_eq!(chunks(e), before, "no chunk deleted or added");
        assert_eq!(written(), writes, "nothing written, no chunk table saved");
        // The clock moved by the reads alone: the meta block and every
        // segment, read again here.
        let spent = e.clock().now().since(t0);
        let t1 = e.clock().now();
        for (id, name, len) in &before {
            if name == "kv_meta" || name.starts_with("kv_seg_") {
                e.read(*id, 0, &mut vec![0u8; *len]).unwrap();
            }
        }
        assert_eq!(e.clock().now().since(t1), spent);
        err
    }

    #[test]
    fn a_corrupt_log_fails_recovery_before_it_changes_the_engine() {
        let dram = MemoryDevice::dram(256 * MB);
        let (mut e, durable) = restarted_after_history(&dram);
        let seg0 = (e.heap().chunks())
            .find(|c| c.name == "kv_seg_0")
            .unwrap()
            .id;
        // Two corruptions of the first record's lengths, inside the
        // token prefix: a value length its total disagrees with, and
        // two lengths that agree but run past the segment's end.
        let mut header = [0u8; RECORD_HEADER_BYTES];
        e.read(seg0, 0, &mut header).unwrap();
        let key_len = decode_record_header(&header).unwrap().key_len as usize;
        let mut disagreeing: [u8; 8] = header[..8].try_into().unwrap();
        disagreeing[4..].fill(0xEE);
        let mut past_segment = [0u8; 8];
        past_segment[..4].copy_from_slice(&(record_len(key_len, 5000) as u32).to_le_bytes());
        past_segment[4..].copy_from_slice(&5000u32.to_le_bytes());
        for lengths in [disagreeing, past_segment] {
            e.write(seg0, 0, &lengths).unwrap();
            let err = failed_recovery_changes_nothing(&mut e, &dram);
            assert!(matches!(err, KvError::Corrupt(_)), "{err:?}");
        }

        // Repaired, the same engine recovers.
        e.write(seg0, 0, &header[..8]).unwrap();
        let (mut kv, recovery) = KvStore::recover(&mut e, small_cfg()).unwrap();
        assert!(recovery.replayed > 0);
        assert_eq!(kv.contents(&mut e).unwrap(), durable);
    }

    #[test]
    fn a_recovery_that_cannot_allocate_its_index_changes_nothing() {
        let dram = MemoryDevice::dram(256 * MB);
        let (mut e, durable) = restarted_after_history(&dram);

        // The rebuilt index does not fit in DRAM. The log has a stale
        // tail past the token, which a recovery zeroes only once its
        // index is allocated.
        let filler = dram.alloc(dram.available()).unwrap();
        let err = failed_recovery_changes_nothing(&mut e, &dram);
        assert_full(&err);
        dram.free(filler).unwrap();

        let (mut kv, recovery) = KvStore::recover(&mut e, small_cfg()).unwrap();
        assert!(recovery.dropped >= 30, "{recovery:?}");
        assert_eq!(kv.contents(&mut e).unwrap(), durable);

        // Recovered again without a restart, the engine still holds
        // the live index: a typed error, and the store keeps serving.
        let err = failed_recovery_changes_nothing(&mut e, &dram);
        assert!(
            matches!(
                err,
                KvError::Engine(EngineError::Heap(HeapError::AlreadyExists(_)))
            ),
            "{err:?}"
        );
        assert_eq!(kv.contents(&mut e).unwrap(), durable);
    }

    #[test]
    fn tokens_are_monotone_and_watermarks_per_session() {
        let (mut e, _d, _n, _c) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s0 = kv.new_session().unwrap();
        let s1 = kv.new_session().unwrap();

        kv.upsert(&mut e, s0, b"x", b"0").unwrap();
        kv.upsert(&mut e, s1, b"y", b"1").unwrap();
        kv.upsert(&mut e, s1, b"y", b"2").unwrap();
        let t1 = kv.checkpoint(&mut e).unwrap();
        let t2 = kv.checkpoint(&mut e).unwrap();
        assert!(t2.token > t1.token);
        assert_eq!(kv.session_serial(s0).unwrap(), 1);
        assert_eq!(kv.session_serial(s1).unwrap(), 2);
    }

    #[test]
    fn config_and_key_validation() {
        let (mut e, _d, _n, _c) = mk_engine();
        let bad = KvConfig {
            initial_index_slots: 17,
            ..small_cfg()
        };
        assert!(matches!(
            KvStore::create(&mut e, bad),
            Err(KvError::BadConfig(_))
        ));

        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();
        assert!(matches!(
            kv.upsert(&mut e, s, b"", b"v"),
            Err(KvError::BadKey(0))
        ));
        assert!(matches!(
            kv.upsert(&mut e, s, &[7u8; 256], b"v"),
            Err(KvError::BadKey(256))
        ));
        // A record larger than one segment is rejected.
        assert!(matches!(
            kv.upsert(&mut e, s, b"k", &vec![0u8; 8192]),
            Err(KvError::RecordTooLarge(_))
        ));
        // Session cap (max_sessions = 4, one taken).
        for _ in 0..3 {
            kv.new_session().unwrap();
        }
        assert!(matches!(kv.new_session(), Err(KvError::TooManySessions(4))));
    }

    /// An engine whose container holds what a store under `cfg` takes
    /// at creation — meta, first segment — and nothing more; with
    /// `tight_dram`, so does its DRAM, which also holds the index.
    fn engine_that_fits(cfg: &KvConfig, tight_dram: bool) -> CheckpointEngine {
        let (mut sizing, dram, _n, _c) = mk_engine();
        KvStore::create(&mut sizing, cfg.clone()).unwrap();
        let container = sizing.heap().arena_stats().allocated;
        let dram_bytes = if tight_dram { dram.used() } else { 16 * MB };
        let (dram, nvm) = (MemoryDevice::dram(dram_bytes), MemoryDevice::pcm(16 * MB));
        let config = EngineConfig::default();
        CheckpointEngine::new(0, &dram, &nvm, container, VirtualClock::new(), config).unwrap()
    }

    /// `err` says the store is full, and chains to the engine's
    /// out-of-room error: no container space, or no DRAM.
    fn assert_full(err: &KvError) {
        assert!(matches!(err, KvError::Full(_)), "{err:?}");
        let source = std::error::Error::source(err).expect("a full store has a source");
        let engine = source
            .downcast_ref::<EngineError>()
            .expect("the engine's error");
        assert!(
            matches!(
                engine,
                EngineError::Heap(
                    HeapError::OutOfNvm { .. }
                        | HeapError::Device(DeviceError::OutOfCapacity { .. })
                )
            ),
            "{engine:?}"
        );
    }

    #[test]
    fn a_mutation_that_cannot_get_a_segment_changes_nothing() {
        // An index large enough never to grow here, so the only
        // allocation a mutation can ask for is the next log segment.
        let cfg = KvConfig {
            initial_index_slots: 1024,
            ..small_cfg()
        };
        let mut e = engine_that_fits(&cfg, false);
        let mut kv = KvStore::create(&mut e, cfg).unwrap();
        let s = kv.new_session().unwrap();

        let value = |i: usize| vec![i as u8; 40];
        let mut keys = Vec::new();
        let full = loop {
            let key = format!("key-{:04}", keys.len());
            match kv.upsert(&mut e, s, key.as_bytes(), &value(keys.len())) {
                Ok(()) => keys.push(key),
                Err(err) => break err,
            }
        };
        assert_full(&full);
        assert!(keys.len() > 16, "the segment held {} records", keys.len());

        let unchanged = |kv: &KvStore| {
            assert_eq!(kv.session_serial(s).unwrap(), keys.len() as u64);
            assert_eq!(kv.stats().occupied_slots, keys.len() as u64);
            assert_eq!(kv.stats().segments, 1);
        };
        unchanged(&kv);
        // A new key through rmw, and a tombstone for an old one.
        let rmw = kv.rmw(&mut e, s, b"another", |_| vec![1]);
        assert_full(&rmw.unwrap_err());
        unchanged(&kv);
        let delete = kv.delete(&mut e, s, keys[3].as_bytes());
        assert_full(&delete.unwrap_err());
        unchanged(&kv);
        for (i, key) in keys.iter().enumerate() {
            let got = kv.read(&mut e, s, key.as_bytes()).unwrap();
            assert_eq!(got, Some(value(i)), "{key}");
        }
        assert!(kv.read(&mut e, s, b"another").unwrap().is_none());
    }

    #[test]
    fn an_upsert_that_cannot_double_the_index_changes_nothing() {
        // 16 slots double past 12 keys, long before the first segment
        // fills: the only allocation an upsert can ask for is the
        // doubled index, which lives in DRAM alone, and the DRAM holds
        // what creation took and nothing more.
        let cfg = small_cfg();
        let mut e = engine_that_fits(&cfg, true);
        let mut kv = KvStore::create(&mut e, cfg).unwrap();
        let s = kv.new_session().unwrap();

        let value = |i: usize| vec![i as u8; 40];
        let mut keys = Vec::new();
        let full = loop {
            let key = format!("key-{:04}", keys.len());
            match kv.upsert(&mut e, s, key.as_bytes(), &value(keys.len())) {
                Ok(()) => keys.push(key),
                Err(err) => break err,
            }
        };
        assert_full(&full);
        assert_eq!(keys.len(), 12, "3/4 of 16 slots");
        let stats = kv.stats();
        assert_eq!(kv.session_serial(s).unwrap(), 12);
        assert_eq!((stats.occupied_slots, stats.index_slots), (12, 16));
        assert_eq!(stats.segments, 1);
        for (i, key) in keys.iter().enumerate() {
            let got = kv.read(&mut e, s, key.as_bytes()).unwrap();
            assert_eq!(got, Some(value(i)), "{key}");
        }
    }

    #[test]
    fn serving_state_survives_engine_commits_bit_for_bit() {
        // The persistent kv chunks ride the engine's
        // shadow/version-flip commit: committed bytes must equal the
        // working copy after each nvchkptall.
        let (mut e, _d, _n, _c) = mk_engine();
        let media = Arc::new(Mutex::new(MemMedia::new()));
        e.set_persistence(Box::new(
            Container::open(media.clone(), 0, 64 * MB).unwrap(),
        ));
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();
        for i in 0..40u32 {
            kv.upsert(&mut e, s, format!("k{i}").as_bytes(), &[i as u8; 16])
                .unwrap();
        }
        kv.checkpoint(&mut e).unwrap();
        e.nvchkptall().unwrap();
        let durable = kv.contents(&mut e).unwrap();

        let ids: Vec<_> = e.chunks().map(|c| (c.id, c.len)).collect();
        for (id, len) in ids {
            let committed = e.committed_bytes(id).unwrap();
            let mut working = vec![0u8; len];
            e.read(id, 0, &mut working).unwrap();
            assert_eq!(committed, working);
        }

        // The index is not among them: a restart from the store finds
        // the meta chunk and the log, and recovery rebuilds the index.
        drop((kv, e));
        let (dram, nvm) = (MemoryDevice::dram(256 * MB), MemoryDevice::pcm(256 * MB));
        let (mut e, _) = CheckpointEngine::restart_from_store(
            &dram,
            &nvm,
            128 * MB,
            VirtualClock::new(),
            EngineConfig::default(),
            RestartStrategy::Eager,
            Box::new(Container::open(media, 0, 64 * MB).unwrap()),
            Tracer::disabled(),
        )
        .unwrap();
        let names: Vec<_> = e.heap().chunks().map(|c| c.name.clone()).collect();
        assert!(
            !names.iter().any(|n| n.starts_with("kv_index")),
            "{names:?}"
        );
        let segments = names.iter().filter(|n| n.starts_with("kv_seg_")).count();
        let meta = crate::layout::meta_bytes(small_cfg().max_sessions);
        assert_eq!(
            e.heap().checkpoint_bytes(),
            meta + segments * small_cfg().segment_bytes as usize
        );
        let (mut kv, recovery) = KvStore::recover(&mut e, small_cfg()).unwrap();
        assert_eq!(recovery.replayed, 40);
        assert_eq!(kv.contents(&mut e).unwrap(), durable);
    }
}
