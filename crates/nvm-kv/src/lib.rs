//! # nvm-kv — a key-value serving layer over the NVM checkpoint engine
//!
//! A concurrent-by-session key-value store whose persistence *is* the
//! chunk/commit machinery from `nvm-chkpt`: the hash index and the
//! append-only record log live in `nvmalloc`'d chunks (real-byte
//! materialized), so pre-copy policies (CPC/DCPC/DCPCP) drain dirty
//! kv pages in the background, `nvchkptall` commits them with the
//! shadow/version-flip protocol, and the whole recovery ladder —
//! local container, remote buddy, checksum verification — applies to
//! serving state unchanged.
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

    use nvm_chkpt::{CheckpointEngine, EngineConfig, RestartStrategy, Tracer};
    use nvm_emu::{MemoryDevice, VirtualClock};

    use crate::{KvConfig, KvError, KvStore};

    const MB: usize = 1 << 20;

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

    #[test]
    fn a_mutation_that_cannot_get_a_segment_changes_nothing() {
        // An index large enough never to grow here, so the only
        // allocation a mutation can ask for is the next log segment.
        let cfg = KvConfig {
            initial_index_slots: 1024,
            ..small_cfg()
        };
        // What meta, index and the first segment take of a container;
        // the engine under test gets a container of exactly that.
        let (mut sizing, _d, _n, _c) = mk_engine();
        KvStore::create(&mut sizing, cfg.clone()).unwrap();
        let container = sizing.heap().arena_stats().allocated;
        let (dram, nvm) = (MemoryDevice::dram(16 * MB), MemoryDevice::pcm(16 * MB));
        let config = EngineConfig::default();
        let mut e =
            CheckpointEngine::new(0, &dram, &nvm, container, VirtualClock::new(), config).unwrap();
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
        assert!(matches!(full, KvError::Engine(_)), "{full:?}");
        assert!(keys.len() > 16, "the segment held {} records", keys.len());

        let unchanged = |kv: &KvStore| {
            assert_eq!(kv.session_serial(s).unwrap(), keys.len() as u64);
            assert_eq!(kv.stats().occupied_slots, keys.len() as u64);
            assert_eq!(kv.stats().segments, 1);
        };
        unchanged(&kv);
        // A new key through rmw, and a tombstone for an old one.
        let rmw = kv.rmw(&mut e, s, b"another", |_| vec![1]);
        assert!(matches!(rmw, Err(KvError::Engine(_))), "{rmw:?}");
        unchanged(&kv);
        let delete = kv.delete(&mut e, s, keys[3].as_bytes());
        assert!(matches!(delete, Err(KvError::Engine(_))), "{delete:?}");
        unchanged(&kv);
        for (i, key) in keys.iter().enumerate() {
            let got = kv.read(&mut e, s, key.as_bytes()).unwrap();
            assert_eq!(got, Some(value(i)), "{key}");
        }
        assert!(kv.read(&mut e, s, b"another").unwrap().is_none());
    }

    #[test]
    fn serving_state_survives_engine_commits_bit_for_bit() {
        // The kv chunks ride the engine's shadow/version-flip commit:
        // committed bytes must equal the working copy after each
        // nvchkptall.
        let (mut e, _d, _n, _c) = mk_engine();
        let mut kv = KvStore::create(&mut e, small_cfg()).unwrap();
        let s = kv.new_session().unwrap();
        for i in 0..40u32 {
            kv.upsert(&mut e, s, format!("k{i}").as_bytes(), &[i as u8; 16])
                .unwrap();
        }
        kv.checkpoint(&mut e).unwrap();
        e.nvchkptall().unwrap();

        let ids: Vec<_> = e.heap().chunks().map(|c| (c.id, c.len)).collect();
        for (id, len) in ids {
            let committed = e.committed_bytes(id).unwrap();
            let mut working = vec![0u8; len];
            e.read(id, 0, &mut working).unwrap();
            assert_eq!(committed, working);
        }
    }
}
