//! The kv store proper: sessions, point operations, CPR-style
//! checkpoint tokens, and recovery to a token.
//!
//! Every byte of durable state lives in persistent engine chunks
//! (see [`crate::layout`]), so the existing machinery applies
//! unchanged: pre-copy policies drain dirty meta/log pages in the
//! background, `nvchkptall` commits them with the engine's
//! shadow/version-flip protocol, nvm-store makes the commit
//! crash-consistent, and the recovery ladder (local container →
//! remote buddy → rebuild) restores them bit-for-bit. The hash index
//! is not durable state: it lives in a non-persistent chunk that no
//! checkpoint copies, and every recovery rebuilds it from the log.
//!
//! # CPR tokens
//!
//! [`KvStore::checkpoint`] is FASTER-CPR shaped: it advances the
//! token, snapshots the log prefix length and every session's serial
//! watermark into the small `kv_meta` chunk, and returns — sessions
//! never stop serving. Durability of the token rides the engine's
//! *next* coordinated commit; until then the token is published but
//! not yet crash-durable, exactly like CPR's "in-progress" phase.
//! On recovery, [`KvStore::recover`] reads the last *committed* meta
//! block, replays the committed log prefix through the per-session
//! watermarks, and drops acknowledged-after-token records.
//!
//! # One pass through the engine
//!
//! An operation reaches the working copies through one
//! [`CheckpointEngine::access`]: one hold of the DRAM lock, each read
//! and write in it charged as an engine call of its own would be. The
//! probe decodes index entries and compares keys where the index and
//! the log hold them, and a read hit copies out only the value. What
//! takes the DRAM lock itself — allocation — stays outside: the index
//! doubles before the access opens, and a log segment the head rolls
//! into is allocated between the access that reached it and a second
//! one that appends there, so that the allocation keeps its place
//! among the operation's charges and every event its timestamp.
//! [`KvStore::rmw`] is a read access, then its closure with no lock
//! held, then a write access.

use std::collections::BTreeMap;

use nvm_chkpt::{Access, CheckpointEngine, ChunkId, EngineError, HeapError};
use nvm_emu::DeviceError;
use nvm_metrics::names;
use nvm_trace::TraceEventKind;

use crate::layout::{
    decode_index_entry, decode_meta, decode_record_header, encode_index_entry, encode_meta,
    encode_record_into, hash64, meta_bytes, record_key, KvMeta, RecordHeader, INDEX_ENTRY_BYTES,
    RECORD_HEADER_BYTES, SEGMENT_END_MARKER,
};

/// Errors surfaced by the kv layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum KvError {
    /// The underlying checkpoint engine failed.
    Engine(EngineError),
    /// The store is full: its container (or a device under it) has no
    /// room for the next log segment, the doubled index, or the index
    /// a recovery rebuilds. The engine's error is the `source()`.
    Full(EngineError),
    /// The configuration was rejected at store creation.
    BadConfig(&'static str),
    /// Key length outside `1..=255` bytes.
    BadKey(usize),
    /// Record (header + key + value) would not fit one log segment.
    RecordTooLarge(usize),
    /// Operation on a session id this store never issued.
    NoSuchSession(u16),
    /// `new_session` past the configured `max_sessions`.
    TooManySessions(u16),
    /// Recovery found on-chunk state it cannot reconcile.
    Corrupt(&'static str),
}

nvm_emu::error_enum! {
    KvError, f {
        wrap Engine(EngineError) => "engine",
        cause Full(EngineError) => "kv store full",
        leaf KvError::BadConfig(why) => write!(f, "bad kv config: {why}"),
        leaf KvError::BadKey(len) => write!(f, "key length {len} outside 1..=255"),
        leaf KvError::RecordTooLarge(len) =>
            write!(f, "record of {len} bytes exceeds one log segment"),
        leaf KvError::NoSuchSession(id) => write!(f, "no such session {id}"),
        leaf KvError::TooManySessions(max) =>
            write!(f, "session limit {max} reached"),
        leaf KvError::Corrupt(why) => write!(f, "kv state corrupt: {why}"),
    }
}

/// Store geometry and behaviour knobs.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Initial hash-index capacity (power of two, ≥ 16). The table
    /// doubles when it passes 3/4 load.
    pub initial_index_slots: u64,
    /// Record-log segment size in bytes (multiple of 8, ≥ 4096).
    /// Records never span segments.
    pub segment_bytes: u64,
    /// Sessions the store will ever admit; sizes the meta chunk's
    /// watermark array.
    pub max_sessions: u16,
    /// Emit a `KvOp` trace event per operation. Keep off for
    /// high-volume runs; on for tests and smoke runs.
    pub trace_ops: bool,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            initial_index_slots: 1024,
            segment_bytes: 256 * 1024,
            max_sessions: 16,
            trace_ops: false,
        }
    }
}

impl KvConfig {
    fn validate(&self) -> Result<(), KvError> {
        if self.initial_index_slots < 16 || !self.initial_index_slots.is_power_of_two() {
            return Err(KvError::BadConfig(
                "initial_index_slots must be a power of two >= 16",
            ));
        }
        if self.segment_bytes < 4096 || self.segment_bytes % 8 != 0 {
            return Err(KvError::BadConfig(
                "segment_bytes must be a multiple of 8 >= 4096",
            ));
        }
        if self.max_sessions == 0 {
            return Err(KvError::BadConfig("max_sessions must be > 0"));
        }
        Ok(())
    }
}

/// Handle to one serving session. Obtained from
/// [`KvStore::new_session`] (or [`KvStore::resume_session`] after
/// recovery); mutations through it are serialised by a per-session
/// serial number that checkpoint tokens watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionId(u16);

/// What [`KvStore::checkpoint`] publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCheckpointToken {
    /// Monotone token id (first token is 1).
    pub token: u64,
    /// Record-log bytes covered by the token.
    pub log_bytes: u64,
}

/// What [`KvStore::recover`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRecovery {
    /// Token recovered to (0 = store had never published one).
    pub token: u64,
    /// Committed log prefix replayed, in bytes.
    pub log_bytes: u64,
    /// Records replayed into the rebuilt index.
    pub replayed: u64,
    /// Acknowledged-after-token records found past the prefix and
    /// dropped.
    pub dropped: u64,
}

/// Point-in-time store statistics (host-side bookkeeping only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvStats {
    /// Last published token id.
    pub token: u64,
    /// Current log append head (bytes).
    pub log_bytes: u64,
    /// Hash-index capacity in slots.
    pub index_slots: u64,
    /// Occupied index slots (live keys + tombstoned keys).
    pub occupied_slots: u64,
    /// Open sessions.
    pub sessions: u64,
    /// Allocated log segments.
    pub segments: u64,
}

/// Outcome of probing the hash index for a key.
enum Probe {
    /// The key has an index entry (possibly pointing at a tombstone).
    Found {
        slot: u64,
        record: Record,
        header: RecordHeader,
    },
    /// The key is absent; `slot` is the first free slot on its probe
    /// path (where an insert goes).
    Free { slot: u64 },
}

/// Where a record lies: its log segment's chunk and its offset there,
/// worked out once per record an operation reads.
type Record = (ChunkId, usize);

/// A concurrent-by-session key-value store persisted through the NVM
/// checkpoint engine. All methods take the engine explicitly — the
/// store owns chunk ids and host bookkeeping, never the engine.
pub struct KvStore {
    cfg: KvConfig,
    meta: ChunkId,
    index: ChunkId,
    index_slots: u64,
    occupied: u64,
    segments: Vec<ChunkId>,
    /// Global log append head (bytes).
    head: u64,
    /// Last published token.
    token: u64,
    /// Per-session serial counters; index = `SessionId::index()`.
    serials: Vec<u64>,
    /// The record last appended, kept for its capacity: in steady
    /// state a mutation encodes its record without allocating.
    record: Vec<u8>,
}

impl KvStore {
    /// Create a fresh store: allocates the meta chunk, the
    /// (non-persistent) index, and the first log segment.
    pub fn create(engine: &mut CheckpointEngine, cfg: KvConfig) -> Result<KvStore, KvError> {
        cfg.validate()?;
        let meta = engine.nvmalloc("kv_meta", meta_bytes(cfg.max_sessions), true)?;
        let index_bytes = (cfg.initial_index_slots as usize) * INDEX_ENTRY_BYTES;
        let index = engine.nvmalloc("kv_index", index_bytes, false)?;
        let seg0 = engine.nvmalloc("kv_seg_0", cfg.segment_bytes as usize, true)?;
        Ok(KvStore {
            index_slots: cfg.initial_index_slots,
            cfg,
            meta,
            index,
            occupied: 0,
            segments: vec![seg0],
            head: 0,
            token: 0,
            serials: Vec::new(),
            record: Vec::new(),
        })
    }

    /// Open a new serving session.
    pub fn new_session(&mut self) -> Result<SessionId, KvError> {
        if self.serials.len() >= self.cfg.max_sessions as usize {
            return Err(KvError::TooManySessions(self.cfg.max_sessions));
        }
        self.serials.push(0);
        Ok(SessionId((self.serials.len() - 1) as u16))
    }

    /// Re-acquire a session handle after recovery; the session
    /// continues from its replay watermark.
    pub fn resume_session(&self, index: u16) -> Result<SessionId, KvError> {
        if (index as usize) < self.serials.len() {
            Ok(SessionId(index))
        } else {
            Err(KvError::NoSuchSession(index))
        }
    }

    /// The session's current serial (its checkpoint watermark when a
    /// token is published).
    pub fn session_serial(&self, session: SessionId) -> Result<u64, KvError> {
        self.serials
            .get(session.0 as usize)
            .copied()
            .ok_or(KvError::NoSuchSession(session.0))
    }

    /// Current statistics.
    pub fn stats(&self) -> KvStats {
        KvStats {
            token: self.token,
            log_bytes: self.head,
            index_slots: self.index_slots,
            occupied_slots: self.occupied,
            sessions: self.serials.len() as u64,
            segments: self.segments.len() as u64,
        }
    }

    /// Insert or overwrite `key`.
    pub fn upsert(
        &mut self,
        engine: &mut CheckpointEngine,
        session: SessionId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), KvError> {
        self.check_key(key)?;
        self.check_session(session)?;
        let need = crate::layout::record_len(key.len(), value.len());
        if need as u64 > self.cfg.segment_bytes {
            return Err(KvError::RecordTooLarge(need));
        }
        let t0 = engine.clock().now().as_nanos();

        self.maybe_grow(engine)?;
        let hash = hash64(key);
        let serial = self.encode(session, key, Some(value));
        let rolled = engine.access(|a| {
            let probe = self.probe(a, hash, key)?;
            self.place(a, session, serial, hash, probe)
        })?;
        self.finish(engine, session, serial, hash, rolled)?;

        count_op(engine, names::KV_UPSERTS_TOTAL, t0);
        self.trace_op(engine, "upsert", session, serial, true);
        Ok(())
    }

    /// Point read. Returns `None` for absent or deleted keys.
    pub fn read(
        &mut self,
        engine: &mut CheckpointEngine,
        session: SessionId,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, KvError> {
        self.check_key(key)?;
        self.check_session(session)?;
        let t0 = engine.clock().now().as_nanos();

        let hash = hash64(key);
        let value = engine.access(|a| match self.probe(a, hash, key)? {
            Probe::Found { record, header, .. } if !header.is_tombstone() => {
                Ok::<_, KvError>(Some(read_value(a, record, &header)?.to_vec()))
            }
            _ => Ok(None),
        })?;

        if value.is_none() {
            if let Some(m) = engine.metrics_mut() {
                m.counter_add(names::KV_READ_MISSES_TOTAL, 1);
            }
        }
        count_op(engine, names::KV_READS_TOTAL, t0);
        let serial = self.serials[session.0 as usize];
        self.trace_op(engine, "read", session, serial, value.is_some());
        Ok(value)
    }

    /// Read-modify-write: `f` sees the current value (or `None`) and
    /// returns the new one, which is appended atomically under the
    /// session's next serial. Returns whether the key existed.
    pub fn rmw(
        &mut self,
        engine: &mut CheckpointEngine,
        session: SessionId,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> Vec<u8>,
    ) -> Result<bool, KvError> {
        self.check_key(key)?;
        self.check_session(session)?;
        let t0 = engine.clock().now().as_nanos();

        self.maybe_grow(engine)?;
        let hash = hash64(key);
        let (probe, old) = engine.access(|a| {
            let probe = self.probe(a, hash, key)?;
            let old = match &probe {
                Probe::Found { record, header, .. } if !header.is_tombstone() => {
                    Some(read_value(a, *record, header)?.to_vec())
                }
                _ => None,
            };
            Ok::<_, KvError>((probe, old))
        })?;
        // `f` runs with no lock held.
        let existed = old.is_some();
        let value = f(old.as_deref());
        let need = crate::layout::record_len(key.len(), value.len());
        if need as u64 > self.cfg.segment_bytes {
            return Err(KvError::RecordTooLarge(need));
        }
        let serial = self.encode(session, key, Some(&value));
        let rolled = engine.access(|a| self.place(a, session, serial, hash, probe))?;
        self.finish(engine, session, serial, hash, rolled)?;

        count_op(engine, names::KV_RMWS_TOTAL, t0);
        self.trace_op(engine, "rmw", session, serial, existed);
        Ok(existed)
    }

    /// Delete `key` by appending a tombstone. Returns whether the key
    /// existed (a miss appends nothing and consumes no serial).
    pub fn delete(
        &mut self,
        engine: &mut CheckpointEngine,
        session: SessionId,
        key: &[u8],
    ) -> Result<bool, KvError> {
        self.check_key(key)?;
        self.check_session(session)?;
        let t0 = engine.clock().now().as_nanos();

        let hash = hash64(key);
        let placed = engine.access(|a| match self.probe(a, hash, key)? {
            found @ Probe::Found { header, .. } if !header.is_tombstone() => {
                let serial = self.encode(session, key, None);
                Ok::<_, KvError>(Some((serial, self.place(a, session, serial, hash, found)?)))
            }
            _ => Ok(None),
        })?;
        let existed = placed.is_some();
        if let Some((serial, rolled)) = placed {
            self.finish(engine, session, serial, hash, rolled)?;
        }

        count_op(engine, names::KV_DELETES_TOTAL, t0);
        let serial = self.serials[session.0 as usize];
        self.trace_op(engine, "delete", session, serial, existed);
        Ok(existed)
    }

    /// Publish a CPR checkpoint token: snapshot the log prefix and
    /// every session's serial watermark into the meta chunk, without
    /// stopping any session. Durability of the token rides the
    /// engine's next coordinated commit (`nvchkptall`).
    ///
    /// Publishing again before that commit is allowed, and the newest
    /// token wins: the meta block is one place in the chunk's working
    /// copy, the second snapshot overwrites the first there, and the
    /// commit makes durable the token it finds — the later one, with
    /// the later one's log prefix and watermarks. The earlier token is
    /// never recoverable on its own; everything it covered is covered
    /// by its successor.
    pub fn checkpoint(
        &mut self,
        engine: &mut CheckpointEngine,
    ) -> Result<KvCheckpointToken, KvError> {
        let t0 = engine.clock().now().as_nanos();
        let token = self.token + 1;
        engine
            .tracer_mut()
            .emit(t0, TraceEventKind::KvCheckpointBegin { token });

        self.token = token;
        let meta = KvMeta {
            token,
            log_len: self.head,
            index_slots: self.index_slots,
            serials: self.serials.clone(),
        };
        let bytes = encode_meta(&meta, self.cfg.max_sessions);
        engine.write(self.meta, 0, &bytes)?;

        let t1 = engine.clock().now().as_nanos();
        engine.tracer_mut().emit(
            t1,
            TraceEventKind::KvCheckpointEnd {
                token,
                log_bytes: self.head,
                sessions: self.serials.len() as u64,
            },
        );
        if let Some(m) = engine.metrics_mut() {
            m.counter_add(names::KV_CHECKPOINT_TOKENS_TOTAL, 1);
            m.observe(names::KV_CHECKPOINT_TOKEN_NS, t1 - t0);
        }
        Ok(KvCheckpointToken {
            token,
            log_bytes: self.head,
        })
    }

    /// Rebuild a store from a restarted engine (after
    /// `restart`/`restart_from_store`/`restart_from_images`): read the
    /// last committed token's meta block, replay the committed log
    /// prefix through the per-session watermarks into a fresh index,
    /// and drop acknowledged-after-token records.
    ///
    /// A restart carries no index over (it is not persistent), so
    /// recovery allocates one; an engine that still holds a live
    /// `kv_index` — one never restarted since its store was created or
    /// recovered — fails with [`KvError::Engine`].
    ///
    /// The log is replayed where the engine's working copies hold it
    /// ([`nvm_chkpt::Access::views`]), and nothing is changed in
    /// the engine until the replay has succeeded and the index is
    /// allocated: a [`KvError::Corrupt`] log, or an index that does
    /// not fit ([`KvError::Full`]), leaves every chunk as it was, and
    /// the clock moved by the reads alone.
    pub fn recover(
        engine: &mut CheckpointEngine,
        cfg: KvConfig,
    ) -> Result<(KvStore, KvRecovery), KvError> {
        cfg.validate()?;

        // Inventory the recovered kv chunks by name.
        let mut meta_id = None;
        let mut seg_ids: Vec<(u64, ChunkId, usize)> = Vec::new();
        for chunk in engine.heap().chunks() {
            if chunk.name == "kv_meta" {
                meta_id = Some((chunk.id, chunk.len));
            } else if let Some(i) = chunk.name.strip_prefix("kv_seg_") {
                if let Ok(i) = i.parse::<u64>() {
                    seg_ids.push((i, chunk.id, chunk.len));
                }
            }
        }

        // No meta chunk: the store never survived a commit — start
        // fresh (still a valid recovery outcome: token 0, empty).
        let Some((meta_id, meta_len)) = meta_id else {
            let store = KvStore::create(engine, cfg)?;
            let recovery = KvRecovery {
                token: 0,
                log_bytes: 0,
                replayed: 0,
                dropped: 0,
            };
            let t = engine.clock().now().as_nanos();
            engine.tracer_mut().emit(
                t,
                TraceEventKind::KvRecoverySeek {
                    token: 0,
                    replayed: 0,
                    dropped: 0,
                },
            );
            return Ok((store, recovery));
        };
        if meta_len != meta_bytes(cfg.max_sessions) {
            return Err(KvError::Corrupt("meta chunk size vs max_sessions"));
        }

        // Read the committed meta block. An all-zero block (chunk
        // committed before any `checkpoint()`) decodes to None: no
        // token, replay nothing.
        let meta = engine.access(|a| a.view(meta_id, 0, meta_len).map(decode_meta))?;
        let meta = meta.unwrap_or(KvMeta {
            token: 0,
            log_len: 0,
            index_slots: cfg.initial_index_slots,
            serials: Vec::new(),
        });

        // Segments must be kv_seg_0..kv_seg_{n-1}, all of the
        // configured size.
        seg_ids.sort_by_key(|&(i, _, _)| i);
        for (want, &(i, _, len)) in seg_ids.iter().enumerate() {
            if i != want as u64 {
                return Err(KvError::Corrupt("log segment numbering has a gap"));
            }
            if len as u64 != cfg.segment_bytes {
                return Err(KvError::Corrupt("log segment size vs config"));
            }
        }
        let segments: Vec<ChunkId> = seg_ids.iter().map(|&(_, id, _)| id).collect();
        if meta.log_len > segments.len() as u64 * cfg.segment_bytes {
            return Err(KvError::Corrupt("token log prefix exceeds log size"));
        }

        // Replay the log where the engine's working copies hold it, each
        // segment's read charged as an engine read of it would be. The
        // replay only reads: a corrupt prefix fails here, before any
        // of the mutations below, and leaves the engine's chunks as
        // they were.
        let whole = |&id: &ChunkId| (id, 0, cfg.segment_bytes as usize);
        let ranges: Vec<_> = segments.iter().map(whole).collect();
        let replay = engine.access(|a| Replay::run(&a.views(&ranges)?, &meta, &cfg))?;
        let Replay {
            table,
            slots,
            occupied,
            replayed,
            dropped,
            stale,
        } = replay;

        // Allocate the index before the first write, so that an index
        // that does not fit changes nothing.
        let index = engine
            .nvmalloc("kv_index", table.len(), false)
            .map_err(full_or_engine)?;

        // Zero the log tail past the token prefix so the next run's
        // appends land on a canonical, bit-verifiable log.
        engine.access(|a| {
            for (seg, at, len) in stale {
                a.write(segments[seg], at, &vec![0u8; len])?;
            }
            a.write(index, 0, &table)
        })?;

        let store = KvStore {
            index_slots: slots,
            cfg,
            meta: meta_id,
            index,
            occupied,
            segments,
            head: meta.log_len,
            token: meta.token,
            serials: meta.serials,
            record: Vec::new(),
        };
        if let Some(m) = engine.metrics_mut() {
            m.counter_add(names::KV_RECOVERY_REPLAYED_TOTAL, replayed);
            m.counter_add(names::KV_RECOVERY_DROPPED_TOTAL, dropped);
        }
        let t = engine.clock().now().as_nanos();
        engine.tracer_mut().emit(
            t,
            TraceEventKind::KvRecoverySeek {
                token: meta.token,
                replayed,
                dropped,
            },
        );
        Ok((
            store,
            KvRecovery {
                token: meta.token,
                log_bytes: meta.log_len,
                replayed,
                dropped,
            },
        ))
    }

    /// Every live key → value, in key order (test oracle; reads the
    /// whole store).
    pub fn contents(
        &mut self,
        engine: &mut CheckpointEngine,
    ) -> Result<BTreeMap<Vec<u8>, Vec<u8>>, KvError> {
        engine.access(|a| {
            let mut map = BTreeMap::new();
            for slot in 0..self.index_slots {
                let (_, tag) = self.read_entry(a, slot)?;
                if tag == 0 {
                    continue;
                }
                let record = self.locate(tag - 1);
                let header = read_header(a, record)?;
                if header.is_tombstone() {
                    continue;
                }
                let key = read_key(a, record, header.key_len as usize)?.to_vec();
                let value = read_value(a, record, &header)?.to_vec();
                map.insert(key, value);
            }
            Ok(map)
        })
    }

    // --- internals ---

    fn check_key(&self, key: &[u8]) -> Result<(), KvError> {
        if key.is_empty() || key.len() > u8::MAX as usize {
            return Err(KvError::BadKey(key.len()));
        }
        Ok(())
    }

    fn check_session(&self, session: SessionId) -> Result<(), KvError> {
        if (session.0 as usize) < self.serials.len() {
            Ok(())
        } else {
            Err(KvError::NoSuchSession(session.0))
        }
    }

    /// The index slot the probed key's entry goes in, counted as
    /// occupied if it was free. Called once the key's record is in the
    /// log, so that a failed append claims nothing.
    fn claim(&mut self, probe: Probe) -> u64 {
        match probe {
            Probe::Found { slot, .. } => slot,
            Probe::Free { slot } => {
                self.occupied += 1;
                slot
            }
        }
    }

    fn trace_op(
        &self,
        engine: &mut CheckpointEngine,
        op: &str,
        session: SessionId,
        serial: u64,
        hit: bool,
    ) {
        if !self.cfg.trace_ops || !engine.tracer().enabled() {
            return;
        }
        let t = engine.clock().now().as_nanos();
        engine.tracer_mut().emit(
            t,
            TraceEventKind::KvOp {
                op: op.to_string(),
                session: session.0 as u64,
                serial,
                hit,
            },
        );
    }

    /// The segment and the offset in it of the record at log offset
    /// `offset`.
    fn locate(&self, offset: u64) -> Record {
        let (seg, off) = self.seg_of(offset);
        (self.segments[seg], off)
    }

    fn seg_of(&self, offset: u64) -> (usize, usize) {
        (
            (offset / self.cfg.segment_bytes) as usize,
            (offset % self.cfg.segment_bytes) as usize,
        )
    }

    fn read_entry(&self, a: &mut Access<'_>, slot: u64) -> Result<(u64, u64), KvError> {
        let entry = a.view(
            self.index,
            (slot as usize) * INDEX_ENTRY_BYTES,
            INDEX_ENTRY_BYTES,
        )?;
        Ok(decode_index_entry(entry))
    }

    fn write_entry(
        &self,
        a: &mut Access<'_>,
        slot: u64,
        hash: u64,
        offset: u64,
    ) -> Result<(), KvError> {
        let entry = encode_index_entry(hash, offset + 1);
        a.write(self.index, (slot as usize) * INDEX_ENTRY_BYTES, &entry)?;
        Ok(())
    }

    /// Probe the index for `key`. Linear probing; a slot whose hash
    /// matches is confirmed by comparing the key with the log's bytes
    /// where they lie.
    fn probe(&self, a: &mut Access<'_>, hash: u64, key: &[u8]) -> Result<Probe, KvError> {
        let mask = self.index_slots - 1;
        let mut slot = hash & mask;
        for _ in 0..self.index_slots {
            let (entry_hash, tag) = self.read_entry(a, slot)?;
            if tag == 0 {
                return Ok(Probe::Free { slot });
            }
            if entry_hash == hash {
                let record = self.locate(tag - 1);
                let header = read_header(a, record)?;
                if header.key_len as usize == key.len() && read_key(a, record, key.len())? == key {
                    return Ok(Probe::Found {
                        slot,
                        record,
                        header,
                    });
                }
            }
            slot = (slot + 1) & mask;
        }
        Err(KvError::Corrupt("hash index has no free slot"))
    }

    /// Encode the record of `session`'s next mutation of `key`
    /// (`value: None` is a tombstone) into the buffer the store keeps,
    /// and return its serial.
    fn encode(&mut self, session: SessionId, key: &[u8], value: Option<&[u8]>) -> u64 {
        let serial = self.serials[session.0 as usize] + 1;
        encode_record_into(&mut self.record, session.0, serial, key, value);
        serial
    }

    /// Append the encoded record, `session`'s mutation `serial`, at the
    /// log head and point the slot `probe` found at it. Records never
    /// span segments; a short tail is closed with a
    /// [`SEGMENT_END_MARKER`]. When the head reaches a segment not yet
    /// allocated, `probe` comes back: allocation takes the DRAM lock,
    /// so [`KvStore::finish`] allocates it outside the access and
    /// places the record in a second one. The session's serial
    /// advances, and the slot is claimed, only once the record is in
    /// the log: a failed append consumes no serial and claims nothing.
    fn place(
        &mut self,
        a: &mut Access<'_>,
        session: SessionId,
        serial: u64,
        hash: u64,
        probe: Probe,
    ) -> Result<Option<Probe>, KvError> {
        let seg_len = self.cfg.segment_bytes as usize;
        let len = self.record.len();
        loop {
            let (seg, off) = self.seg_of(self.head);
            let Some(&id) = self.segments.get(seg) else {
                return Ok(Some(probe));
            };
            if seg_len - off >= len {
                a.write(id, off, &self.record)?;
                let offset = self.head;
                self.head += len as u64;
                self.serials[session.0 as usize] = serial;
                let slot = self.claim(probe);
                self.write_entry(a, slot, hash, offset)?;
                return Ok(None);
            }
            if seg_len - off >= 4 {
                a.write(id, off, &SEGMENT_END_MARKER.to_le_bytes())?;
            }
            self.head = (seg + 1) as u64 * seg_len as u64;
        }
    }

    /// Finish a mutation [`KvStore::place`] began: allocate each log
    /// segment it `rolled` into and place the record there, then count
    /// the record's bytes.
    fn finish(
        &mut self,
        engine: &mut CheckpointEngine,
        session: SessionId,
        serial: u64,
        hash: u64,
        mut rolled: Option<Probe>,
    ) -> Result<(), KvError> {
        while let Some(probe) = rolled {
            let name = format!("kv_seg_{}", self.segments.len());
            let id = engine
                .nvmalloc(&name, self.cfg.segment_bytes as usize, true)
                .map_err(full_or_engine)?;
            self.segments.push(id);
            rolled = engine.access(|a| self.place(a, session, serial, hash, probe))?;
        }
        if let Some(m) = engine.metrics_mut() {
            m.counter_add(names::KV_LOG_APPENDED_BYTES_TOTAL, self.record.len() as u64);
        }
        Ok(())
    }

    fn maybe_grow(&mut self, engine: &mut CheckpointEngine) -> Result<(), KvError> {
        if (self.occupied + 1) * 4 <= self.index_slots * 3 {
            return Ok(());
        }
        let len = (self.index_slots as usize) * INDEX_ENTRY_BYTES;
        let grown = engine.access(|a| {
            a.view(self.index, 0, len)
                .map(|old| host_grow(old, self.index_slots))
        });
        let (table, slots) = grown?;
        engine
            .nvrealloc(self.index, table.len())
            .map_err(full_or_engine)?;
        engine.write(self.index, 0, &table)?;
        self.index_slots = slots;
        if let Some(m) = engine.metrics_mut() {
            m.counter_add(names::KV_INDEX_SPLITS_TOTAL, 1);
        }
        Ok(())
    }
}

/// The header of `record`, where it lies.
fn read_header(a: &mut Access<'_>, (seg, off): Record) -> Result<RecordHeader, KvError> {
    let bytes = a.view(seg, off, RECORD_HEADER_BYTES)?;
    decode_record_header(bytes).ok_or(KvError::Corrupt("index points at a non-record"))
}

/// The first `len` key bytes of `record`, where they lie.
fn read_key<'v>(
    a: &'v mut Access<'_>,
    (seg, off): Record,
    len: usize,
) -> Result<&'v [u8], KvError> {
    Ok(a.view(seg, off + RECORD_HEADER_BYTES, len)?)
}

/// The value of `record`, where it lies.
fn read_value<'v>(
    a: &'v mut Access<'_>,
    (seg, off): Record,
    header: &RecordHeader,
) -> Result<&'v [u8], KvError> {
    let at = off + RECORD_HEADER_BYTES + header.key_len as usize;
    Ok(a.view(seg, at, header.val_len as usize)?)
}

/// Count one point operation that began at `t0` into the engine's
/// registry: its `total` counter and its latency in `kv_op_ns`.
fn count_op(engine: &mut CheckpointEngine, total: names::Counter, t0: u64) {
    let t1 = engine.clock().now().as_nanos();
    if let Some(m) = engine.metrics_mut() {
        m.counter_add(total, 1);
        m.observe(names::KV_OP_NS, t1 - t0);
    }
}

/// An allocation error of a growing or recovering store:
/// [`KvError::Full`] if it says there is no room, [`KvError::Engine`]
/// otherwise.
fn full_or_engine(e: EngineError) -> KvError {
    match e {
        EngineError::Heap(
            HeapError::OutOfNvm { .. } | HeapError::Device(DeviceError::OutOfCapacity { .. }),
        )
        | EngineError::Device(DeviceError::OutOfCapacity { .. }) => KvError::Full(e),
        e => KvError::Engine(e),
    }
}

/// What recovery reads off the log, from the segments' bytes alone:
/// the rebuilt index, the record counts, and the stale tail to zero.
struct Replay {
    table: Vec<u8>,
    slots: u64,
    occupied: u64,
    replayed: u64,
    dropped: u64,
    /// `(segment, offset, len)` per segment whose bytes past the token
    /// prefix are not all zero: its first nonzero byte there to its
    /// last. Only spans that hold stale bytes are rewritten.
    stale: Vec<(usize, usize, usize)>,
}

impl Replay {
    /// Replay `[0, meta.log_len)` of the log whose segments are `segs`
    /// into a host-side table, honouring the per-session watermarks;
    /// count the acknowledged-after-token records past the prefix; and
    /// find the stale tail.
    fn run(segs: &[&[u8]], meta: &KvMeta, cfg: &KvConfig) -> Result<Replay, KvError> {
        let seg_len = cfg.segment_bytes;
        let mut slots = cfg.initial_index_slots.max(meta.index_slots);
        let mut table = vec![0u8; (slots as usize) * INDEX_ENTRY_BYTES];
        let mut occupied = 0u64;
        let mut replayed = 0u64;
        let mut dropped = 0u64;
        let key_of = |tag: u64| {
            let at = tag - 1;
            record_key(&segs[(at / seg_len) as usize][(at % seg_len) as usize..])
        };
        // Inside the token prefix a zero word ends its segment's
        // records, and an undecodable header is corruption.
        let mut walk = LogWalk {
            segs,
            seg_len,
            pos: 0,
        };
        while let Some(found) = walk.next(meta.log_len) {
            let (header, bytes) = match found {
                Found::Zero => {
                    walk.skip_segment();
                    continue;
                }
                Found::Garbage => {
                    return Err(KvError::Corrupt("unparseable record in committed prefix"))
                }
                Found::Record(header, bytes) => (header, bytes),
            };
            let pos = walk.pos;
            if pos + header.len_total as u64 > meta.log_len {
                return Err(KvError::Corrupt("record straddles the token prefix"));
            }
            if header.len_total as usize > bytes.len() {
                return Err(KvError::Corrupt("record crosses a segment boundary"));
            }
            let watermark = meta.serials.get(header.session as usize).copied();
            if watermark.is_some_and(|w| header.serial <= w) {
                let key = record_key(bytes);
                let same = |tag| key_of(tag) == key;
                if host_insert(&mut table, slots, hash64(key), pos + 1, &mut occupied, same) {
                    // Load crossed 3/4 during replay (can only happen
                    // if the hint was stale): double and rehash.
                    (table, slots) = host_grow(&table, slots);
                }
                replayed += 1;
            } else {
                dropped += 1;
            }
            walk.pos += header.len_total as u64;
        }
        // Past it, the acknowledged-after-token records run to the
        // first zero word or undecodable header: torn or stale bytes
        // are expected there after a crash.
        walk.pos = meta.log_len;
        while let Some(Found::Record(header, _)) = walk.next(u64::MAX) {
            dropped += 1;
            walk.pos += header.len_total as u64;
        }

        let stale = (segs.iter().enumerate())
            .filter_map(|(seg, bytes)| {
                let seg_start = seg as u64 * seg_len;
                let from = meta.log_len.saturating_sub(seg_start).min(seg_len) as usize;
                let tail = &bytes[from..];
                let first = tail.iter().position(|&b| b != 0)?;
                let last = tail.iter().rposition(|&b| b != 0)?;
                Some((seg, from + first, last - first + 1))
            })
            .collect();
        Ok(Replay {
            table,
            slots,
            occupied,
            replayed,
            dropped,
            stale,
        })
    }
}

/// A walk over the log whose segments are `segs`, each `seg_len`
/// bytes, from `pos`.
struct LogWalk<'a> {
    segs: &'a [&'a [u8]],
    seg_len: u64,
    pos: u64,
}

/// What a [`LogWalk`] finds where a record may start.
enum Found<'a> {
    /// A record's header, and its segment's bytes from the record on.
    Record(RecordHeader, &'a [u8]),
    /// A zero word: nothing was appended here.
    Zero,
    /// A word that is neither zero nor a decodable header.
    Garbage,
}

impl<'a> LogWalk<'a> {
    /// What lies at the first position from `pos` on, below `end`
    /// and the log's end, where a record may start: a segment tail too
    /// short for a header and a [`SEGMENT_END_MARKER`] move the walk
    /// on to the next segment.
    fn next(&mut self, end: u64) -> Option<Found<'a>> {
        while self.pos < end && self.pos / self.seg_len < self.segs.len() as u64 {
            let off = (self.pos % self.seg_len) as usize;
            let bytes = &self.segs[(self.pos / self.seg_len) as usize][off..];
            if self.seg_len as usize - off < RECORD_HEADER_BYTES {
                self.skip_segment();
                continue;
            }
            let word = u32::from_le_bytes(bytes[..4].try_into().unwrap());
            if word == SEGMENT_END_MARKER {
                self.skip_segment();
                continue;
            }
            return Some(match word {
                0 => Found::Zero,
                _ => {
                    decode_record_header(bytes).map_or(Found::Garbage, |h| Found::Record(h, bytes))
                }
            });
        }
        None
    }

    /// Move the walk to the start of the next segment.
    fn skip_segment(&mut self) {
        self.pos = (self.pos / self.seg_len + 1) * self.seg_len;
    }
}

/// Insert `(hash, tag)` into a host-side table: over the entry of an
/// equal key (`same` of its tag, asked only on a hash match), else
/// into the first free slot on the probe path. A rehash passes a
/// `same` that never matches: its entries stand for distinct keys.
/// Returns true when the table passed 3/4 load.
fn host_insert(
    table: &mut [u8],
    slots: u64,
    hash: u64,
    tag: u64,
    occupied: &mut u64,
    same: impl Fn(u64) -> bool,
) -> bool {
    let mask = slots - 1;
    let mut slot = hash & mask;
    loop {
        let at = (slot as usize) * INDEX_ENTRY_BYTES;
        let entry = &mut table[at..at + INDEX_ENTRY_BYTES];
        let (entry_hash, entry_tag) = decode_index_entry(entry);
        if entry_tag == 0 {
            entry.copy_from_slice(&encode_index_entry(hash, tag));
            *occupied += 1;
            return (*occupied + 1) * 4 > slots * 3;
        }
        if entry_hash == hash && same(entry_tag) {
            entry.copy_from_slice(&encode_index_entry(hash, tag));
            return false;
        }
        slot = (slot + 1) & mask;
    }
}

/// Double a host-side table and rehash every occupied entry.
fn host_grow(old: &[u8], old_slots: u64) -> (Vec<u8>, u64) {
    let slots = old_slots * 2;
    let mut table = vec![0u8; (slots as usize) * INDEX_ENTRY_BYTES];
    let mut occupied = 0u64;
    for i in 0..old_slots as usize {
        let at = i * INDEX_ENTRY_BYTES;
        let (hash, tag) = decode_index_entry(&old[at..at + INDEX_ENTRY_BYTES]);
        if tag != 0 {
            host_insert(&mut table, slots, hash, tag, &mut occupied, |_| false);
        }
    }
    (table, slots)
}
