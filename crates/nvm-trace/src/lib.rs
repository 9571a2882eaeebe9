//! Deterministic structured event tracing for the NVM checkpoint stack.
//!
//! The paper's central claims are *timeline* claims: pre-copy drains
//! dirty chunks in the background, DCPC/DCPCP defer hot chunks, the
//! coordinated step shrinks. End-of-run aggregates cannot show any of
//! that, so this crate provides a virtual-time-stamped event stream
//! that the engine, cluster simulator and kv serving layer feed.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** A [`Tracer`] holds `None` by
//!    default; every emission site guards on [`Tracer::enabled`],
//!    which is a single branch on an `Option`.
//! 2. **Deterministic.** Events carry a `u64` virtual-time stamp
//!    (`t_ns`, nanoseconds on the owning rank's clock) and a rank tag.
//!    Per-rank buffers merged with [`merge_ranked`] produce an event
//!    stream that is bit-identical whether ranks executed serially or
//!    on a thread pool, extending the cluster simulator's determinism
//!    guarantee to the trace itself.
//! 3. **One record per rank, owned.** A [`Tracer`] is a plain `Vec`
//!    its owner (one rank's engine) pushes into through `&mut`: no
//!    lock, no sharing. [`to_jsonl`] and [`to_chrome_trace`] render
//!    collected events offline — the latter loads in
//!    `chrome://tracing` / Perfetto.

#![warn(missing_docs)]

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Version of the JSONL trace format written by [`to_jsonl`]. Bumped
/// whenever an event gains a field or a new variant changes the wire
/// shape in a way old readers cannot ignore.
/// History:
///
/// * **1** — seed format, no header line.
/// * **2** — header line `{"schema_version":2}`; `PrecopyDrain` gained
///   `cost_ns`; new kinds `precopy_end`, `barrier_wait`,
///   `recovery_verify`. Version-1 traces are upgraded on read
///   (`cost_ns` defaults to 0).
/// * **3** — new kinds `kv_op`, `kv_checkpoint_begin`,
///   `kv_checkpoint_end`, `kv_recovery_seek` emitted by the `nvm-kv`
///   serving layer. No existing kind changed shape, so version-2
///   traces load unmodified.
/// * **3, unchanged** — kind `device_charge` retired. It was never
///   emitted outside its own test; a line carrying it is a
///   [`TraceReadError::Parse`].
/// * **4** — `RemoteTransfer` gained `dur_ns` (how long the shipment
///   held the link) and `RankFailure` gained `restart_ns` (how long the
///   cluster stood still restarting), so a rank's timeline — Figures 1
///   and 5 — is drawn from the trace alone. Version-3 and older traces
///   load with both at 0.
pub const SCHEMA_VERSION: u32 = 4;

/// What happened. Variants map one-to-one onto the mechanisms the
/// paper's timeline figures argue about; see DESIGN.md for the
/// figure-by-figure mapping.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// First write to a protected chunk after a checkpoint: the MMU
    /// write-protection fault that makes the chunk dirty.
    ProtectionFault {
        /// Chunk that faulted.
        chunk: u64,
    },
    /// A background pre-copy window opened inside the compute phase.
    PrecopyStart {
        /// Epoch the window belongs to.
        epoch: u64,
        /// Stable (drainable) chunks visible at window start.
        candidates: u64,
    },
    /// Pre-copy drained one chunk to its shadow slot.
    PrecopyDrain {
        /// Chunk drained.
        chunk: u64,
        /// Bytes copied.
        bytes: u64,
        /// Virtual nanoseconds the helper spent on this drain (0 in
        /// schema-version-1 traces, which predate the field).
        cost_ns: u64,
    },
    /// The background pre-copy window inside a compute phase closed.
    /// Together with [`TraceEventKind::PrecopyStart`] this bounds the
    /// *hidden* (overlapped) checkpoint work of the epoch.
    PrecopyEnd {
        /// Epoch the window belonged to.
        epoch: u64,
        /// Virtual nanoseconds of helper copy work done this window.
        busy_ns: u64,
        /// Virtual nanoseconds of compute slowdown charged to the
        /// application because the helper shared the memory system —
        /// checkpoint cost that *was* exposed despite the overlap.
        interference_ns: u64,
    },
    /// A pre-copied chunk was re-dirtied before the checkpoint: the
    /// background copy was wasted work.
    PrecopyWaste {
        /// Chunk whose pre-copy was invalidated.
        chunk: u64,
    },
    /// The coordinated (blocking) checkpoint phase began.
    CoordinatedBegin {
        /// Epoch being committed.
        epoch: u64,
        /// Dirty chunks left for the coordinated step.
        dirty: u64,
    },
    /// The coordinated checkpoint phase finished.
    CoordinatedEnd {
        /// Epoch committed.
        epoch: u64,
        /// Bytes copied during the blocking step.
        copied_bytes: u64,
    },
    /// A chunk's committed-version pointer flipped to a new slot
    /// (the two-version commit).
    CommitFlip {
        /// Chunk committed.
        chunk: u64,
        /// Slot index (0 or 1) now holding the committed version.
        slot: u64,
    },
    /// The engine restored state from the last committed checkpoint.
    Restart {
        /// Restart strategy name (`eager`, `parallel`, `lazy`).
        strategy: String,
        /// Chunks restored (0 for lazy, which defers).
        chunks: u64,
    },
    /// A remote helper shipped checkpoint bytes to a buddy node.
    RemoteTransfer {
        /// Bytes moved over the interconnect.
        bytes: u64,
        /// True for incremental (pre-copy) shipping, false for a bulk
        /// post-checkpoint burst.
        incremental: bool,
        /// Virtual nanoseconds the shipment took on the node's link,
        /// from the event's timestamp (0 in traces older than schema
        /// version 4).
        dur_ns: u64,
    },
    /// A rank failed during a cluster run.
    RankFailure {
        /// Iteration at which the failure struck.
        iteration: u64,
        /// True if the node was lost (recovery from the remote copy).
        hard: bool,
        /// Virtual nanoseconds every rank stood still, from the event's
        /// timestamp, while the failures of this batch were restarted
        /// (0 in traces older than schema version 4).
        restart_ns: u64,
    },
    /// A rank reached a cluster barrier and (possibly) waited for the
    /// stragglers. Emitted at the rank's arrival time; `wait_ns` is 0
    /// for the straggler itself.
    BarrierWait {
        /// Monotonic barrier sequence number within the run, shared by
        /// all ranks of one barrier — the causal join edge of the DAG.
        id: u64,
        /// Virtual nanoseconds this rank stalled before release.
        wait_ns: u64,
    },
    /// A rank waited on a communication collective.
    CommWait {
        /// Collective name (`halo`, `allreduce`, `alltoall`, `bcast`).
        op: String,
        /// Virtual nanoseconds spent waiting.
        wait_ns: u64,
    },
    /// A chunk payload was staged into the durable store's shadow slot.
    StoreWrite {
        /// Chunk staged.
        chunk: u64,
        /// Payload bytes written to media.
        bytes: u64,
    },
    /// The durable store appended + fsynced a commit record.
    StoreCommit {
        /// Epoch made durable.
        epoch: u64,
    },
    /// An engine was rebuilt from a durable store's recovery scan.
    StoreRecovery {
        /// Last durable epoch (`None` for a virgin container).
        epoch: Option<u64>,
        /// Chunks in the recovered table.
        chunks: u64,
        /// Torn trailing records detected and discarded by the scan.
        torn: u64,
    },
    /// Hard-failure recovery of a node began.
    RecoveryStart {
        /// Node being recovered.
        node: u64,
        /// Recovery source (`local-store`, `remote-buddy`, `virgin`,
        /// `modeled`).
        source: String,
    },
    /// A recovery transfer attempt was lost and retried.
    RecoveryRetry {
        /// Rank whose chunk was being fetched.
        rank: u64,
        /// Chunk being fetched.
        chunk: u64,
        /// Attempt number that finally succeeded (>= 2).
        attempt: u64,
    },
    /// One chunk of a recovered rank was verified bit-for-bit against
    /// the image the recovery source supplied.
    RecoveryVerify {
        /// Rank whose chunk was verified.
        rank: u64,
        /// Chunk verified.
        chunk: u64,
        /// Bytes compared.
        bytes: u64,
    },
    /// Hard-failure recovery of a node completed.
    RecoveryEnd {
        /// Node recovered.
        node: u64,
        /// Bytes pulled over the interconnect.
        bytes: u64,
        /// Chunks verified bit-for-bit against the recovered images.
        verified: u64,
    },
    /// One key-value operation completed on a serving session
    /// (emitted only when the kv store is configured to trace
    /// individual operations — high-volume runs keep this off).
    KvOp {
        /// Operation name (`upsert`, `read`, `rmw`, `delete`).
        op: String,
        /// Serving session that issued the operation.
        session: u64,
        /// The session's serial number for this operation.
        serial: u64,
        /// Whether the key existed (reads/rmw/deletes; always true
        /// for upserts).
        hit: bool,
    },
    /// A CPR-style checkpoint token was opened: per-session serialized
    /// prefixes are marked while sessions keep serving.
    KvCheckpointBegin {
        /// Monotone checkpoint token id.
        token: u64,
    },
    /// The checkpoint token's metadata (log prefix + session
    /// watermarks) finished writing; durability rides the engine's
    /// next coordinated commit.
    KvCheckpointEnd {
        /// Token id.
        token: u64,
        /// Record-log bytes covered by the token.
        log_bytes: u64,
        /// Serving sessions whose watermarks the token captured.
        sessions: u64,
    },
    /// Recovery sought the kv store back to its last committed
    /// checkpoint token, replaying the committed log prefix and
    /// dropping acknowledged-after-token records.
    KvRecoverySeek {
        /// Token recovered to.
        token: u64,
        /// Log records replayed into the rebuilt index.
        replayed: u64,
        /// Records found past the token's log prefix and dropped.
        dropped: u64,
    },
}

impl TraceEventKind {
    /// Short stable name for this event kind (used as the Chrome
    /// trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::ProtectionFault { .. } => "fault",
            TraceEventKind::PrecopyStart { .. } => "precopy_start",
            TraceEventKind::PrecopyDrain { .. } => "precopy_drain",
            TraceEventKind::PrecopyEnd { .. } => "precopy_end",
            TraceEventKind::PrecopyWaste { .. } => "precopy_waste",
            TraceEventKind::CoordinatedBegin { .. } => "coordinated",
            TraceEventKind::CoordinatedEnd { .. } => "coordinated",
            TraceEventKind::CommitFlip { .. } => "commit_flip",
            TraceEventKind::Restart { .. } => "restart",
            TraceEventKind::RemoteTransfer { .. } => "remote_transfer",
            TraceEventKind::RankFailure { .. } => "rank_failure",
            TraceEventKind::BarrierWait { .. } => "barrier_wait",
            TraceEventKind::CommWait { .. } => "comm_wait",
            TraceEventKind::StoreWrite { .. } => "store_write",
            TraceEventKind::StoreCommit { .. } => "store_commit",
            TraceEventKind::StoreRecovery { .. } => "store_recovery",
            TraceEventKind::RecoveryStart { .. } => "recovery_start",
            TraceEventKind::RecoveryRetry { .. } => "recovery_retry",
            TraceEventKind::RecoveryVerify { .. } => "recovery_verify",
            TraceEventKind::RecoveryEnd { .. } => "recovery_end",
            TraceEventKind::KvOp { .. } => "kv_op",
            TraceEventKind::KvCheckpointBegin { .. } => "kv_checkpoint_begin",
            TraceEventKind::KvCheckpointEnd { .. } => "kv_checkpoint_end",
            TraceEventKind::KvRecoverySeek { .. } => "kv_recovery_seek",
        }
    }
}

/// One timestamped event on one rank's virtual clock.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time in nanoseconds on the emitting rank's clock.
    pub t_ns: u64,
    /// Rank that emitted the event (0 for single-process runs).
    pub rank: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// One rank's event record: the rank tag stamped onto every event and,
/// when enabled, the events themselves in emission order. The record
/// is owned by whoever emits into it (a rank's engine), so capture
/// takes no lock. The default record is disabled and costs one
/// `Option` branch per call site.
#[derive(Default)]
pub struct Tracer {
    rank: u64,
    events: Option<Vec<TraceEvent>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("rank", &self.rank)
            .finish()
    }
}

impl Tracer {
    /// Disabled record; every emission is a no-op.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Empty record collecting events tagged `rank`.
    pub fn new(rank: u64) -> Self {
        Tracer {
            rank,
            events: Some(Vec::new()),
        }
    }

    /// True when events are collected. Call sites that need to compute
    /// anything to build an event should guard on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Record one event at virtual time `t_ns`. No-op when disabled.
    #[inline]
    pub fn emit(&mut self, t_ns: u64, kind: TraceEventKind) {
        if let Some(events) = &mut self.events {
            events.push(TraceEvent {
                t_ns,
                rank: self.rank,
                kind,
            });
        }
    }

    /// The events recorded so far, oldest first (empty when disabled).
    pub fn events(&self) -> &[TraceEvent] {
        self.events.as_deref().unwrap_or_default()
    }

    /// Move the recorded events out, oldest first; the record stays
    /// enabled (or disabled) and starts over empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// Merge per-rank event buffers (index = rank order) into one
/// deterministic stream: stable sort on `(t_ns, rank)`, preserving
/// each rank's own emission order. The result is independent of how
/// the ranks were scheduled onto threads.
pub fn merge_ranked(buffers: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    // Preallocate the exact output size and move whole buffers in
    // (`append` is a memmove) — no per-event clone, no regrowth.
    let total = buffers.iter().map(Vec::len).sum();
    let mut merged: Vec<TraceEvent> = Vec::with_capacity(total);
    for mut buffer in buffers {
        merged.append(&mut buffer);
    }
    merged.sort_by_key(|e| (e.t_ns, e.rank));
    merged
}

/// The JSONL header line: a one-key object carrying the schema
/// version, distinguishable from any event (events always have a
/// `kind` field).
fn jsonl_header() -> String {
    format!("{{\"schema_version\":{SCHEMA_VERSION}}}")
}

/// Render events as JSONL: the [`SCHEMA_VERSION`] header line, then
/// one compact JSON object per line, in input order.
/// Byte-deterministic for a given event sequence.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = jsonl_header();
    out.push('\n');
    for event in events {
        let line = serde_json::to_string(event).expect("trace events always serialize");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Why a recorded JSONL trace could not be loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceReadError {
    /// The trace header declares a schema version newer than this
    /// reader understands; re-record or upgrade the reader.
    Schema {
        /// Version declared by the trace header (any unsigned integer a
        /// header can hold, so a huge one is reported as written).
        found: u64,
        /// Newest version this reader supports ([`SCHEMA_VERSION`]).
        supported: u32,
    },
    /// A line was not a valid event (JSON syntax or shape).
    Parse {
        /// 1-based line number within the input.
        line: usize,
        /// Parser message.
        message: String,
    },
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Schema { found, supported } => write!(
                f,
                "trace schema version {found} is newer than supported version {supported}"
            ),
            TraceReadError::Parse { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

/// Parse JSONL produced by [`to_jsonl`], validating the schema header.
/// Headerless input is treated as a legacy version-1 trace and
/// upgraded in place (fields added since v1 take their documented
/// defaults); a header declaring a version newer than
/// [`SCHEMA_VERSION`] is rejected with [`TraceReadError::Schema`].
pub fn read_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceReadError> {
    let mut events = Vec::new();
    let mut saw_header = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parse_err = |e: &dyn std::fmt::Display| TraceReadError::Parse {
            line: idx + 1,
            message: e.to_string(),
        };
        let value: serde::Value = serde_json::from_str(line).map_err(|e| parse_err(&e))?;
        if let Some(version) = value.get("schema_version") {
            let found = match version {
                serde::Value::Number(n) => n.as_u64(),
                _ => None,
            }
            .ok_or_else(|| parse_err(&"schema_version is not an unsigned integer"))?;
            if found > u64::from(SCHEMA_VERSION) {
                return Err(TraceReadError::Schema {
                    found,
                    supported: SCHEMA_VERSION,
                });
            }
            saw_header = true;
            continue;
        }
        let mut value = value;
        upgrade_event_value(&mut value);
        events.push(serde_json::from_value(&value).map_err(|e| parse_err(&e))?);
    }
    let _ = saw_header; // headerless == legacy v1, upgraded above
    Ok(events)
}

/// Fields added to an existing kind since schema version 1, each
/// with the version that added it: older records lack them, and load
/// with them at 0.
const ADDED_FIELDS: [(&str, &str); 3] = [
    ("PrecopyDrain", "cost_ns"),   // version 2
    ("RemoteTransfer", "dur_ns"),  // version 4
    ("RankFailure", "restart_ns"), // version 4
];

/// Upgrade one event's value tree from any older schema version to
/// the current one: a field in [`ADDED_FIELDS`] that the record lacks
/// is added as 0.
fn upgrade_event_value(value: &mut serde::Value) {
    let serde::Value::Object(event_fields) = value else {
        return;
    };
    let Some((_, kind)) = event_fields.iter_mut().find(|(k, _)| k == "kind") else {
        return;
    };
    let serde::Value::Object(kind_fields) = kind else {
        return;
    };
    let Some((tag, serde::Value::Object(fields))) = kind_fields.iter_mut().next() else {
        return;
    };
    for (_, field) in ADDED_FIELDS.iter().filter(|(kind, _)| kind == tag) {
        if !fields.iter().any(|(k, _)| k == field) {
            fields.push((
                field.to_string(),
                serde::Value::Number(serde::Number::U64(0)),
            ));
        }
    }
}

/// Render events in Chrome `trace_event` JSON-array format, loadable
/// in `chrome://tracing` or Perfetto. Coordinated phases and recovery
/// ladders become duration begin/end pairs; everything else becomes a
/// thread-scoped instant event. Normal execution renders on `pid` 0
/// with one `tid` track per rank; the recovery ladder
/// (`recovery_start`/`recovery_end` spans with `recovery_retry` and
/// `recovery_verify` instants nested inside) renders on `pid` 1 with
/// the same per-rank `tid` lanes, so recoveries appear as their own
/// process group instead of instants lost in the rank tracks.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (ph, pid) = match event.kind {
            TraceEventKind::CoordinatedBegin { .. } => ("B", 0),
            TraceEventKind::CoordinatedEnd { .. } => ("E", 0),
            TraceEventKind::RecoveryStart { .. } => ("B", 1),
            TraceEventKind::RecoveryEnd { .. } => ("E", 1),
            TraceEventKind::RecoveryRetry { .. } | TraceEventKind::RecoveryVerify { .. } => {
                ("i", 1)
            }
            _ => ("i", 0),
        };
        // Begin/end pairs share one name so viewers pair them on the
        // (pid, tid) stack, matching how the coordinated span already
        // uses "coordinated" for both edges.
        let name = match event.kind {
            TraceEventKind::RecoveryStart { .. } | TraceEventKind::RecoveryEnd { .. } => "recovery",
            _ => event.kind.name(),
        };
        let args = kind_args(&event.kind);
        let us_whole = event.t_ns / 1000;
        let us_frac = event.t_ns % 1000;
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":{},\"tid\":{}",
            name, ph, us_whole, us_frac, pid, event.rank
        )
        .expect("writing to a String cannot fail");
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        out.push_str(&args);
        out.push('}');
    }
    out.push(']');
    out
}

/// JSON object holding the payload fields of `kind` (the externally
/// tagged serde form with the tag stripped).
fn kind_args(kind: &TraceEventKind) -> String {
    match kind.to_value() {
        // Data-carrying variants serialize as {"Variant": {fields}}.
        serde::Value::Object(fields) if fields.len() == 1 => {
            serde_json::to_string(&fields[0].1).expect("trace events always serialize")
        }
        // Unit variants serialize as a bare string: no payload.
        _ => String::from("{}"),
    }
}

/// Per-kind event counts — the compact summary bench reports print.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total events.
    pub events: u64,
    /// Protection faults.
    pub faults: u64,
    /// Chunks drained by pre-copy.
    pub precopy_drains: u64,
    /// Pre-copied chunks invalidated by later writes.
    pub precopy_wastes: u64,
    /// Coordinated checkpoint phases completed.
    pub coordinated: u64,
    /// Commit pointer flips.
    pub commit_flips: u64,
    /// Restarts.
    pub restarts: u64,
    /// Remote helper transfers.
    pub remote_transfers: u64,
    /// Bytes shipped by remote helpers.
    pub remote_bytes: u64,
    /// Rank failures.
    pub rank_failures: u64,
    /// Hard-failure node recoveries completed.
    pub recoveries: u64,
    /// Recovery transfer attempts that were lost and retried.
    pub recovery_retries: u64,
    /// Per-chunk bit-for-bit recovery verifications.
    pub recovery_verifies: u64,
    /// Barrier arrivals recorded (one per rank per barrier).
    pub barrier_waits: u64,
    /// Durable-store chunk writes.
    pub store_writes: u64,
    /// Durable-store epoch commits.
    pub store_commits: u64,
    /// Key-value operations (only present when per-op kv tracing was
    /// on).
    pub kv_ops: u64,
    /// CPR checkpoint tokens completed by the kv serving layer.
    pub kv_checkpoints: u64,
    /// Kv recovery seeks (rebuilds to a committed token).
    pub kv_recovery_seeks: u64,
}

/// Summarize an event stream.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary {
        events: events.len() as u64,
        ..TraceSummary::default()
    };
    for event in events {
        match &event.kind {
            TraceEventKind::ProtectionFault { .. } => s.faults += 1,
            TraceEventKind::PrecopyDrain { .. } => s.precopy_drains += 1,
            TraceEventKind::PrecopyWaste { .. } => s.precopy_wastes += 1,
            TraceEventKind::CoordinatedEnd { .. } => s.coordinated += 1,
            TraceEventKind::CommitFlip { .. } => s.commit_flips += 1,
            TraceEventKind::Restart { .. } => s.restarts += 1,
            TraceEventKind::RemoteTransfer { bytes, .. } => {
                s.remote_transfers += 1;
                s.remote_bytes += bytes;
            }
            TraceEventKind::RankFailure { .. } => s.rank_failures += 1,
            TraceEventKind::RecoveryEnd { .. } => s.recoveries += 1,
            TraceEventKind::RecoveryRetry { .. } => s.recovery_retries += 1,
            TraceEventKind::RecoveryVerify { .. } => s.recovery_verifies += 1,
            TraceEventKind::BarrierWait { .. } => s.barrier_waits += 1,
            TraceEventKind::StoreWrite { .. } => s.store_writes += 1,
            TraceEventKind::StoreCommit { .. } => s.store_commits += 1,
            TraceEventKind::KvOp { .. } => s.kv_ops += 1,
            TraceEventKind::KvCheckpointEnd { .. } => s.kv_checkpoints += 1,
            TraceEventKind::KvRecoverySeek { .. } => s.kv_recovery_seeks += 1,
            _ => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, rank: u64, chunk: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            rank,
            kind: TraceEventKind::ProtectionFault { chunk },
        }
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let mut tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit(1, TraceEventKind::ProtectionFault { chunk: 0 });
        assert!(tracer.events().is_empty());
        assert!(tracer.take().is_empty());
        assert!(!tracer.enabled());
    }

    #[test]
    fn tracer_records_in_order() {
        let mut tracer = Tracer::new(3);
        tracer.emit(10, TraceEventKind::ProtectionFault { chunk: 1 });
        tracer.emit(20, TraceEventKind::PrecopyWaste { chunk: 1 });
        assert_eq!(tracer.events().len(), 2);
        let first = tracer.events().as_ptr();
        let events = tracer.take();
        // The buffer moves out without a copy.
        assert_eq!(events.as_ptr(), first);
        assert_eq!(events[0].t_ns, 10);
        assert_eq!(events[0].rank, 3);
        assert_eq!(events[1].kind, TraceEventKind::PrecopyWaste { chunk: 1 });
        // Taken, the record is empty but still collecting.
        assert!(tracer.events().is_empty());
        tracer.emit(30, TraceEventKind::ProtectionFault { chunk: 2 });
        assert_eq!(tracer.events(), [ev(30, 3, 2)]);
    }

    #[test]
    fn merge_is_schedule_independent() {
        // Rank buffers as a serial run would fill them...
        let r0 = vec![ev(5, 0, 0), ev(15, 0, 1)];
        let r1 = vec![ev(5, 1, 0), ev(10, 1, 1)];
        let a = merge_ranked(vec![r0.clone(), r1.clone()]);
        // ...and in the opposite completion order: same merge.
        let b = merge_ranked(vec![r0, r1]);
        assert_eq!(a, b);
        let order: Vec<(u64, u64)> = a.iter().map(|e| (e.t_ns, e.rank)).collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (10, 1), (15, 0)]);
    }

    #[test]
    fn jsonl_round_trips() {
        let events = vec![
            ev(1, 0, 7),
            TraceEvent {
                t_ns: 2,
                rank: 1,
                kind: TraceEventKind::Restart {
                    strategy: "lazy".into(),
                    chunks: 0,
                },
            },
        ];
        let text = to_jsonl(&events);
        // Header line + one line per event.
        assert_eq!(text.lines().count(), 3);
        assert_eq!(
            text.lines().next().unwrap(),
            format!("{{\"schema_version\":{SCHEMA_VERSION}}}")
        );
        assert_eq!(read_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn legacy_v1_trace_upgrades_on_read() {
        // A headerless trace with a pre-`cost_ns` drain record, as a
        // schema-version-1 writer produced it.
        let v1 = "{\"t_ns\":5,\"rank\":0,\"kind\":{\"PrecopyDrain\":{\"chunk\":3,\"bytes\":64}}}\n";
        let events = read_jsonl(v1).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            TraceEventKind::PrecopyDrain {
                chunk: 3,
                bytes: 64,
                cost_ns: 0,
            }
        );
    }

    #[test]
    fn future_schema_version_is_rejected_with_typed_error() {
        // The second header does not fit a u32: narrowed, it would wrap
        // to 3 and load as a current trace.
        for found in [u64::from(SCHEMA_VERSION) + 1, (1 << 32) + 3] {
            let future = format!("{{\"schema_version\":{found}}}\n");
            let err = read_jsonl(&future).unwrap_err();
            assert_eq!(
                err,
                TraceReadError::Schema {
                    found,
                    supported: SCHEMA_VERSION,
                }
            );
        }
    }

    #[test]
    fn garbage_line_reports_its_line_number() {
        let text = format!("{}\nnot json\n", super::jsonl_header());
        match read_jsonl(&text).unwrap_err() {
            TraceReadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_line_is_a_parse_error_not_a_stack_overflow() {
        let text = format!("{}\n{}\n", super::jsonl_header(), "[".repeat(200_000));
        match read_jsonl(&text).unwrap_err() {
            TraceReadError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("recursion limit"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn retired_device_charge_kind_is_a_parse_error() {
        // A line as the last writer that knew the kind rendered it.
        let text = "{\"schema_version\":3}\n\
                    {\"t_ns\":0,\"rank\":0,\"kind\":{\"DeviceCharge\":{\"device\":\"pcm\",\"op\":\"write\",\"bytes\":4096,\"cost_ns\":1234}}}\n";
        match read_jsonl(text).unwrap_err() {
            TraceReadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_phase_pairs() {
        let events = vec![
            TraceEvent {
                t_ns: 1_500,
                rank: 0,
                kind: TraceEventKind::CoordinatedBegin { epoch: 1, dirty: 4 },
            },
            TraceEvent {
                t_ns: 2_500,
                rank: 0,
                kind: TraceEventKind::CoordinatedEnd {
                    epoch: 1,
                    copied_bytes: 4096,
                },
            },
        ];
        let json = to_chrome_trace(&events);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(items[1].get("ph").unwrap().as_str(), Some("E"));
        // 1500 ns = 1.500 µs.
        assert!(json.contains("\"ts\":1.500"));
    }

    #[test]
    fn recovery_ladder_renders_as_nested_spans_on_pid_1() {
        let events = vec![
            TraceEvent {
                t_ns: 100,
                rank: 2,
                kind: TraceEventKind::RecoveryStart {
                    node: 1,
                    source: "remote-buddy".into(),
                },
            },
            TraceEvent {
                t_ns: 150,
                rank: 2,
                kind: TraceEventKind::RecoveryVerify {
                    rank: 2,
                    chunk: 0,
                    bytes: 4096,
                },
            },
            TraceEvent {
                t_ns: 200,
                rank: 2,
                kind: TraceEventKind::RecoveryEnd {
                    node: 1,
                    bytes: 4096,
                    verified: 1,
                },
            },
        ];
        let json = to_chrome_trace(&events);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items.len(), 3);
        fn num(v: &serde_json::Value, key: &str) -> u64 {
            match v.get(key) {
                Some(serde::Value::Number(n)) => n.as_u64().unwrap(),
                other => panic!("expected number for {key}, got {other:?}"),
            }
        }
        for item in items {
            // The whole ladder lives on the recovery process lane.
            assert_eq!(num(item, "pid"), 1);
            assert_eq!(num(item, "tid"), 2);
        }
        // Begin/end share a name so viewers nest the verify instant
        // inside the span.
        assert_eq!(items[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(items[0].get("name").unwrap().as_str(), Some("recovery"));
        assert_eq!(items[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(items[2].get("ph").unwrap().as_str(), Some("E"));
        assert_eq!(items[2].get("name").unwrap().as_str(), Some("recovery"));
    }

    #[test]
    fn kv_events_round_trip_and_summarize() {
        let events = vec![
            TraceEvent {
                t_ns: 1,
                rank: 0,
                kind: TraceEventKind::KvOp {
                    op: "upsert".into(),
                    session: 2,
                    serial: 7,
                    hit: true,
                },
            },
            TraceEvent {
                t_ns: 2,
                rank: 0,
                kind: TraceEventKind::KvCheckpointBegin { token: 1 },
            },
            TraceEvent {
                t_ns: 3,
                rank: 0,
                kind: TraceEventKind::KvCheckpointEnd {
                    token: 1,
                    log_bytes: 96,
                    sessions: 2,
                },
            },
            TraceEvent {
                t_ns: 4,
                rank: 0,
                kind: TraceEventKind::KvRecoverySeek {
                    token: 1,
                    replayed: 3,
                    dropped: 1,
                },
            },
        ];
        let text = to_jsonl(&events);
        assert_eq!(read_jsonl(&text).unwrap(), events);
        let s = summarize(&events);
        assert_eq!(s.kv_ops, 1);
        assert_eq!(s.kv_checkpoints, 1);
        assert_eq!(s.kv_recovery_seeks, 1);
        assert_eq!(events[0].kind.name(), "kv_op");
        assert_eq!(events[3].kind.name(), "kv_recovery_seek");
    }

    #[test]
    fn version_2_traces_still_load() {
        // A v2 trace (pre-kv kinds): header declares 2, events carry
        // every v2 field. Loads without upgrades.
        let v2 = "{\"schema_version\":2}\n\
                  {\"t_ns\":5,\"rank\":0,\"kind\":{\"PrecopyDrain\":{\"chunk\":3,\"bytes\":64,\"cost_ns\":9}}}\n";
        let events = read_jsonl(v2).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            TraceEventKind::PrecopyDrain {
                chunk: 3,
                bytes: 64,
                cost_ns: 9,
            }
        );
    }

    #[test]
    fn version_3_traces_load_with_the_version_4_durations_at_zero() {
        // A v3 trace: a transfer and a failure without the durations
        // version 4 added, and a drain that keeps its own.
        let v3 = "{\"schema_version\":3}\n\
                  {\"t_ns\":5,\"rank\":0,\"kind\":{\"RemoteTransfer\":{\"bytes\":64,\"incremental\":true}}}\n\
                  {\"t_ns\":6,\"rank\":2,\"kind\":{\"RankFailure\":{\"iteration\":4,\"hard\":false}}}\n\
                  {\"t_ns\":7,\"rank\":0,\"kind\":{\"PrecopyDrain\":{\"chunk\":3,\"bytes\":64,\"cost_ns\":9}}}\n";
        let kinds: Vec<TraceEventKind> = (read_jsonl(v3).unwrap().into_iter())
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::RemoteTransfer {
                    bytes: 64,
                    incremental: true,
                    dur_ns: 0,
                },
                TraceEventKind::RankFailure {
                    iteration: 4,
                    hard: false,
                    restart_ns: 0,
                },
                TraceEventKind::PrecopyDrain {
                    chunk: 3,
                    bytes: 64,
                    cost_ns: 9,
                },
            ]
        );
        // A version-4 record keeps what it carries, and round-trips.
        let v4 = vec![TraceEvent {
            t_ns: 6,
            rank: 2,
            kind: TraceEventKind::RankFailure {
                iteration: 4,
                hard: true,
                restart_ns: 11,
            },
        }];
        assert_eq!(read_jsonl(&to_jsonl(&v4)).unwrap(), v4);
        // The reader knows no version past 4.
        assert_eq!(
            read_jsonl("{\"schema_version\":5}\n").unwrap_err(),
            TraceReadError::Schema {
                found: 5,
                supported: 4,
            }
        );
    }

    #[test]
    fn summary_counts_kinds() {
        let events = vec![
            ev(1, 0, 0),
            TraceEvent {
                t_ns: 2,
                rank: 0,
                kind: TraceEventKind::RemoteTransfer {
                    bytes: 100,
                    incremental: true,
                    dur_ns: 7,
                },
            },
            TraceEvent {
                t_ns: 3,
                rank: 0,
                kind: TraceEventKind::RemoteTransfer {
                    bytes: 50,
                    incremental: false,
                    dur_ns: 3,
                },
            },
        ];
        let s = summarize(&events);
        assert_eq!(s.events, 3);
        assert_eq!(s.faults, 1);
        assert_eq!(s.remote_transfers, 2);
        assert_eq!(s.remote_bytes, 150);
    }
}
