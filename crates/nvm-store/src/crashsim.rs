//! Deterministic crash-injection harness.
//!
//! The harness runs a scripted checkpoint history against a
//! [`Container`] on [`RecordingMedia`], which logs every media
//! operation. A [`CrashPoint`] then deterministically replays a
//! *surviving image* — the bytes that would be on media if the process
//! died at that operation under one of three failure models:
//!
//! * [`CrashMode::Keep`] — every write issued before the crash reached
//!   media (an orderly kill, or hardware that never reorders).
//! * [`CrashMode::Drop`] — worst-case volatile caching: only writes
//!   covered by a completed fsync survive; everything after the last
//!   durability barrier is lost.
//! * [`CrashMode::Torn`] — the write in flight at the crash reaches
//!   media only as a prefix (a torn sector/page sequence).
//!
//! Recovery is then run on the image and checked against an **oracle**
//! recorded during the original run: after every commit the harness
//! snapshots the exact payload bytes of every live chunk
//! ([`CommitMark`]). The invariant under test — the whole point of the
//! shadow-slot + append-only-record design — is:
//!
//! > Recovery always yields exactly the last durably committed epoch,
//! > bit-for-bit, or a clean "no checkpoint" on a container whose
//! > superblock never became durable. Never a torn hybrid, never a
//! > stale payload under a new epoch, never an error.
//!
//! [`enumerate_points`] generates the sweep (every operation boundary
//! in all modes, plus every torn prefix of every write), so a test can
//! be *exhaustive* for a small run rather than sampled.

use crate::container::Container;
use crate::media::{Media, MemMedia};
use nvm_chkpt::persist::{PersistError, Persistence};
use nvm_paging::ChunkId;
use std::collections::BTreeMap;

/// One recorded media operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpRecord {
    /// A `write_at` with its full payload.
    Write {
        /// Media offset written.
        offset: u64,
        /// Bytes written.
        data: Vec<u8>,
    },
    /// A durability barrier.
    Fsync,
}

/// Media that applies operations to an in-memory image while recording
/// them for later crash replay.
#[derive(Clone, Debug, Default)]
pub struct RecordingMedia {
    mem: MemMedia,
    ops: Vec<OpRecord>,
}

impl RecordingMedia {
    /// Fresh, empty recording media.
    pub fn new() -> Self {
        RecordingMedia::default()
    }

    /// Recording media that starts as `image`, durably: the image is
    /// its first write and an fsync, so every crash point past those
    /// two operations keeps it.
    pub fn seeded(image: &MemMedia) -> Self {
        let mut media = RecordingMedia::new();
        media.write_at(0, &[image.bytes()]).expect("mem write");
        media.fsync().expect("mem fsync");
        media
    }

    /// The operations recorded so far.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }
}

impl Media for RecordingMedia {
    fn write_at(&mut self, offset: u64, parts: &[&[u8]]) -> Result<(), PersistError> {
        // One logical write, one record: a crash tears the
        // concatenation, never between the parts.
        self.ops.push(OpRecord::Write {
            offset,
            data: parts.concat(),
        });
        self.mem.write_at(offset, parts)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, PersistError> {
        self.mem.read_at(offset, buf)
    }

    fn fsync(&mut self) -> Result<(), PersistError> {
        self.ops.push(OpRecord::Fsync);
        self.mem.fsync()
    }

    fn len(&self) -> u64 {
        self.mem.len()
    }
}

/// What survives of the operation at the crash instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// All operations before `at_op` reached media intact.
    Keep,
    /// Only operations covered by a completed fsync survive.
    Drop,
    /// Operations before `at_op` survive; the write *at* `at_op`
    /// reaches media as its first `keep` bytes only. (`keep` is
    /// clamped to a strict prefix; on a non-write op this degrades to
    /// [`CrashMode::Keep`].)
    Torn {
        /// Bytes of the in-flight write that reached media.
        keep: usize,
    },
}

/// A deterministic crash instant: die at operation index `at_op`
/// (0 = before anything) under `mode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Operation index the crash lands on (`0..=ops.len()`).
    pub at_op: usize,
    /// Failure model.
    pub mode: CrashMode,
}

impl CrashPoint {
    /// The crash point that `at_sel`, `mode_sel` and `keep` select in
    /// `ops`: at operation `at_sel % (ops.len() + 1)`, under `Keep`,
    /// `Drop` or `Torn { keep }` by `mode_sel % 3`. Only a write can
    /// tear: `Torn` on an fsync or past the end is `Keep`.
    pub fn pick(ops: &[OpRecord], at_sel: usize, mode_sel: u8, keep: usize) -> CrashPoint {
        let at_op = at_sel % (ops.len() + 1);
        let mode = match mode_sel % 3 {
            0 => CrashMode::Keep,
            1 => CrashMode::Drop,
            _ if matches!(ops.get(at_op), Some(OpRecord::Write { .. })) => CrashMode::Torn { keep },
            _ => CrashMode::Keep,
        };
        CrashPoint { at_op, mode }
    }
}

/// Replay `ops` into the byte image a crash at `point` would leave.
pub fn surviving_image(ops: &[OpRecord], point: &CrashPoint) -> MemMedia {
    let mut mem = MemMedia::new();
    let upto = point.at_op.min(ops.len());
    match point.mode {
        CrashMode::Keep => {
            for op in &ops[..upto] {
                apply(&mut mem, op);
            }
        }
        CrashMode::Torn { keep } => {
            for op in &ops[..upto] {
                apply(&mut mem, op);
            }
            if let Some(OpRecord::Write { offset, data }) = ops.get(point.at_op) {
                // Strict prefix: a "torn" write that lands whole is a
                // completed write (that is `Keep` at `at_op + 1`).
                let keep = keep.min(data.len().saturating_sub(1));
                mem.write_at(*offset, &[&data[..keep]]).expect("mem write");
            }
        }
        CrashMode::Drop => {
            // An fsync at index j makes every write with index < j
            // durable. Worst case loses everything after the last
            // completed barrier.
            let last_sync = ops[..upto]
                .iter()
                .rposition(|op| matches!(op, OpRecord::Fsync));
            if let Some(sync) = last_sync {
                for op in &ops[..sync] {
                    apply(&mut mem, op);
                }
            }
        }
    }
    mem
}

fn apply(mem: &mut MemMedia, op: &OpRecord) {
    if let OpRecord::Write { offset, data } = op {
        mem.write_at(*offset, &[data]).expect("mem write");
    }
}

/// Oracle entry recorded immediately after one commit of the driver
/// run.
#[derive(Clone, Debug)]
pub struct CommitMark {
    /// Epoch the commit recorded.
    pub epoch: u64,
    /// Number of media operations recorded once the commit returned.
    /// The commit-record write is op `ops_after - 2`; its fsync is op
    /// `ops_after - 1`. Private, so that which commit a crash point
    /// leaves durable is [`expected_mark`]'s alone to say.
    ops_after: usize,
    /// Exact payload bytes of every live chunk at this commit, sorted
    /// by chunk id.
    pub expected: Vec<(u64, Vec<u8>)>,
}

impl CommitMark {
    /// The mark of a commit of `epoch` that returned after `ops_after` media operations.
    pub fn new(epoch: u64, ops_after: usize, expected: Vec<(u64, Vec<u8>)>) -> Self {
        CommitMark {
            epoch,
            ops_after,
            expected,
        }
    }
}

/// A completed driver run: the media operation log plus the oracle.
#[derive(Clone, Debug)]
pub struct CrashRun {
    /// Process id the container was formatted with.
    pub process_id: u64,
    /// Data-region capacity the container was formatted with.
    pub data_capacity: usize,
    /// Every media operation, in order.
    pub ops: Vec<OpRecord>,
    /// One mark per commit, in commit order.
    pub marks: Vec<CommitMark>,
}

/// Which commit (if any) recovery must find after a crash at `point`.
///
/// A commit's record write is durable under `Keep`/`Torn` once the
/// crash lands at or after the following fsync op (`at_op >=
/// ops_after - 1`; tearing the record itself fails its CRC and is
/// discarded), and under `Drop` only once the fsync *completed*
/// (`at_op >= ops_after`).
pub fn expected_mark<'a>(marks: &'a [CommitMark], point: &CrashPoint) -> Option<&'a CommitMark> {
    marks
        .iter()
        .filter(|m| match point.mode {
            CrashMode::Keep | CrashMode::Torn { .. } => point.at_op >= m.ops_after - 1,
            CrashMode::Drop => point.at_op >= m.ops_after,
        })
        .max_by_key(|m| m.ops_after)
}

/// Deterministic payload pattern for chunk `id` at `epoch`.
pub fn pattern(id: u64, epoch: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (id as u8)
                .wrapping_mul(31)
                .wrapping_add((epoch as u8).wrapping_mul(7))
                .wrapping_add(i as u8)
        })
        .collect()
}

/// One scripted epoch: chunk puts as `(id, len)` pairs, then ids to
/// delete first.
type EpochScript = (&'static [(u64, usize)], &'static [u64]);

const STANDARD_SCRIPT: [EpochScript; 4] = [
    (&[(1, 64), (2, 300), (3, 100)], &[]),
    (&[(1, 64), (3, 5000)], &[]), // chunk 3 grows: realloc
    (&[(1, 64)], &[2]),           // chunk 2 deleted: deferred free
    (&[(3, 200), (4, 128)], &[]), // shrink + late creation
];

/// Build the standard small-but-complete driver run the sweeps crash:
/// four epochs over three-then-three chunks, exercising update in
/// place (slot alternation), growth (extent realloc), deletion
/// (deferred free), shrink, and late chunk creation.
pub fn standard_run() -> CrashRun {
    let process_id = 11;
    let data_capacity = 1 << 20;
    let mut store =
        Container::open(RecordingMedia::new(), process_id, data_capacity).expect("open");
    let mut live: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut marks = Vec::new();

    for (epoch, (puts, deletes)) in STANDARD_SCRIPT.iter().enumerate() {
        let epoch = epoch as u64;
        for id in *deletes {
            store.delete_chunk(ChunkId(*id));
            live.remove(id);
        }
        for (id, len) in *puts {
            let payload = pattern(*id, epoch, *len);
            store
                .put_chunk(ChunkId(*id), &format!("chunk{id}"), *len, epoch, &payload)
                .expect("put");
            live.insert(*id, payload);
        }
        store.commit(epoch).expect("commit");
        let expected = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        marks.push(CommitMark::new(epoch, store.media().ops().len(), expected));
    }
    CrashRun {
        process_id,
        data_capacity,
        ops: store.into_media().ops,
        marks,
    }
}

/// The operation-boundary sweep: every `at_op` in `Keep` and `Drop`
/// mode, plus representative torn prefixes (first byte, midpoint, all
/// but the last byte) of every write.
pub fn enumerate_points(ops: &[OpRecord]) -> Vec<CrashPoint> {
    let mut points = Vec::new();
    for at_op in 0..=ops.len() {
        points.push(CrashPoint {
            at_op,
            mode: CrashMode::Keep,
        });
        points.push(CrashPoint {
            at_op,
            mode: CrashMode::Drop,
        });
    }
    for (at_op, op) in ops.iter().enumerate() {
        if let OpRecord::Write { data, .. } = op {
            if data.len() < 2 {
                continue;
            }
            let keeps: std::collections::BTreeSet<usize> =
                [1, data.len() / 2, data.len() - 1].into();
            for keep in keeps {
                points.push(CrashPoint {
                    at_op,
                    mode: CrashMode::Torn { keep },
                });
            }
        }
    }
    points
}

/// The byte-exhaustive sweep: [`enumerate_points`] plus a torn prefix
/// at *every* byte boundary of every write.
pub fn enumerate_points_exhaustive(ops: &[OpRecord]) -> Vec<CrashPoint> {
    let mut points = enumerate_points(ops);
    for (at_op, op) in ops.iter().enumerate() {
        if let OpRecord::Write { data, .. } = op {
            for keep in 0..data.len() {
                points.push(CrashPoint {
                    at_op,
                    mode: CrashMode::Torn { keep },
                });
            }
        }
    }
    points
}

/// Crash the run at `point`, recover, and assert the invariant:
/// recovery yields exactly the oracle's last durable commit —
/// bit-for-bit payloads — or a clean "no checkpoint". Panics with a
/// point-identifying message on any violation.
pub fn check_crash_point(run: &CrashRun, point: &CrashPoint) {
    let image = surviving_image(&run.ops, point);
    let mut store = Container::open(image, run.process_id, run.data_capacity)
        .unwrap_or_else(|e| panic!("recovery must never error at {point:?}: {e}"));
    let state = store.recover().expect("recover");
    let mark = expected_mark(&run.marks, point);
    assert_eq!(
        state.epoch,
        mark.map(|m| m.epoch),
        "recovered epoch mismatch at {point:?}"
    );
    let Some(mark) = mark else {
        assert!(
            state.chunks.is_empty(),
            "no-checkpoint recovery must list no chunks at {point:?}"
        );
        return;
    };
    assert_eq!(
        state.chunks.iter().map(|c| c.id.0).collect::<Vec<_>>(),
        mark.expected.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        "recovered chunk set mismatch at {point:?}"
    );
    for (id, bytes) in &mark.expected {
        let got = store
            .read_chunk(ChunkId(*id))
            .unwrap_or_else(|e| panic!("chunk {id} unreadable at {point:?}: {e}"));
        assert_eq!(
            &got, bytes,
            "chunk {id} payload not bit-for-bit at {point:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_run_shape() {
        let run = standard_run();
        assert_eq!(run.marks.len(), 4);
        assert_eq!(run.marks[3].epoch, 3);
        // Final table: chunks 1, 3, 4 (2 was deleted).
        let ids: Vec<u64> = run.marks[3].expected.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
        // Each commit = one record write + one fsync after the puts.
        assert!(run.ops.len() > 12);
        assert!(matches!(
            run.ops[run.marks[3].ops_after - 1],
            OpRecord::Fsync
        ));
    }

    #[test]
    fn each_slot_write_is_one_record_of_header_then_payload() {
        use crate::format::SlotHeader;
        use nvm_chkpt::checksum::crc64;
        let run = standard_run();
        // The count the one-buffer `put_chunk` recorded: format write +
        // fsync, then per epoch its puts, the record and the fsync. A
        // put that reached media in two writes would add crash images
        // (and a torn point between header and payload) to every sweep.
        assert_eq!(run.ops.len(), 18);
        let mut next = 2;
        for (epoch, (puts, _)) in STANDARD_SCRIPT.iter().enumerate() {
            for (id, len) in *puts {
                let payload = pattern(*id, epoch as u64, *len);
                let header = SlotHeader {
                    id: *id,
                    epoch: epoch as u64,
                    payload_len: *len as u64,
                    payload_crc: crc64(&payload),
                };
                let OpRecord::Write { data, .. } = &run.ops[next] else {
                    panic!("op {next} is not the slot write of chunk {id}");
                };
                assert_eq!(data, &[&header.encode()[..], &payload].concat());
                next += 1;
            }
            assert!(matches!(run.ops[next], OpRecord::Write { .. }), "record");
            assert_eq!(run.ops[next + 1], OpRecord::Fsync);
            next += 2;
            assert_eq!(next, run.marks[epoch].ops_after);
        }
        assert_eq!(next, run.ops.len());
    }

    #[test]
    fn keep_mode_before_first_commit_recovers_nothing() {
        let run = standard_run();
        // Op 0/1 are the superblock format; first slot write is op 2.
        for at_op in 0..run.marks[0].ops_after - 1 {
            check_crash_point(
                &run,
                &CrashPoint {
                    at_op,
                    mode: CrashMode::Keep,
                },
            );
        }
    }

    #[test]
    fn full_image_recovers_final_epoch() {
        let run = standard_run();
        for mode in [CrashMode::Keep, CrashMode::Drop] {
            let point = CrashPoint {
                at_op: run.ops.len(),
                mode,
            };
            assert_eq!(expected_mark(&run.marks, &point).map(|m| m.epoch), Some(3));
            check_crash_point(&run, &point);
        }
    }

    #[test]
    fn drop_mode_is_stricter_than_keep() {
        let run = standard_run();
        // Crash exactly on a commit's fsync: Keep already sees the
        // record (it was written), Drop does not (barrier incomplete).
        let m = &run.marks[1];
        let at_op = m.ops_after - 1;
        let kept = expected_mark(
            &run.marks,
            &CrashPoint {
                at_op,
                mode: CrashMode::Keep,
            },
        );
        let dropped = expected_mark(
            &run.marks,
            &CrashPoint {
                at_op,
                mode: CrashMode::Drop,
            },
        );
        assert_eq!(kept.map(|x| x.epoch), Some(1));
        assert_eq!(dropped.map(|x| x.epoch), Some(0));
    }

    #[test]
    fn torn_commit_record_is_detected_and_discarded() {
        let run = standard_run();
        let m = &run.marks[2];
        let record_op = m.ops_after - 2;
        let OpRecord::Write { data, .. } = &run.ops[record_op] else {
            panic!("expected commit-record write");
        };
        // Tear the record keeping its magic: recovery must fall back
        // to the previous epoch and count the torn write.
        let point = CrashPoint {
            at_op: record_op,
            mode: CrashMode::Torn {
                keep: data.len() / 2,
            },
        };
        check_crash_point(&run, &point);
        let mut store = Container::open(
            surviving_image(&run.ops, &point),
            run.process_id,
            run.data_capacity,
        )
        .unwrap();
        let state = store.recover().unwrap();
        assert_eq!(state.epoch, Some(1));
        assert_eq!(state.torn_writes_detected, 1);
    }

    #[test]
    fn boundary_sweep_holds_everywhere() {
        let run = standard_run();
        for point in enumerate_points(&run.ops) {
            check_crash_point(&run, &point);
        }
    }

    #[test]
    fn seeded_media_keeps_its_image_at_every_crash_point_past_the_seed() {
        let run = standard_run();
        let end = CrashPoint::pick(&run.ops, run.ops.len(), 0, 0);
        let seed = RecordingMedia::seeded(&surviving_image(&run.ops, &end));
        let mut store = Container::open(seed, 0, 0).unwrap();
        store
            .put_chunk(ChunkId(1), "chunk1", 8, 4, &[4; 8])
            .unwrap();
        store.commit(4).unwrap();
        let ops = store.into_media().ops;
        for at_op in 2..=ops.len() {
            for mode in [CrashMode::Keep, CrashMode::Drop] {
                let image = surviving_image(&ops, &CrashPoint { at_op, mode });
                let mut store = Container::open(image, 0, 0).unwrap();
                let epoch = store.recover().unwrap().epoch;
                assert!(matches!(epoch, Some(3 | 4)), "{at_op} {mode:?}: {epoch:?}");
            }
        }
    }

    #[test]
    fn recording_media_records_what_it_applies() {
        let mut m = RecordingMedia::new();
        m.write_at(0, &[b"abc"]).unwrap();
        m.fsync().unwrap();
        assert_eq!(m.ops().len(), 2);
        let mut buf = [0u8; 3];
        assert_eq!(m.read_at(0, &mut buf).unwrap(), 3);
        assert_eq!(&buf, b"abc");
    }
}
