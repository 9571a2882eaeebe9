//! Pluggable durable-persistence backends for the checkpoint engine.
//!
//! The simulator's NVM device is process-volatile: bytes live in the
//! emulator's address space and die with it. A [`Persistence`] backend
//! gives every committed chunk a real on-media home (the `nvm-store`
//! crate ships the file-backed container), so recovery paths can be
//! exercised against media that actually survives the process.
//!
//! The engine mirrors its commit protocol into the backend:
//!
//! * [`Persistence::put_chunk`] stages one chunk's payload for the
//!   epoch in progress (the backend writes it to the *non-committed*
//!   shadow slot — never over live data) and returns the payload
//!   CRC-64 it stored, which the engine records as the chunk's
//!   checksum instead of running a second pass over the same bytes.
//!   That pass is the backend's because the engine cannot hand it a
//!   checksum through this signature: with a backend attached the
//!   engine's stage copies do not hash, while without one the engine
//!   takes the checksum itself as it copies a chunk into its slot;
//! * [`Persistence::commit`] makes everything staged durable in one
//!   atomic step (append a commit record + fsync);
//! * [`Persistence::recover`] scans media and returns the chunk table
//!   of the last durable commit — or a clean "no checkpoint";
//! * [`Persistence::read_chunk_into`] reads one committed payload into
//!   the caller's buffer — on restart, the chunk's NVM slot itself —
//!   and verifies its checksum there.
//!
//! Mirroring is cost-free in virtual time: the emulated NVM device has
//! already charged write time/bandwidth/wear for every shadow copy, so
//! attaching a backend never perturbs simulation results.

use nvm_metrics::{names, MetricsRegistry};
use nvm_paging::ChunkId;
use serde::{Deserialize, Serialize};

/// Errors surfaced by persistence backends.
#[non_exhaustive]
#[derive(Debug)]
pub enum PersistError {
    /// Underlying media I/O failure.
    Io(std::io::Error),
    /// On-media structure is malformed (bad magic, impossible length,
    /// truncated region, ...).
    Corrupt(String),
    /// A committed payload failed checksum verification.
    Checksum {
        /// Chunk whose payload is damaged.
        chunk: u64,
        /// CRC-64 recorded at commit.
        expected: u64,
        /// CRC-64 of the bytes actually on media.
        actual: u64,
    },
    /// The requested chunk is not in the recovered/committed table.
    NoSuchChunk(u64),
    /// The container's data region cannot fit the payload.
    OutOfSpace {
        /// Bytes requested (header + payload).
        requested: usize,
    },
}

nvm_emu::error_enum! {
    PersistError, f {
        wrap Io(std::io::Error) => "io",
        leaf PersistError::Corrupt(what) => write!(f, "corrupt container: {what}"),
        leaf PersistError::Checksum { chunk, expected, actual } => write!(
            f,
            "store checksum mismatch on chunk {chunk}: stored {expected:#x}, read {actual:#x}"
        ),
        leaf PersistError::NoSuchChunk(id) => write!(f, "no committed chunk {id} in store"),
        leaf PersistError::OutOfSpace { requested } => {
            write!(f, "store data region full: {requested} bytes requested")
        },
    }
}

/// Cumulative backend counters (exact, deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Payload + header + record bytes written to media.
    pub bytes_written: u64,
    /// fsync (durability barrier) calls.
    pub fsyncs: u64,
    /// Commit records appended.
    pub commits: u64,
    /// Committed payloads read back (restart / lazy access).
    pub payload_reads: u64,
    /// Bytes of payload read back.
    pub payload_read_bytes: u64,
    /// Recovery scans performed.
    pub recoveries: u64,
    /// Torn/invalid trailing records detected (and discarded) during
    /// recovery scans.
    pub torn_writes_detected: u64,
}

/// Field-exhaustive accumulation (no `..` in the destructuring): a
/// field added to [`StoreStats`] is a compile error here until the
/// merge handles it. Also provides [`nvm_metrics::MergeStats`] via its
/// blanket impl.
impl std::ops::AddAssign<&StoreStats> for StoreStats {
    fn add_assign(&mut self, rhs: &StoreStats) {
        let StoreStats {
            bytes_written,
            fsyncs,
            commits,
            payload_reads,
            payload_read_bytes,
            recoveries,
            torn_writes_detected,
        } = *rhs;
        self.bytes_written += bytes_written;
        self.fsyncs += fsyncs;
        self.commits += commits;
        self.payload_reads += payload_reads;
        self.payload_read_bytes += payload_read_bytes;
        self.recoveries += recoveries;
        self.torn_writes_detected += torn_writes_detected;
    }
}

impl StoreStats {
    /// Add these totals to the `store_*_total` counters of `reg` — the
    /// only path from a backend's totals into a registry, destructured
    /// as exhaustively as the merge above.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        let StoreStats {
            bytes_written,
            fsyncs,
            commits,
            payload_reads,
            payload_read_bytes,
            recoveries,
            torn_writes_detected,
        } = *self;
        reg.publish_totals([
            (names::STORE_BYTES_WRITTEN_TOTAL, bytes_written),
            (names::STORE_FSYNCS_TOTAL, fsyncs),
            (names::STORE_COMMITS_TOTAL, commits),
            (names::STORE_PAYLOAD_READS_TOTAL, payload_reads),
            (names::STORE_PAYLOAD_READ_BYTES_TOTAL, payload_read_bytes),
            (names::STORE_RECOVERIES_TOTAL, recoveries),
            (names::STORE_TORN_WRITES_TOTAL, torn_writes_detected),
        ]);
    }
}

/// One chunk in a recovered commit table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredChunk {
    /// Chunk id.
    pub id: ChunkId,
    /// Variable name registered at allocation.
    pub name: String,
    /// Logical chunk length in bytes.
    pub len: usize,
    /// Bytes stored on media (equals `len` for materialized payloads,
    /// [`SyntheticPayload::ENCODED_LEN`] for size-only runs).
    pub payload_len: usize,
    /// CRC-64 of the stored payload.
    pub checksum: u64,
    /// Epoch at which this payload was committed.
    pub epoch: u64,
}

/// Result of a recovery scan.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveredState {
    /// Process id recorded in the container superblock.
    pub process_id: u64,
    /// Last durably committed epoch; `None` on a virgin container (no
    /// commit record survived).
    pub epoch: Option<u64>,
    /// Chunk table of that epoch, sorted by id. Empty when `epoch` is
    /// `None`.
    pub chunks: Vec<RecoveredChunk>,
    /// Torn/invalid trailing records discarded by this scan.
    pub torn_writes_detected: u64,
}

/// A durable checkpoint backend. Implementations must never overwrite
/// data referenced by the last durable commit record (shadow slots +
/// append-only commit log), so a crash at any media operation leaves
/// the previous checkpoint recoverable.
pub trait Persistence: Send {
    /// Stage `payload` as chunk `id`'s data for `epoch`. Written to
    /// the chunk's non-committed shadow slot; becomes the recovery
    /// version only after the next [`Persistence::commit`]. Returns
    /// the CRC-64 of `payload` as stored with it — the value
    /// [`Persistence::read_chunk_into`] will verify against and
    /// [`RecoveredChunk::checksum`] will report.
    fn put_chunk(
        &mut self,
        id: ChunkId,
        name: &str,
        len: usize,
        epoch: u64,
        payload: &[u8],
    ) -> Result<u64, PersistError>;

    /// Remove a chunk from the staged table (durable at next commit).
    fn delete_chunk(&mut self, id: ChunkId);

    /// Durably commit everything staged: one atomic append + fsync.
    fn commit(&mut self, epoch: u64) -> Result<(), PersistError>;

    /// Scan media and return the last durable commit's chunk table.
    fn recover(&mut self) -> Result<RecoveredState, PersistError>;

    /// Stored length in bytes of `id`'s committed payload
    /// ([`RecoveredChunk::payload_len`]).
    fn payload_len(&self, id: ChunkId) -> Result<usize, PersistError>;

    /// Read `id`'s committed payload into `buf` and verify its
    /// checksum where it landed. `buf` must be exactly
    /// [`Persistence::payload_len`] bytes: any other length is
    /// [`PersistError::Corrupt`]. On an error `buf` holds nothing
    /// usable.
    fn read_chunk_into(&mut self, id: ChunkId, buf: &mut [u8]) -> Result<(), PersistError>;

    /// [`Persistence::read_chunk_into`] a buffer allocated for it.
    fn read_chunk(&mut self, id: ChunkId) -> Result<Vec<u8>, PersistError> {
        let mut payload = vec![0u8; self.payload_len(id)?];
        self.read_chunk_into(id, &mut payload)?;
        Ok(payload)
    }

    /// Cumulative counters.
    fn stats(&self) -> StoreStats;
}

/// Payload stored for a chunk in size-only ([`Synthetic`]) runs: a
/// fixed-size descriptor standing in for the real bytes, so crash and
/// recovery tests can still verify bit-for-bit identity of what is on
/// media without materializing hundreds of megabytes.
///
/// [`Synthetic`]: nvm_heap::Materialization::Synthetic
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyntheticPayload {
    /// Chunk id.
    pub id: u64,
    /// Epoch the descriptor was written for.
    pub epoch: u64,
    /// Logical chunk length the descriptor stands in for.
    pub len: u64,
}

impl SyntheticPayload {
    /// Encoded descriptor size in bytes.
    pub const ENCODED_LEN: usize = 32;

    const MAGIC: [u8; 8] = *b"NVMSYNTH";

    /// Serialize to the fixed 32-byte on-media form.
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[..8].copy_from_slice(&Self::MAGIC);
        out[8..16].copy_from_slice(&self.id.to_le_bytes());
        out[16..24].copy_from_slice(&self.epoch.to_le_bytes());
        out[24..32].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Parse an on-media descriptor.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() != Self::ENCODED_LEN || bytes[..8] != Self::MAGIC {
            return Err(PersistError::Corrupt(
                "synthetic payload descriptor malformed".to_string(),
            ));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte slice"));
        Ok(SyntheticPayload {
            id: word(8),
            epoch: word(16),
            len: word(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_metrics::MergeStats;

    #[test]
    fn synthetic_payload_round_trips() {
        let p = SyntheticPayload {
            id: 7,
            epoch: 3,
            len: 400 << 20,
        };
        let enc = p.encode();
        assert_eq!(enc.len(), SyntheticPayload::ENCODED_LEN);
        assert_eq!(SyntheticPayload::decode(&enc).unwrap(), p);
        // Corruption is rejected.
        let mut bad = enc;
        bad[0] ^= 0xFF;
        assert!(matches!(
            SyntheticPayload::decode(&bad),
            Err(PersistError::Corrupt(_))
        ));
        assert!(SyntheticPayload::decode(&enc[..16]).is_err());
    }

    #[test]
    fn store_stats_merge_is_exact() {
        let a = StoreStats {
            bytes_written: 10,
            fsyncs: 1,
            commits: 1,
            payload_reads: 2,
            payload_read_bytes: 64,
            recoveries: 1,
            torn_writes_detected: 0,
        };
        let b = StoreStats {
            bytes_written: 5,
            torn_writes_detected: 2,
            ..StoreStats::default()
        };
        let m = StoreStats::merged([&a, &b]);
        assert_eq!(m.bytes_written, 15);
        assert_eq!(m.payload_read_bytes, 64);
        assert_eq!(m.torn_writes_detected, 2);
    }

    #[test]
    fn publish_names_every_field() {
        let mut reg = MetricsRegistry::new();
        StoreStats::default().publish(&mut reg);
        assert!(reg.is_empty(), "zero totals publish no key");
        StoreStats {
            bytes_written: 1,
            fsyncs: 2,
            commits: 3,
            payload_reads: 4,
            payload_read_bytes: 5,
            recoveries: 6,
            torn_writes_detected: 7,
        }
        .publish(&mut reg);
        assert_eq!(
            reg.snapshot().counters,
            [
                (names::STORE_BYTES_WRITTEN_TOTAL, 1),
                (names::STORE_FSYNCS_TOTAL, 2),
                (names::STORE_COMMITS_TOTAL, 3),
                (names::STORE_PAYLOAD_READS_TOTAL, 4),
                (names::STORE_PAYLOAD_READ_BYTES_TOTAL, 5),
                (names::STORE_RECOVERIES_TOTAL, 6),
                (names::STORE_TORN_WRITES_TOTAL, 7),
            ]
            .map(|(names::Counter(name), v)| (name.to_string(), v))
            .into()
        );
    }

    #[test]
    fn persist_error_displays_and_chains() {
        let e = PersistError::from(std::io::Error::other("boom"));
        assert!(e.to_string().starts_with("io:"));
        assert!(std::error::Error::source(&e).is_some());
        let c = PersistError::Checksum {
            chunk: 3,
            expected: 1,
            actual: 2,
        };
        assert!(c.to_string().contains("chunk 3"));
    }
}
