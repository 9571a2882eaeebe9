//! On-media format: superblock, slot headers, commit records.
//!
//! Container layout (one file per process):
//!
//! ```text
//! +------------+----------------------------+---------------------+
//! | superblock |         data region        |     commit log      |
//! |  (64 B)    |  slot pairs via the arena  |  append-only records|
//! +------------+----------------------------+---------------------+
//! 0            64                           64 + data_capacity ...
//! ```
//!
//! * The **superblock** is written once at creation and never touched
//!   again.
//! * The **data region** holds per-chunk shadow slot pairs. Each slot
//!   is a 48-byte header (chunk id, epoch, payload length, payload
//!   CRC-64, header CRC-64) followed by the payload, written in a
//!   single media write. Writes only ever target the slot *not*
//!   referenced by the last durable commit record.
//! * The **commit log** is append-only. A record carries the epoch and
//!   the full chunk table (JSON, sorted by id) and is terminated by a
//!   CRC-64 over everything before it, so a torn append is detected
//!   and discarded; the last fully valid record *is* the checkpoint.
//!
//! Every checksum here is the engine's own [`crc64`]: one function
//! across commit, restart, and store. For payloads it is also one
//! *pass* — the `payload_crc` a slot header carries is computed once,
//! by `put_chunk`, and handed back to the engine, which records that
//! same value as the chunk's commit checksum instead of hashing the
//! bytes again. Header and record CRCs cover tens of bytes and are
//! computed where they are written.

use nvm_chkpt::checksum::crc64;
use nvm_chkpt::persist::PersistError;
use serde::{Deserialize, Serialize};

/// Format version stamped in the superblock.
pub const FORMAT_VERSION: u32 = 1;
/// Superblock size (fixed, at media offset 0).
pub const SB_LEN: usize = 64;
/// Slot header size preceding each payload.
pub const SLOT_HEADER_LEN: usize = 48;
/// Commit-record fixed header size (magic + epoch + table length).
pub const REC_HEADER_LEN: usize = 20;
/// Trailing record CRC size.
pub const REC_TRAILER_LEN: usize = 8;
/// Upper bound on a serialized chunk table (sanity check against
/// garbage lengths in torn records).
pub const MAX_TABLE_LEN: u32 = 16 << 20;

const SB_MAGIC: [u8; 8] = *b"NVMSTOR1";
const SLOT_MAGIC: [u8; 8] = *b"NVMSLOT1";
const REC_MAGIC: [u8; 8] = *b"NVMCMT1\0";

fn le64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
}

fn le32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4-byte slice"))
}

/// Container identity, written once at creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Owning process (rank) id.
    pub process_id: u64,
    /// Bytes reserved for the data region (slot pairs).
    pub data_capacity: u64,
}

impl Superblock {
    /// Media offset where the data region starts.
    pub fn data_start(&self) -> u64 {
        SB_LEN as u64
    }

    /// Media offset where the commit log starts.
    pub fn log_start(&self) -> u64 {
        SB_LEN as u64 + self.data_capacity
    }

    /// Serialize to the fixed 64-byte on-media form.
    pub fn encode(&self) -> [u8; SB_LEN] {
        let mut out = [0u8; SB_LEN];
        out[..8].copy_from_slice(&SB_MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        out[16..24].copy_from_slice(&self.process_id.to_le_bytes());
        out[24..32].copy_from_slice(&self.data_capacity.to_le_bytes());
        let crc = crc64(&out[..40]);
        out[40..48].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a superblock; `None` when the bytes are not a valid one
    /// (virgin or torn container — recovery reports "no checkpoint").
    pub fn decode(buf: &[u8]) -> Option<Superblock> {
        if buf.len() < SB_LEN || buf[..8] != SB_MAGIC || le32(buf, 8) != FORMAT_VERSION {
            return None;
        }
        if le64(buf, 40) != crc64(&buf[..40]) {
            return None;
        }
        Some(Superblock {
            process_id: le64(buf, 16),
            data_capacity: le64(buf, 24),
        })
    }
}

/// Header written immediately before each slot payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotHeader {
    /// Chunk id.
    pub id: u64,
    /// Epoch the payload was staged for.
    pub epoch: u64,
    /// Payload bytes following this header.
    pub payload_len: u64,
    /// CRC-64 of the payload.
    pub payload_crc: u64,
}

impl SlotHeader {
    /// Serialize to the fixed 48-byte on-media form.
    pub fn encode(&self) -> [u8; SLOT_HEADER_LEN] {
        let mut out = [0u8; SLOT_HEADER_LEN];
        out[..8].copy_from_slice(&SLOT_MAGIC);
        out[8..16].copy_from_slice(&self.id.to_le_bytes());
        out[16..24].copy_from_slice(&self.epoch.to_le_bytes());
        out[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        out[32..40].copy_from_slice(&self.payload_crc.to_le_bytes());
        let crc = crc64(&out[..40]);
        out[40..48].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse a slot header, rejecting damage.
    pub fn decode(buf: &[u8]) -> Result<SlotHeader, PersistError> {
        if buf.len() < SLOT_HEADER_LEN || buf[..8] != SLOT_MAGIC {
            return Err(PersistError::Corrupt("slot header magic".to_string()));
        }
        if le64(buf, 40) != crc64(&buf[..40]) {
            return Err(PersistError::Corrupt("slot header crc".to_string()));
        }
        Ok(SlotHeader {
            id: le64(buf, 8),
            epoch: le64(buf, 16),
            payload_len: le64(buf, 24),
            payload_crc: le64(buf, 32),
        })
    }
}

/// One chunk in a commit record's table. Offsets are relative to the
/// data region so the arena can re-reserve them directly on recovery.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Chunk id.
    pub id: u64,
    /// Variable name.
    pub name: String,
    /// Logical chunk length.
    pub len: u64,
    /// Stored payload length.
    pub payload_len: u64,
    /// Which slot of the pair holds the committed payload (0/1).
    pub slot: u8,
    /// Data-region-relative offset of the committed slot (header).
    pub offset: u64,
    /// Reserved extent length of the committed slot.
    pub cap: u64,
    /// CRC-64 of the payload.
    pub crc: u64,
    /// Epoch the payload was written (carried-over chunks keep the
    /// epoch of their last actual write).
    pub epoch: u64,
    /// The other slot's reserved extent (offset, len), if allocated —
    /// recorded so recovery re-reserves it and nothing leaks.
    pub spare: Option<(u64, u64)>,
}

/// Outcome of parsing the commit log at one position.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordParse {
    /// No record here (end of log: zeros, garbage, or too few bytes
    /// for even a header).
    End,
    /// A record was started but is incomplete or fails its CRC — a
    /// torn append. Recovery discards it and stops scanning.
    Torn,
    /// A fully valid record.
    Valid {
        /// Committed epoch.
        epoch: u64,
        /// Chunk table, sorted by id.
        table: Vec<TableEntry>,
        /// Total encoded record length (to advance the scan).
        total_len: usize,
    },
}

/// Encode a commit record for `epoch` over an id-sorted chunk table.
pub fn encode_record(epoch: u64, table: &[TableEntry]) -> Vec<u8> {
    let json = serde_json::to_vec(table).expect("chunk table serializes");
    assert!(json.len() <= MAX_TABLE_LEN as usize, "table too large");
    let mut out = Vec::with_capacity(REC_HEADER_LEN + json.len() + REC_TRAILER_LEN);
    out.extend_from_slice(&REC_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(&json);
    let crc = crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse one commit record at the start of `buf` (which runs to the
/// end of media).
pub fn decode_record(buf: &[u8]) -> RecordParse {
    if buf.len() < 8 || buf[..8] != REC_MAGIC {
        // Not enough bytes even to carry the magic, or the magic is
        // absent entirely: clean end of the log. A torn write that
        // kept fewer than 8 magic bytes lands here too, which is
        // indistinguishable from (and equivalent to) never writing.
        return RecordParse::End;
    }
    if buf.len() < REC_HEADER_LEN {
        // Magic present but the fixed header is cut short: torn.
        return RecordParse::Torn;
    }
    let epoch = le64(buf, 8);
    let table_len = le32(buf, 16);
    if table_len > MAX_TABLE_LEN {
        return RecordParse::Torn;
    }
    let total_len = REC_HEADER_LEN + table_len as usize + REC_TRAILER_LEN;
    if buf.len() < total_len {
        return RecordParse::Torn;
    }
    let body_end = REC_HEADER_LEN + table_len as usize;
    if le64(buf, body_end) != crc64(&buf[..body_end]) {
        return RecordParse::Torn;
    }
    match serde_json::from_slice::<Vec<TableEntry>>(&buf[REC_HEADER_LEN..body_end]) {
        Ok(table) => RecordParse::Valid {
            epoch,
            table,
            total_len,
        },
        // CRC passed but the JSON does not parse: a format bug rather
        // than a torn write, but recovery still must not advance.
        Err(_) => RecordParse::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> TableEntry {
        TableEntry {
            id,
            name: format!("chunk{id}"),
            len: 4096,
            payload_len: 4096,
            slot: 1,
            offset: 8192 * id,
            cap: 4160,
            crc: 0xDEAD_BEEF ^ id,
            epoch: 2,
            spare: Some((8192 * id + 4160, 4160)),
        }
    }

    #[test]
    fn superblock_round_trips_and_rejects_damage() {
        let sb = Superblock {
            process_id: 42,
            data_capacity: 1 << 20,
        };
        let enc = sb.encode();
        assert_eq!(Superblock::decode(&enc), Some(sb));
        assert_eq!(sb.log_start(), 64 + (1 << 20));
        let mut bad = enc;
        bad[30] ^= 1;
        assert_eq!(Superblock::decode(&bad), None);
        assert_eq!(Superblock::decode(&enc[..10]), None);
    }

    #[test]
    fn slot_header_round_trips_and_rejects_damage() {
        let h = SlotHeader {
            id: 7,
            epoch: 3,
            payload_len: 4096,
            payload_crc: 0xABCD,
        };
        let enc = h.encode();
        assert_eq!(SlotHeader::decode(&enc).unwrap(), h);
        let mut bad = enc;
        bad[20] ^= 1;
        assert!(SlotHeader::decode(&bad).is_err());
    }

    #[test]
    fn record_round_trips() {
        let table = vec![entry(1), entry(2)];
        let enc = encode_record(5, &table);
        match decode_record(&enc) {
            RecordParse::Valid {
                epoch,
                table: t,
                total_len,
            } => {
                assert_eq!(epoch, 5);
                assert_eq!(t, table);
                assert_eq!(total_len, enc.len());
            }
            other => panic!("expected valid record, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_record_is_torn_or_end() {
        let enc = encode_record(1, &[entry(9)]);
        for keep in 0..enc.len() {
            let got = decode_record(&enc[..keep]);
            if keep < 8 {
                assert_eq!(got, RecordParse::End, "keep={keep}");
            } else {
                assert_eq!(got, RecordParse::Torn, "keep={keep}");
            }
        }
    }

    #[test]
    fn zeros_and_garbage_are_a_clean_end() {
        assert_eq!(decode_record(&[0u8; 256]), RecordParse::End);
        assert_eq!(decode_record(b"not a record, just bytes"), RecordParse::End);
        assert_eq!(decode_record(&[]), RecordParse::End);
    }

    #[test]
    fn flipped_body_byte_is_torn() {
        let mut enc = encode_record(1, &[entry(3)]);
        let mid = REC_HEADER_LEN + 4;
        enc[mid] ^= 0x40;
        assert_eq!(decode_record(&enc), RecordParse::Torn);
    }
}
