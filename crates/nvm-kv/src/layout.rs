//! On-chunk byte layout for the kv store.
//!
//! Three chunk families hold the entire durable state, all real-byte
//! materialized so recovery is bit-verifiable:
//!
//! * **`kv_meta`** — one small chunk carrying the last published
//!   checkpoint token: token id, committed log prefix length, index
//!   sizing hint, and per-session serial watermarks.
//! * **`kv_index_g{n}`** — one open-addressed hash table of 16-byte
//!   entries `(key_hash, record_offset + 1)`; generation `n` bumps on
//!   every growth/rehash so old and new tables coexist briefly. The
//!   index is a cache: recovery never trusts it and rebuilds from the
//!   log, so a stale or half-written table is harmless.
//! * **`kv_seg_{i}`** — fixed-size record-log segments. Records are
//!   append-only, 8-byte aligned, and never span a segment boundary;
//!   a [`SEGMENT_END_MARKER`] (or an all-zero tail too short for a
//!   header) says "continue at the next segment".
//!
//! All integers are little-endian.

/// Fixed record header size (bytes). Key bytes follow the header,
/// value bytes follow the key, then zero padding to 8 bytes.
pub const RECORD_HEADER_BYTES: usize = 24;

/// Offset of the key-length byte in a record header.
const KEY_LEN_AT: usize = 19;

/// Bytes per hash-index entry: `key_hash: u64` then `tag: u64` where
/// `tag == record_offset + 1` (0 means the slot is empty).
pub const INDEX_ENTRY_BYTES: usize = 16;

/// `len_total` sentinel meaning "rest of this segment is unused, skip
/// to the next segment boundary". Written only when ≥ 4 bytes remain.
pub const SEGMENT_END_MARKER: u32 = u32::MAX;

/// Record flag bit: this record is a tombstone (delete).
pub const FLAG_TOMBSTONE: u8 = 1;

/// Fixed prefix of the meta block before the per-session watermarks.
pub const META_FIXED_BYTES: usize = 40;

/// Magic stamped at meta offset 0; anything else (in particular the
/// all-zero bytes of a never-checkpointed chunk) reads as "no token
/// published yet".
pub const META_MAGIC: u64 = u64::from_le_bytes(*b"NVKVMET1");

/// Round `n` up to the next multiple of 8.
const fn pad8(n: usize) -> usize {
    (n + 7) & !7
}

/// Total padded on-log size of a record with the given key/value
/// lengths.
pub const fn record_len(key_len: usize, val_len: usize) -> usize {
    pad8(RECORD_HEADER_BYTES + key_len + val_len)
}

/// Decoded record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Padded total record length (header + key + value + padding).
    pub len_total: u32,
    /// Value length in bytes (0 for tombstones).
    pub val_len: u32,
    /// Issuing session's serial number for this mutation.
    pub serial: u64,
    /// Issuing session id.
    pub session: u16,
    /// Flag bits ([`FLAG_TOMBSTONE`]).
    pub flags: u8,
    /// Key length in bytes (1..=255).
    pub key_len: u8,
}

impl RecordHeader {
    /// True when this record deletes its key.
    pub fn is_tombstone(&self) -> bool {
        self.flags & FLAG_TOMBSTONE != 0
    }
}

/// Encode a full record (header + key + value + zero padding) into
/// `buf`, which is left holding exactly the record and keeps its
/// capacity from one record to the next. `value: None` encodes a
/// tombstone.
pub fn encode_record_into(
    buf: &mut Vec<u8>,
    session: u16,
    serial: u64,
    key: &[u8],
    value: Option<&[u8]>,
) {
    debug_assert!(!key.is_empty() && key.len() <= u8::MAX as usize);
    let val = value.unwrap_or(&[]);
    let len_total = record_len(key.len(), val.len());
    buf.clear();
    buf.resize(len_total, 0);
    buf[0..4].copy_from_slice(&(len_total as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&(val.len() as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&serial.to_le_bytes());
    buf[16..18].copy_from_slice(&session.to_le_bytes());
    buf[18] = if value.is_none() { FLAG_TOMBSTONE } else { 0 };
    buf[KEY_LEN_AT] = key.len() as u8;
    // bytes 20..24 reserved (zero)
    buf[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + key.len()].copy_from_slice(key);
    buf[RECORD_HEADER_BYTES + key.len()..RECORD_HEADER_BYTES + key.len() + val.len()]
        .copy_from_slice(val);
}

/// Decode and sanity-check a record header. Returns `None` for
/// anything that cannot be a live record: zero length, the
/// segment-end marker, misaligned length, zero-length key, or a
/// length that disagrees with the key/value lengths.
pub fn decode_record_header(bytes: &[u8]) -> Option<RecordHeader> {
    if bytes.len() < RECORD_HEADER_BYTES {
        return None;
    }
    let len_total = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let val_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let serial = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let session = u16::from_le_bytes(bytes[16..18].try_into().unwrap());
    let flags = bytes[18];
    let key_len = bytes[KEY_LEN_AT];
    if len_total == 0 || len_total == SEGMENT_END_MARKER || key_len == 0 {
        return None;
    }
    if len_total as usize != record_len(key_len as usize, val_len as usize) {
        return None;
    }
    Some(RecordHeader {
        len_total,
        val_len,
        serial,
        session,
        flags,
        key_len,
    })
}

/// The key of the record `record` starts with, found from its header's
/// key-length byte alone — for a record already decoded once, as
/// recovery's replay does when a hash matches an earlier record.
/// Panics if `record` is shorter than the key it names.
pub fn record_key(record: &[u8]) -> &[u8] {
    let key_len = record[KEY_LEN_AT] as usize;
    &record[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + key_len]
}

/// Encode one index entry.
pub fn encode_index_entry(key_hash: u64, tag: u64) -> [u8; INDEX_ENTRY_BYTES] {
    let mut buf = [0u8; INDEX_ENTRY_BYTES];
    buf[0..8].copy_from_slice(&key_hash.to_le_bytes());
    buf[8..16].copy_from_slice(&tag.to_le_bytes());
    buf
}

/// Decode one index entry to `(key_hash, tag)`.
pub fn decode_index_entry(bytes: &[u8]) -> (u64, u64) {
    let hash = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let tag = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    (hash, tag)
}

/// The checkpoint-token metadata block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvMeta {
    /// Monotone token id (0 = no checkpoint taken yet).
    pub token: u64,
    /// Committed log prefix: replay exactly `[0, log_len)`.
    pub log_len: u64,
    /// Index slot count at token time (rebuild sizing hint).
    pub index_slots: u64,
    /// Per-session serial watermarks; a record replays only if its
    /// serial is ≤ its session's watermark.
    pub serials: Vec<u64>,
}

/// Size of the meta chunk for a store admitting `max_sessions`
/// sessions.
pub const fn meta_bytes(max_sessions: u16) -> usize {
    META_FIXED_BYTES + 8 * max_sessions as usize
}

/// Encode the meta block into a buffer of `meta_bytes(max_sessions)`.
pub fn encode_meta(meta: &KvMeta, max_sessions: u16) -> Vec<u8> {
    debug_assert!(meta.serials.len() <= max_sessions as usize);
    let mut buf = vec![0u8; meta_bytes(max_sessions)];
    buf[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
    buf[8..16].copy_from_slice(&meta.token.to_le_bytes());
    buf[16..24].copy_from_slice(&meta.log_len.to_le_bytes());
    buf[24..32].copy_from_slice(&meta.index_slots.to_le_bytes());
    buf[32..36].copy_from_slice(&(meta.serials.len() as u32).to_le_bytes());
    // bytes 36..40 reserved (zero)
    for (i, s) in meta.serials.iter().enumerate() {
        let at = META_FIXED_BYTES + 8 * i;
        buf[at..at + 8].copy_from_slice(&s.to_le_bytes());
    }
    buf
}

/// Decode a meta block. Returns `None` when the magic is absent —
/// the store has never published a token (recover to empty).
pub fn decode_meta(bytes: &[u8]) -> Option<KvMeta> {
    if bytes.len() < META_FIXED_BYTES {
        return None;
    }
    if u64::from_le_bytes(bytes[0..8].try_into().unwrap()) != META_MAGIC {
        return None;
    }
    let token = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let log_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let index_slots = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let n = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
    if bytes.len() < META_FIXED_BYTES + 8 * n {
        return None;
    }
    let serials = (0..n)
        .map(|i| {
            let at = META_FIXED_BYTES + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        })
        .collect();
    Some(KvMeta {
        token,
        log_len,
        index_slots,
        serials,
    })
}

/// 64-bit key hash: FNV-1a over the bytes, then a splitmix64-style
/// finalizer so low bits are well mixed for power-of-two tables.
pub fn hash64(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_record(session: u16, serial: u64, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_record_into(&mut buf, session, serial, key, value);
        buf
    }

    #[test]
    fn record_round_trip() {
        let rec = encode_record(3, 42, b"key-7", Some(b"hello world"));
        assert_eq!(rec.len() % 8, 0);
        let h = decode_record_header(&rec).unwrap();
        assert_eq!(h.len_total as usize, rec.len());
        assert_eq!(h.val_len, 11);
        assert_eq!(h.serial, 42);
        assert_eq!(h.session, 3);
        assert_eq!(h.key_len, 5);
        assert!(!h.is_tombstone());
        let key = &rec[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + 5];
        assert_eq!(key, b"key-7");
        assert_eq!(record_key(&rec), b"key-7");
        let val = &rec[RECORD_HEADER_BYTES + 5..RECORD_HEADER_BYTES + 5 + 11];
        assert_eq!(val, b"hello world");
    }

    #[test]
    fn tombstone_round_trip() {
        let rec = encode_record(0, 7, b"k", None);
        let h = decode_record_header(&rec).unwrap();
        assert!(h.is_tombstone());
        assert_eq!(h.val_len, 0);
        assert_eq!(h.len_total as usize, record_len(1, 0));
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(decode_record_header(&[0u8; 24]).is_none());
        let mut marker = [0u8; 24];
        marker[0..4].copy_from_slice(&SEGMENT_END_MARKER.to_le_bytes());
        assert!(decode_record_header(&marker).is_none());
        // Inconsistent len_total vs key/val lengths.
        let mut rec = encode_record(0, 1, b"abc", Some(b"xy"));
        rec[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(decode_record_header(&rec).is_none());
    }

    #[test]
    fn index_entry_round_trip() {
        let e = encode_index_entry(0xdead_beef_1234_5678, 4097);
        assert_eq!(decode_index_entry(&e), (0xdead_beef_1234_5678, 4097));
    }

    #[test]
    fn meta_round_trip_and_zero_block() {
        let meta = KvMeta {
            token: 9,
            log_len: 65536,
            index_slots: 2048,
            serials: vec![5, 0, 17],
        };
        let bytes = encode_meta(&meta, 8);
        assert_eq!(bytes.len(), meta_bytes(8));
        assert_eq!(decode_meta(&bytes).unwrap(), meta);
        // A never-written meta chunk is all zeros: no token.
        assert!(decode_meta(&vec![0u8; meta_bytes(8)]).is_none());
    }

    #[test]
    fn hash_is_stable_and_spread() {
        // Pinned values: the on-chunk format depends on this hash
        // staying put across refactors.
        assert_eq!(hash64(b"key-0"), hash64(b"key-0"));
        assert_ne!(hash64(b"key-0"), hash64(b"key-1"));
        let mut low4 = std::collections::HashSet::new();
        for i in 0..64u32 {
            low4.insert(hash64(format!("k{i}").as_bytes()) & 0xf);
        }
        // A well-mixed hash should hit most of the 16 low nibbles.
        assert!(low4.len() >= 12, "poor low-bit spread: {}", low4.len());
    }

    #[test]
    fn pad8_and_record_len() {
        assert_eq!(pad8(0), 0);
        assert_eq!(pad8(1), 8);
        assert_eq!(pad8(8), 8);
        assert_eq!(pad8(9), 16);
        assert_eq!(record_len(1, 0), 32);
        assert_eq!(record_len(8, 8), 40);
    }
}
