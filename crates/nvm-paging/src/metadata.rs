//! Per-process persistent metadata region.
//!
//! The paper's kernel manager keeps an in-NVM metadata structure per
//! process: every NVM allocation is recorded so that a restarted
//! process can call `nvmalloc(id, ...)` with the same ids and get its
//! persistent chunks back. The same structure is what the asynchronous
//! remote-checkpoint helper maps (via the shared-NVM interface) to
//! discover which chunks exist and where their data lives.
//!
//! [`MetadataRegion`] serializes a [`ChunkTable`] — a
//! [`ProcessMetadata`], or the heap's live table, encoded where it
//! lies — into a materialized region of an NVM [`MemoryDevice`] with a
//! small length header, charging device write + flush costs — metadata
//! updates are on the checkpoint critical path in the paper and so must
//! cost time here too.
//!
//! The region keeps what its last save encoded: each record's fields
//! and bytes. The next save encodes only what changed and copies the
//! pieces straight into the region. A record whose fields all match
//! costs that copy. One whose shape (`id`, `name`, `len`,
//! `persistent`, `versions`) matches but whose commit fields
//! (`committed_slot`, `checksum`, `committed_epoch`) do not re-encodes
//! just those three. Only a new or reshaped record is encoded whole. So
//! an `nvmalloc` encodes one record and a steady commit three numbers
//! per record, and the bytes written — and so the device calls, wear
//! and virtual time a save costs — are exactly those of encoding the
//! whole table.

use nvm_emu::{DeviceError, MemoryDevice, RegionId, SimDuration};
use serde::{Deserialize, Serialize};

use crate::ChunkId;

/// Persistent record of one chunk, enough to rebuild the chunk table on
/// restart and to let the helper process locate checkpoint data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// Application-chosen chunk id (`genid(varname)`).
    pub id: ChunkId,
    /// Human-readable variable name.
    pub name: String,
    /// Chunk length in bytes.
    pub len: usize,
    /// Whether the application asked for persistence (`pflg`).
    pub persistent: bool,
    /// `(offset, len)` of the two shadow version extents within the
    /// process NVM container (version slots 0/1).
    pub versions: [Option<(u64, u64)>; 2],
    /// Which version slot holds the last *committed* checkpoint, if any.
    pub committed_slot: Option<u8>,
    /// Checksum of the committed version (CRC-64), if checksumming is on.
    pub checksum: Option<u64>,
    /// Monotone checkpoint epoch of the committed version.
    pub committed_epoch: u64,
}

/// Everything a process persists about its NVM state.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct ProcessMetadata {
    /// Owning process/rank id.
    pub process_id: u64,
    /// Device region id of the process NVM container (the fixed range
    /// the kernel manager reserves for this process).
    pub container_region: Option<u64>,
    /// Container capacity in bytes.
    pub container_capacity: usize,
    /// One record per live chunk.
    pub records: Vec<ChunkRecord>,
}

impl ProcessMetadata {
    /// Metadata for a fresh process.
    pub fn new(process_id: u64) -> Self {
        ProcessMetadata {
            process_id,
            container_region: None,
            container_capacity: 0,
            records: Vec::new(),
        }
    }
}

/// A [`ChunkRecord`] lent by the table that holds it, name and all,
/// for a save to encode without copying.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecordRef<'a> {
    /// See [`ChunkRecord::id`].
    pub id: ChunkId,
    /// See [`ChunkRecord::name`].
    pub name: &'a str,
    /// See [`ChunkRecord::len`].
    pub len: usize,
    /// See [`ChunkRecord::persistent`].
    pub persistent: bool,
    /// See [`ChunkRecord::versions`].
    pub versions: [Option<(u64, u64)>; 2],
    /// See [`ChunkRecord::committed_slot`].
    pub committed_slot: Option<u8>,
    /// See [`ChunkRecord::checksum`].
    pub checksum: Option<u64>,
    /// See [`ChunkRecord::committed_epoch`].
    pub committed_epoch: u64,
}

impl RecordRef<'_> {
    /// The owned record.
    pub fn to_record(self) -> ChunkRecord {
        ChunkRecord {
            id: self.id,
            name: self.name.to_string(),
            len: self.len,
            persistent: self.persistent,
            versions: self.versions,
            committed_slot: self.committed_slot,
            checksum: self.checksum,
            committed_epoch: self.committed_epoch,
        }
    }
}

impl ChunkRecord {
    /// This record, lent.
    pub fn lend(&self) -> RecordRef<'_> {
        RecordRef {
            id: self.id,
            name: &self.name,
            len: self.len,
            persistent: self.persistent,
            versions: self.versions,
            committed_slot: self.committed_slot,
            checksum: self.checksum,
            committed_epoch: self.committed_epoch,
        }
    }
}

/// A chunk table [`MetadataRegion::save`] encodes where it lies: a
/// [`ProcessMetadata`], or a live table (the heap's) that lends its
/// records instead of building one per save. The fields are
/// [`ProcessMetadata`]'s.
pub trait ChunkTable {
    /// Owning process/rank id.
    fn process_id(&self) -> u64;
    /// Device region id of the process NVM container.
    fn container_region(&self) -> Option<u64>;
    /// Container capacity in bytes.
    fn container_capacity(&self) -> usize;
    /// One record per live chunk, in the order they are saved.
    fn records(&self) -> impl Iterator<Item = RecordRef<'_>>;
}

impl ChunkTable for ProcessMetadata {
    fn process_id(&self) -> u64 {
        self.process_id
    }

    fn container_region(&self) -> Option<u64> {
        self.container_region
    }

    fn container_capacity(&self) -> usize {
        self.container_capacity
    }

    fn records(&self) -> impl Iterator<Item = RecordRef<'_>> {
        self.records.iter().map(ChunkRecord::lend)
    }
}

/// One record as the last save encoded it: its fields, and its bytes —
/// the shape (`{` through `versions`), then the commit tail
/// (`committed_slot`, `checksum`, `committed_epoch`, `}`).
struct Kept {
    id: ChunkId,
    name: String,
    len: usize,
    persistent: bool,
    versions: [Option<(u64, u64)>; 2],
    tail: Tail,
    bytes: Vec<u8>,
    /// Where the shape's bytes end and the tail's begin.
    shape_len: usize,
}

/// A record's commit fields: `committed_slot`, `checksum`,
/// `committed_epoch`.
type Tail = (Option<u8>, Option<u64>, u64);

fn tail(r: &RecordRef<'_>) -> Tail {
    (r.committed_slot, r.checksum, r.committed_epoch)
}

/// Room for a record whose numbers have the widths a chunk table's
/// usually do, so encoding one seldom grows its buffer.
const RECORD_ROOM: usize = 192;

impl Kept {
    /// `r`, encoded whole.
    fn new(r: &RecordRef<'_>) -> Self {
        let mut kept = Kept {
            id: r.id,
            name: String::new(),
            len: r.len,
            persistent: r.persistent,
            versions: r.versions,
            tail: tail(r),
            bytes: Vec::with_capacity(RECORD_ROOM + r.name.len()),
            shape_len: 0,
        };
        kept.encode(r);
        kept
    }

    /// Whether `r` has this record's shape: every field but the tail.
    fn same_shape(&self, r: &RecordRef<'_>) -> bool {
        self.id == r.id
            && self.len == r.len
            && self.persistent == r.persistent
            && self.versions == r.versions
            && self.name == r.name
    }

    /// Become `r`, encoded whole into the buffers this record has.
    fn encode(&mut self, r: &RecordRef<'_>) {
        #[cfg(test)]
        WHOLE_RECORDS.with(|c| c.set(c.get() + 1));
        (self.id, self.len, self.persistent, self.versions) =
            (r.id, r.len, r.persistent, r.versions);
        self.name.clear();
        self.name.push_str(r.name);
        self.bytes.clear();
        encode_shape(r, &mut self.bytes);
        self.shape_len = self.bytes.len();
        self.tail = tail(r);
        encode_tail(r, &mut self.bytes);
    }

    /// Take `r`'s commit fields, re-encoding the tail if they changed.
    fn commit(&mut self, r: &RecordRef<'_>) {
        if self.tail != tail(r) {
            self.tail = tail(r);
            self.bytes.truncate(self.shape_len);
            encode_tail(r, &mut self.bytes);
        }
    }
}

/// A chunk table as the last save encoded it, in pieces: the head
/// (the table's own fields), then each record's bytes. Laid end to end
/// with a `,` between two records and a closing `]}`, they are the
/// JSON `serde_json::to_vec` gives for the derives above, byte for
/// byte.
#[derive(Default)]
struct Encoded {
    /// `process_id`, `container_region`, `container_capacity`.
    fields: (u64, Option<u64>, usize),
    /// `{` through `"records":[`; empty before the first save.
    head: Vec<u8>,
    records: Vec<Kept>,
}

impl Encoded {
    /// Encode `table` in the region's format, written straight from the
    /// fields. A save is charged by payload length, so the format is
    /// part of the model; `load` parses it through `serde_json`, and
    /// the derive is what the tests hold this against.
    ///
    /// What the last save encoded is not encoded again. A record with
    /// the shape of one the last save held keeps that one's bytes, and
    /// re-encodes its tail only if its commit fields changed. Only a
    /// record whose shape the last save does not hold — new, resized,
    /// moved or renamed — is encoded whole. Every field is compared,
    /// so ids need not be unique. A record is looked for where it sat
    /// in the last save, or one further on (the record before it was
    /// dropped): an allocation, a resize or a free changes one record
    /// of a table that keeps its order. A record found nowhere near is
    /// encoded whole, which costs time and never changes a byte.
    fn encode(&mut self, table: &impl ChunkTable) {
        let fields = (
            table.process_id(),
            table.container_region(),
            table.container_capacity(),
        );
        if self.head.is_empty() || fields != self.fields {
            self.fields = fields;
            let head = &mut self.head;
            head.clear();
            put(head, "{\"process_id\":", Some(fields.0));
            put(head, ",\"container_region\":", fields.1);
            put(head, ",\"container_capacity\":", Some(fields.2 as u64));
            head.extend_from_slice(b",\"records\":[");
        }
        // `records[..i]` are this table's; `records[i..]` are what is
        // left of the last one's.
        let records = &mut self.records;
        let mut i = 0;
        for r in table.records() {
            match (i..records.len().min(i + 2)).find(|&k| records[k].same_shape(&r)) {
                Some(k) => {
                    if k > i {
                        records.remove(i);
                    }
                    records[i].commit(&r);
                }
                // A record reshaped in place: its buffers are reused.
                None if records.get(i).is_some_and(|k| k.id == r.id) => records[i].encode(&r),
                None => records.insert(i, Kept::new(&r)),
            }
            i += 1;
        }
        records.truncate(i);
    }

    /// The encoded table, piece by piece.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let records = self.records.iter().enumerate();
        let records = records.flat_map(|(i, r)| [if i == 0 { &b""[..] } else { b"," }, &r.bytes]);
        std::iter::once(&self.head[..])
            .chain(records)
            .chain(std::iter::once(&b"]}"[..]))
    }

    /// The encoded table's length in bytes.
    fn len(&self) -> usize {
        self.pieces().map(<[u8]>::len).sum()
    }
}

/// `{` through the end of `versions`: every field but the commit tail.
fn encode_shape(r: &RecordRef<'_>, out: &mut Vec<u8>) {
    put(out, "{\"id\":", Some(r.id.0));
    out.extend_from_slice(b",\"name\":\"");
    for &b in r.name.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..0x20 => {
                let hex = |nibble: u8| b"0123456789abcdef"[usize::from(nibble)];
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 15)]);
            }
            _ => out.push(b), // UTF-8 passes through
        }
    }
    put(out, "\",\"len\":", Some(r.len as u64));
    out.extend_from_slice(if r.persistent {
        b",\"persistent\":true".as_slice()
    } else {
        b",\"persistent\":false"
    });
    for (key, slot) in [",\"versions\":[", ","].into_iter().zip(r.versions) {
        match slot {
            Some((offset, len)) => {
                out.extend_from_slice(key.as_bytes());
                put(out, "[", Some(offset));
                put(out, ",", Some(len));
                out.push(b']');
            }
            None => put(out, key, None),
        }
    }
    out.push(b']');
}

/// The commit tail, through the record's closing `}`.
fn encode_tail(r: &RecordRef<'_>, out: &mut Vec<u8>) {
    put(out, ",\"committed_slot\":", r.committed_slot.map(u64::from));
    put(out, ",\"checksum\":", r.checksum);
    put(out, ",\"committed_epoch\":", Some(r.committed_epoch));
    out.push(b'}');
}

#[cfg(test)]
thread_local! {
    /// Records encoded whole on this thread, so tests can assert how
    /// much of a table a save re-encodes.
    static WHOLE_RECORDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records encoded whole on the calling thread so far (tests only).
#[cfg(test)]
fn whole_records() -> u64 {
    WHOLE_RECORDS.with(|c| c.get())
}

/// `table` encoded from nothing, as a region's first save encodes it.
#[cfg(test)]
fn encode(table: &impl ChunkTable, out: &mut Vec<u8>) {
    let mut encoded = Encoded::default();
    encoded.encode(table);
    encoded
        .pieces()
        .for_each(|piece| out.extend_from_slice(piece));
}

/// `key` (with the punctuation before it), then `value` in decimal or
/// `null`.
fn put(out: &mut Vec<u8>, key: &str, value: Option<u64>) {
    out.extend_from_slice(key.as_bytes());
    let Some(mut n) = value else {
        return out.extend_from_slice(b"null");
    };
    let mut digits = [0u8; 20]; // u64::MAX has twenty
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

const HEADER: usize = 8; // u64 LE payload length
const DEFAULT_CAPACITY: usize = 1 << 20;

/// A persistent metadata region on an NVM device.
pub struct MetadataRegion {
    device: MemoryDevice,
    region: RegionId,
    capacity: usize,
    /// The table as the last save encoded it, which the next save
    /// re-encodes only where it changed. A save writes its pieces
    /// straight into the region, so one that encodes no new record asks
    /// the allocator for nothing, unless a record's commit fields
    /// outgrow the room its buffer has.
    encoded: Encoded,
}

impl MetadataRegion {
    /// Allocate a metadata region with the default 1 MiB capacity.
    pub fn create(device: &MemoryDevice) -> Result<Self, DeviceError> {
        Self::with_capacity(device, DEFAULT_CAPACITY)
    }

    /// Allocate a metadata region with an explicit capacity.
    pub fn with_capacity(device: &MemoryDevice, capacity: usize) -> Result<Self, DeviceError> {
        let region = device.alloc(capacity)?;
        Ok(MetadataRegion {
            device: device.clone(),
            region,
            capacity,
            encoded: Encoded::default(),
        })
    }

    /// Re-open an existing metadata region after restart.
    pub fn open(device: &MemoryDevice, region: RegionId) -> Result<Self, DeviceError> {
        let capacity = device.region_len(region)?;
        Ok(MetadataRegion {
            device: device.clone(),
            region,
            capacity,
            encoded: Encoded::default(),
        })
    }

    /// The underlying region id (a restarting process needs to know it;
    /// in the paper this is the fixed physical range the kernel manager
    /// reserves at boot).
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Persist `table`, growing the region if needed. Returns the
    /// virtual-time cost (serialize-write + cache flush).
    pub fn save(&mut self, table: &impl ChunkTable) -> Result<SimDuration, DeviceError> {
        self.encoded.encode(table);
        let needed = HEADER + self.encoded.len();
        if needed > self.capacity {
            // Grow: allocate a fresh, larger region. It replaces the old
            // one, which is freed, only once it is written (crash
            // safety).
            let new_cap = needed.next_power_of_two();
            let new_region = self.device.alloc(new_cap)?;
            let cost = match self.write_payload(new_region) {
                Ok(cost) => cost,
                Err(e) => {
                    self.device.free(new_region)?;
                    return Err(e);
                }
            };
            let old = std::mem::replace(&mut self.region, new_region);
            self.capacity = new_cap;
            self.device.free(old)?;
            return Ok(cost);
        }
        self.write_payload(self.region)
    }

    /// Write the header and the payload to `region`, charged as two
    /// writes but made as one, so a fault between them cannot leave a
    /// header that does not describe its payload. A save whose fault
    /// comes before the write, or that grows, leaves the previous table
    /// whole; one that overwrites in place does so only if the device's
    /// backing write either fully happens or not at all.
    fn write_payload(&self, region: RegionId) -> Result<SimDuration, DeviceError> {
        let payload = self.encoded.len();
        let len = HEADER + payload;
        let mut cost = self.device.write_synthetic(region, 0, HEADER, 1)?;
        cost += (self.device).write_synthetic(region, HEADER, payload, 1)?;
        self.device.view_mut(region, 0, len, |dst| {
            let (header, mut rest) = dst.split_at_mut(HEADER);
            header.copy_from_slice(&(payload as u64).to_le_bytes());
            for piece in self.encoded.pieces() {
                let (to, after) = rest.split_at_mut(piece.len());
                to.copy_from_slice(piece);
                rest = after;
            }
        })?;
        cost += self.device.flush(region, len)?;
        Ok(cost)
    }

    /// Load the metadata back (the restart path). Returns the metadata
    /// and the read cost. A region nothing was saved to reads as a zero
    /// header and loads as [`ProcessMetadata::default`].
    pub fn load(&self) -> Result<(ProcessMetadata, SimDuration), MetadataError> {
        let mut header = [0u8; HEADER];
        let mut cost = self.device.read(self.region, 0, &mut header, 1)?;
        let len = u64::from_le_bytes(header);
        if len == 0 {
            return Ok((ProcessMetadata::default(), cost));
        }
        // The header is whatever a torn write left: bound it before it
        // sizes an allocation, without adding to it.
        if len > self.capacity.saturating_sub(HEADER) as u64 {
            return Err(MetadataError::Corrupt(format!(
                "metadata length {len} exceeds region capacity {}",
                self.capacity
            )));
        }
        let mut payload = vec![0u8; len as usize];
        cost += self.device.read(self.region, HEADER, &mut payload, 1)?;
        let meta =
            serde_json::from_slice(&payload).map_err(|e| MetadataError::Corrupt(e.to_string()))?;
        Ok((meta, cost))
    }
}

/// Errors raised while loading metadata.
#[non_exhaustive]
#[derive(Debug)]
pub enum MetadataError {
    /// Underlying device error.
    Device(DeviceError),
    /// The stored bytes do not parse.
    Corrupt(String),
    /// Nothing was ever saved to this metadata region (its process
    /// died before its first `nvmalloc`), so there is no chunk table and
    /// no container to restart from.
    NeverSaved(RegionId),
}

nvm_emu::error_enum! {
    MetadataError, f {
        wrap Device(DeviceError) => "device error",
        leaf MetadataError::Corrupt(s) => write!(f, "corrupt metadata: {s}"),
        leaf MetadataError::NeverSaved(region) =>
            write!(f, "metadata region {} holds no saved chunk table", region.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genid;
    use proptest::prelude::*;

    fn sample_meta() -> ProcessMetadata {
        let mut m = ProcessMetadata::new(7);
        m.records.push(ChunkRecord {
            id: genid("electrons"),
            name: "electrons".into(),
            len: 1 << 20,
            persistent: true,
            versions: [Some((0, 11)), Some((11, 11))],
            committed_slot: Some(0),
            checksum: Some(0xdead_beef),
            committed_epoch: 3,
        });
        m.records.push(ChunkRecord {
            id: genid("ions"),
            name: "ions".into(),
            len: 4096,
            persistent: true,
            versions: [Some((22, 13)), None],
            committed_slot: None,
            checksum: None,
            committed_epoch: 0,
        });
        m
    }

    #[test]
    fn save_load_roundtrip() {
        let dev = MemoryDevice::pcm(4 << 20);
        let mut region = MetadataRegion::create(&dev).unwrap();
        let meta = sample_meta();
        let save_cost = region.save(&meta).unwrap();
        assert!(!save_cost.is_zero(), "metadata writes must cost time");
        let (loaded, load_cost) = region.load().unwrap();
        assert_eq!(loaded, meta);
        assert!(!load_cost.is_zero());
    }

    #[test]
    fn empty_region_loads_default() {
        let dev = MemoryDevice::pcm(4 << 20);
        let region = MetadataRegion::create(&dev).unwrap();
        let (loaded, _) = region.load().unwrap();
        assert_eq!(loaded, ProcessMetadata::default());
    }

    #[test]
    fn reopen_after_restart_sees_saved_data() {
        let dev = MemoryDevice::pcm(4 << 20);
        let meta = sample_meta();
        let region_id;
        {
            let mut region = MetadataRegion::create(&dev).unwrap();
            region.save(&meta).unwrap();
            region_id = region.region();
            // process "dies" here; the device (NVM) survives
        }
        let reopened = MetadataRegion::open(&dev, region_id).unwrap();
        let (loaded, _) = reopened.load().unwrap();
        assert_eq!(loaded, meta);
    }

    #[test]
    fn save_grows_region_when_needed() {
        let dev = MemoryDevice::pcm(16 << 20);
        let mut region = MetadataRegion::with_capacity(&dev, 256).unwrap();
        let mut meta = ProcessMetadata::new(1);
        for i in 0..200 {
            meta.records.push(ChunkRecord {
                id: ChunkId(i),
                name: format!("var_{i}"),
                len: 4096,
                persistent: true,
                versions: [Some((i * 2, 4096)), Some((i * 2 + 1, 4096))],
                committed_slot: Some((i % 2) as u8),
                checksum: Some(i),
                committed_epoch: i,
            });
        }
        region.save(&meta).unwrap();
        let (loaded, _) = region.load().unwrap();
        assert_eq!(loaded.records.len(), 200);
        assert_eq!(loaded, meta);
    }

    #[test]
    fn hard_failure_destroys_metadata() {
        let dev = MemoryDevice::pcm(4 << 20);
        let mut region = MetadataRegion::create(&dev).unwrap();
        region.save(&sample_meta()).unwrap();
        dev.destroy(); // hard node failure
        assert!(region.load().is_err());
    }

    /// A torn or corrupt length header is a typed error whatever it
    /// holds — it used to be added to before it was checked, and then
    /// to size a buffer.
    #[test]
    fn load_bounds_the_length_header_without_overflow() {
        const CAPACITY: usize = 4096;
        let dev = MemoryDevice::pcm(1 << 20);
        let region = MetadataRegion::with_capacity(&dev, CAPACITY).unwrap();
        let load_with_header = |len: u64| {
            dev.write(region.region(), 0, &len.to_le_bytes(), 1)
                .unwrap();
            region.load()
        };
        for len in [u64::MAX, (CAPACITY - HEADER + 1) as u64] {
            match load_with_header(len) {
                Err(MetadataError::Corrupt(why)) => assert!(why.contains("exceeds"), "{why}"),
                other => panic!("header {len}: expected Corrupt, got {other:?}"),
            }
        }
        // The largest length the region can hold is in range: the
        // payload (zeros here) is read and parsed, and does not parse.
        let in_range = load_with_header((CAPACITY - HEADER) as u64);
        assert!(matches!(in_range, Err(MetadataError::Corrupt(_))));
    }

    fn num() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1000, any::<u64>()]
    }

    fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
    }

    /// Names over everything the string encoder treats differently:
    /// the two escaped punctuation marks, the three named and several
    /// `\u00XX` control characters, DEL, `/`, and 2-, 3- and 4-byte
    /// UTF-8.
    fn name() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 20] = [
            'a', 'Z', '0', '_', ' ', '/', '"', '\\', '\n', '\r', '\t', '\0', '\u{1}', '\u{8}',
            '\u{c}', '\u{1f}', '\u{7f}', 'é', '世', '😀',
        ];
        proptest::collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn record() -> impl Strategy<Value = ChunkRecord> {
        (
            (num(), name(), num(), any::<bool>()),
            (opt((num(), num())), opt((num(), num()))),
            (opt(any::<u8>()), opt(num()), num()),
        )
            .prop_map(
                |((id, name, len, persistent), (v0, v1), (slot, sum, epoch))| ChunkRecord {
                    id: ChunkId(id),
                    name,
                    len: len as usize,
                    persistent,
                    versions: [v0, v1],
                    committed_slot: slot,
                    checksum: sum,
                    committed_epoch: epoch,
                },
            )
    }

    fn table() -> impl Strategy<Value = ProcessMetadata> {
        let records = proptest::collection::vec(record(), 0..65);
        (num(), opt(num()), num(), records).prop_map(|(process_id, region, capacity, records)| {
            ProcessMetadata {
                process_id,
                container_region: region,
                container_capacity: capacity as usize,
                records,
            }
        })
    }

    /// One change a chunk table makes between two saves.
    #[derive(Clone, Debug)]
    enum Edit {
        /// Every record commits: its slot flips, its checksum and epoch
        /// move.
        Commit,
        /// The record at the index (mod len) is freed.
        Drop(usize),
        /// The record is allocated at the index (mod len + 1).
        Add(usize, ChunkRecord),
        /// One shape field of the record at the index — by the `u8`, its
        /// name, len, persistence or versions, taken from this record,
        /// or its id, taken from another record of the table — changes.
        Reshape(usize, u8, ChunkRecord),
        /// The table's order is reversed.
        Reverse,
        /// The record at the index is repeated beside itself, its epoch
        /// moved: one id twice.
        Repeat(usize),
        /// Nothing changes.
        Same,
    }

    fn edit() -> impl Strategy<Value = Edit> {
        let edit = (0u8..7, any::<usize>(), 0u8..5, record());
        edit.prop_map(|(kind, at, field, r)| match kind {
            0 => Edit::Commit,
            1 => Edit::Drop(at),
            2 => Edit::Add(at, r),
            3 => Edit::Reshape(at, field, r),
            4 => Edit::Reverse,
            5 => Edit::Repeat(at),
            _ => Edit::Same,
        })
    }

    fn apply(meta: &mut ProcessMetadata, edit: &Edit) {
        let records = &mut meta.records;
        let n = records.len();
        match edit.clone() {
            Edit::Commit => {
                for r in records {
                    r.committed_slot = Some(r.committed_slot.map_or(0, |s| s ^ 1));
                    r.checksum = r.checksum.map(|c| c.wrapping_mul(31) ^ 7);
                    r.committed_epoch = r.committed_epoch.wrapping_add(1);
                }
            }
            Edit::Drop(at) if n > 0 => drop(records.remove(at % n)),
            Edit::Add(at, r) => records.insert(at % (n + 1), r),
            Edit::Reshape(at, field, r) if n > 0 => {
                let other = records[r.id.0 as usize % n].id;
                let old = &mut records[at % n];
                match field {
                    0 => old.name = r.name,
                    1 => old.len = r.len,
                    2 => old.persistent = !old.persistent,
                    3 => old.versions = r.versions,
                    _ => old.id = other,
                }
            }
            Edit::Reverse => records.reverse(),
            Edit::Repeat(at) if n > 0 => {
                let mut copy = records[at % n].clone();
                copy.committed_epoch = copy.committed_epoch.wrapping_add(1);
                records.insert(at % n + 1, copy);
            }
            _ => {}
        }
    }

    /// A table as the heap keeps it: one record per chunk, in id order,
    /// each committed once.
    fn heap_table(chunks: u64) -> ProcessMetadata {
        let mut meta = ProcessMetadata::new(3);
        meta.container_region = Some(1);
        meta.container_capacity = 1 << 30;
        meta.records = (0..chunks).map(|i| heap_record(10 * i)).collect();
        meta
    }

    fn heap_record(id: u64) -> ChunkRecord {
        ChunkRecord {
            id: ChunkId(id),
            name: format!("field_{id}"),
            len: 50 << 20,
            persistent: true,
            versions: [Some((id << 27, 50 << 20)), Some(((id << 27) + 1, 50 << 20))],
            committed_slot: Some(0),
            checksum: None,
            committed_epoch: 1,
        }
    }

    /// A warm region encodes whole only what it has not saved before:
    /// nothing on a steady commit, the one record an allocation or a
    /// growing resize makes.
    #[test]
    fn a_save_encodes_whole_only_a_new_or_reshaped_record() {
        let dev = MemoryDevice::pcm(4 << 20);
        let mut region = MetadataRegion::create(&dev).unwrap();
        let mut whole_in = |meta: &ProcessMetadata| {
            let before = whole_records();
            region.save(meta).unwrap();
            assert_eq!(&region.load().unwrap().0, meta);
            whole_records() - before
        };
        let commit = |meta: &mut ProcessMetadata| apply(meta, &Edit::Commit);

        let mut meta = heap_table(7);
        assert_eq!(whole_in(&meta), 7, "a cold region encodes every record");
        for _ in 0..3 {
            commit(&mut meta);
            assert_eq!(whole_in(&meta), 0, "a steady nvchkptall");
        }
        assert_eq!(whole_in(&meta), 0, "the same table again");

        meta.records.insert(3, heap_record(25));
        assert_eq!(whole_in(&meta), 1, "an nvmalloc");
        commit(&mut meta);
        assert_eq!(whole_in(&meta), 0, "its first nvchkptall");

        let grown = &mut meta.records[5];
        grown.len *= 2;
        grown.versions = [Some((9 << 30, grown.len as u64)), None];
        grown.committed_slot = None;
        assert_eq!(whole_in(&meta), 1, "a growing nvrealloc");
        commit(&mut meta);
        assert_eq!(whole_in(&meta), 0, "its first nvchkptall");

        meta.records.remove(2);
        assert_eq!(whole_in(&meta), 0, "an nvfree");
    }

    proptest! {
        /// The one encoder in the product writes what the `serde`
        /// derive would, and what it writes loads back.
        #[test]
        fn encoder_equals_the_serde_derive_and_round_trips(meta in table()) {
            let mut direct = Vec::new();
            encode(&meta, &mut direct);
            let derived = serde_json::to_vec(&meta).unwrap();
            // (Compared as text so a failure is readable; `derived` is
            // UTF-8, so this is byte equality.)
            prop_assert_eq!(std::str::from_utf8(&direct), std::str::from_utf8(&derived));

            let dev = MemoryDevice::pcm(4 << 20);
            let mut region = MetadataRegion::create(&dev).unwrap();
            region.save(&meta).unwrap();
            let mut stored = vec![0u8; derived.len()];
            dev.read(region.region(), HEADER, &mut stored, 1).unwrap();
            prop_assert_eq!(&stored, &derived, "the region holds the derive's bytes");
            prop_assert_eq!(region.load().unwrap().0, meta);
        }

        /// A region that keeps its last save still writes, save after
        /// save, the derive's bytes for whatever the table became, and
        /// what it writes loads back.
        #[test]
        fn a_warm_region_writes_the_derive_and_round_trips(
            first in table(),
            edits in proptest::collection::vec(edit(), 1..16),
        ) {
            let dev = MemoryDevice::pcm(4 << 20);
            let mut region = MetadataRegion::create(&dev).unwrap();
            let mut meta = first;
            for edit in std::iter::once(&Edit::Same).chain(&edits) {
                apply(&mut meta, edit);
                region.save(&meta).unwrap();
                let derived = serde_json::to_vec(&meta).unwrap();
                let mut stored = vec![0u8; HEADER + derived.len()];
                dev.read(region.region(), 0, &mut stored, 1).unwrap();
                prop_assert_eq!(&stored[..HEADER], &(derived.len() as u64).to_le_bytes());
                prop_assert_eq!(
                    std::str::from_utf8(&stored[HEADER..]),
                    std::str::from_utf8(&derived),
                    "after {:?}",
                    edit
                );
                prop_assert_eq!(&region.load().unwrap().0, &meta);
            }
        }
    }
}
