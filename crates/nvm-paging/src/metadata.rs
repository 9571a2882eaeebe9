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

    /// Find a record by chunk id.
    pub fn find(&self, id: ChunkId) -> Option<&ChunkRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Insert or replace a record.
    pub fn upsert(&mut self, rec: ChunkRecord) {
        match self.records.iter_mut().find(|r| r.id == rec.id) {
            Some(slot) => *slot = rec,
            None => self.records.push(rec),
        }
    }

    /// Remove a record; true if it existed.
    pub fn remove(&mut self, id: ChunkId) -> bool {
        let before = self.records.len();
        self.records.retain(|r| r.id != id);
        self.records.len() != before
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

/// Append `table` to `out` in the region's format: the JSON
/// `serde_json::to_vec` gives for the derives above, byte for byte,
/// written straight from the fields. A save is charged by payload
/// length, so the format is part of the model; `load` parses it through
/// `serde_json`, and the derive is what the tests hold this against.
fn encode(table: &impl ChunkTable, out: &mut Vec<u8>) {
    put(out, "{\"process_id\":", Some(table.process_id()));
    put(out, ",\"container_region\":", table.container_region());
    put(
        out,
        ",\"container_capacity\":",
        Some(table.container_capacity() as u64),
    );
    out.extend_from_slice(b",\"records\":[");
    for (i, r) in table.records().enumerate() {
        put(
            out,
            if i == 0 { "{\"id\":" } else { ",{\"id\":" },
            Some(r.id.0),
        );
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
        put(
            out,
            "],\"committed_slot\":",
            r.committed_slot.map(u64::from),
        );
        put(out, ",\"checksum\":", r.checksum);
        put(out, ",\"committed_epoch\":", Some(r.committed_epoch));
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
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
    /// The last saved payload; kept so a save of a table no larger than
    /// an earlier one asks the allocator for nothing.
    payload: Vec<u8>,
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
            payload: Vec::new(),
        })
    }

    /// Re-open an existing metadata region after restart.
    pub fn open(device: &MemoryDevice, region: RegionId) -> Result<Self, DeviceError> {
        let capacity = device.region_len(region)?;
        Ok(MetadataRegion {
            device: device.clone(),
            region,
            capacity,
            payload: Vec::new(),
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
        self.payload.clear();
        encode(table, &mut self.payload);
        let needed = HEADER + self.payload.len();
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
        let payload = &self.payload;
        let len = HEADER + payload.len();
        let mut cost = self.device.write_synthetic(region, 0, HEADER, 1)?;
        cost += (self.device).write_synthetic(region, HEADER, payload.len(), 1)?;
        self.device.view_mut(region, 0, len, |dst| {
            dst[..HEADER].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            dst[HEADER..].copy_from_slice(payload);
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
        m.upsert(ChunkRecord {
            id: genid("electrons"),
            name: "electrons".into(),
            len: 1 << 20,
            persistent: true,
            versions: [Some((0, 11)), Some((11, 11))],
            committed_slot: Some(0),
            checksum: Some(0xdead_beef),
            committed_epoch: 3,
        });
        m.upsert(ChunkRecord {
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
            meta.upsert(ChunkRecord {
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
    fn upsert_replaces_and_remove_removes() {
        let mut m = ProcessMetadata::new(1);
        let id = genid("x");
        m.upsert(ChunkRecord {
            id,
            name: "x".into(),
            len: 1,
            persistent: false,
            versions: [None, None],
            committed_slot: None,
            checksum: None,
            committed_epoch: 0,
        });
        m.upsert(ChunkRecord {
            id,
            name: "x".into(),
            len: 2,
            persistent: false,
            versions: [None, None],
            committed_slot: None,
            checksum: None,
            committed_epoch: 1,
        });
        assert_eq!(m.records.len(), 1);
        assert_eq!(m.find(id).unwrap().len, 2);
        assert!(m.remove(id));
        assert!(!m.remove(id));
        assert!(m.find(id).is_none());
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
    }
}
