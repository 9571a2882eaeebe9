//! The media abstraction the container writes through.
//!
//! [`Media`] is the narrowest interface that still captures the two
//! facts crash consistency depends on: *writes may be reordered or
//! lost until an fsync*, and *a write may tear* (only a prefix reaches
//! media). [`FileMedia`] backs a real container file; [`MemMedia`] is
//! the in-memory equivalent used by the crash-injection harness, which
//! replays recorded operation logs into arbitrary crash images (see
//! [`crate::crashsim`]).

use nvm_chkpt::persist::PersistError;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Byte-addressed, growable, fsync-able storage.
pub trait Media: Send {
    /// Write the concatenation of `parts` at `offset` as **one**
    /// logical write — one unit for tearing and for the crash harness,
    /// whatever number of pieces the caller holds it in — extending
    /// the media if needed. Not durable until [`Media::fsync`].
    fn write_at(&mut self, offset: u64, parts: &[&[u8]]) -> Result<(), PersistError>;

    /// Read up to `buf.len()` bytes at `offset`; returns how many were
    /// available (short at end-of-media, zero past it).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, PersistError>;

    /// Durability barrier: everything written so far survives a crash.
    fn fsync(&mut self) -> Result<(), PersistError>;

    /// Current media length in bytes.
    fn len(&self) -> u64;

    /// True when nothing has ever been written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A container file on the real filesystem.
#[derive(Debug)]
pub struct FileMedia {
    file: File,
    len: u64,
}

impl FileMedia {
    /// Open (or create) the file at `path`.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileMedia { file, len })
    }
}

impl Media for FileMedia {
    fn write_at(&mut self, offset: u64, parts: &[&[u8]]) -> Result<(), PersistError> {
        let mut end = offset;
        for part in parts {
            self.file.write_all_at(part, end)?;
            end += part.len() as u64;
        }
        self.len = self.len.max(end);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, PersistError> {
        if offset >= self.len {
            return Ok(0);
        }
        let want = buf.len().min((self.len - offset) as usize);
        self.file.read_exact_at(&mut buf[..want], offset)?;
        Ok(want)
    }

    fn fsync(&mut self) -> Result<(), PersistError> {
        self.file.sync_all()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// In-memory media (crash-harness images, fast unit tests).
#[derive(Clone, Debug, Default)]
pub struct MemMedia {
    bytes: Vec<u8>,
}

impl MemMedia {
    /// Empty media.
    pub fn new() -> Self {
        MemMedia::default()
    }

    /// Media pre-loaded with `bytes` (a crash image).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemMedia { bytes }
    }

    /// The full current byte image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Media for MemMedia {
    fn write_at(&mut self, offset: u64, parts: &[&[u8]]) -> Result<(), PersistError> {
        let mut at = offset as usize;
        let end = at + parts.iter().map(|part| part.len()).sum::<usize>();
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        for part in parts {
            self.bytes[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, PersistError> {
        let offset = offset as usize;
        if offset >= self.bytes.len() {
            return Ok(0);
        }
        let want = buf.len().min(self.bytes.len() - offset);
        buf[..want].copy_from_slice(&self.bytes[offset..offset + want]);
        Ok(want)
    }

    fn fsync(&mut self) -> Result<(), PersistError> {
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }
}

fn shared<M>(media: &Mutex<M>) -> MutexGuard<'_, M> {
    media
        .lock()
        .expect("a media operation panicked while holding the shared handle")
}

/// Media behind a shared handle: a container boxed into an engine
/// writes through one clone while the owner of another reads the image
/// (or a recorded op log) back — also after that engine is gone.
impl<M: Media> Media for Arc<Mutex<M>> {
    fn write_at(&mut self, offset: u64, parts: &[&[u8]]) -> Result<(), PersistError> {
        shared(self).write_at(offset, parts)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, PersistError> {
        shared(self).read_at(offset, buf)
    }

    fn fsync(&mut self) -> Result<(), PersistError> {
        shared(self).fsync()
    }

    fn len(&self) -> u64 {
        shared(self).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_media_reads_back_and_shortens_at_eof() {
        let mut m = MemMedia::new();
        m.write_at(4, &[b"ab", b"", b"cd"]).unwrap();
        assert_eq!(m.len(), 8);
        let mut buf = [0u8; 8];
        assert_eq!(m.read_at(0, &mut buf).unwrap(), 8);
        assert_eq!(&buf[4..], b"abcd");
        assert_eq!(m.read_at(6, &mut buf).unwrap(), 2);
        assert_eq!(m.read_at(100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn shared_handle_sees_writes_of_its_clones() {
        let owner = Arc::new(Mutex::new(MemMedia::new()));
        let mut writer = owner.clone();
        writer.write_at(0, &[b"abc"]).unwrap();
        assert_eq!(Media::len(&owner), 3);
        assert_eq!(shared(&owner).bytes(), b"abc");
    }

    #[test]
    fn file_media_round_trips() {
        let td = nvm_emu::TempDir::new("nvm_store_media_test").unwrap();
        let path = td.join("m.bin");
        let mut f = FileMedia::open(&path).unwrap();
        assert!(f.is_empty());
        f.write_at(10, &[b"x", b"yz"]).unwrap();
        f.fsync().unwrap();
        assert_eq!(f.len(), 13);
        drop(f);
        let mut g = FileMedia::open(&path).unwrap();
        assert_eq!(g.len(), 13);
        let mut buf = [0u8; 3];
        assert_eq!(g.read_at(10, &mut buf).unwrap(), 3);
        assert_eq!(&buf, b"xyz");
    }
}
