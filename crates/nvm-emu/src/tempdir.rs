//! Self-cleaning temporary directories for tests and benches.
//!
//! Everything in this workspace that touches the real filesystem (the
//! ramdisk measurement sinks, the durable `nvm-store` containers)
//! places its files inside a [`TempDir`], which removes the whole
//! directory on drop — `cargo test` leaves no stray files behind.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory removed (recursively) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory under the system temp dir.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        Self::new_in(std::env::temp_dir(), prefix)
    }

    /// Create a fresh directory under `base` (e.g. `/dev/shm` for
    /// ramdisk measurements that must stay on tmpfs).
    pub fn new_in(base: impl AsRef<Path>, prefix: &str) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base
            .as_ref()
            .join(format!("{prefix}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_is_created_and_removed() {
        let kept;
        {
            let td = TempDir::new("nvm_emu_tempdir_test").unwrap();
            kept = td.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(td.join("x.bin"), b"abc").unwrap();
        }
        assert!(!kept.exists(), "dropped TempDir must clean up");
    }

    #[test]
    fn two_tempdirs_never_collide() {
        let a = TempDir::new("nvm_emu_tempdir_test").unwrap();
        let b = TempDir::new("nvm_emu_tempdir_test").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
