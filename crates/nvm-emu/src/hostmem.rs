//! Host memory for the bytes of a RAM-backed region, and all of this
//! crate's `unsafe`.
//!
//! A region of at least [`HUGE_PAGE`] bytes takes them from a private
//! anonymous mapping aligned to [`HUGE_PAGE`], which the kernel zeroes
//! page by page on first touch and which is unmapped when the region
//! goes. Before a write reaches a range of it, [`HostBytes::advise`]
//! asks for huge pages (`MADV_HUGEPAGE`) over exactly the aligned
//! blocks the range covers whole, so filling a 4 MiB chunk takes two
//! faults instead of a thousand, and a block that is only partly
//! written never gets a huge page: advising whole regions grew the
//! resident set by 10–30 %. The advice needs transparent huge pages set
//! to `madvise` or `always`; under `never` it does nothing. Its result
//! is ignored, since it only affects speed.
//!
//! A smaller region, and every region on a platform other than 64-bit
//! Linux or where the mapping fails, takes a zeroed `Vec`.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::ops::{Deref, DerefMut, Range};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A transparent huge page: the alignment of a mapped region and the
/// block its advice covers.
pub const HUGE_PAGE: usize = 2 << 20;

/// Region bytes mapped over the process's life, summed.
static MAPPED: AtomicU64 = AtomicU64::new(0);

/// Bytes of RAM-backed regions that took their bytes from a mapping
/// rather than from the allocator, summed over the process's life:
/// with the allocator's large requests, what regions asked the host
/// for (`tests/commit_allocations.rs`).
pub fn mapped_bytes() -> u64 {
    MAPPED.load(Relaxed)
}

/// The blocks of [`HUGE_PAGE`] bytes, aligned to it, that
/// `written` covers whole, as a range of the same bytes; `None` when
/// it covers none.
fn covered_blocks(written: Range<usize>) -> Option<Range<usize>> {
    let start = written.start.next_multiple_of(HUGE_PAGE);
    let end = written.end / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

/// The bytes a RAM-backed region holds.
pub(crate) enum HostBytes {
    /// From the allocator.
    Heap(Vec<u8>),
    /// From a mapping of their own.
    Mapped(Mapping),
}

impl Default for HostBytes {
    fn default() -> Self {
        HostBytes::Heap(Vec::new())
    }
}

impl HostBytes {
    /// `len` bytes that begin with `prefix` and are zeros after it,
    /// advised for the write of `written` that grows a region to them.
    pub(crate) fn grown(prefix: &[u8], len: usize, written: Range<usize>) -> Self {
        let mut bytes = match Mapping::new(len) {
            Some(mapping) => HostBytes::Mapped(mapping),
            None => HostBytes::Heap(vec![0u8; len]),
        };
        bytes.advise(written);
        bytes[..prefix.len()].copy_from_slice(prefix);
        bytes
    }

    /// Ask for huge pages over the blocks `written` covers whole, before
    /// it is written (module docs); past these bytes it covers none.
    /// Nothing for bytes from the heap.
    pub(crate) fn advise(&self, written: Range<usize>) {
        if let HostBytes::Mapped(mapping) = self {
            let written = written.start..written.end.min(mapping.len());
            if let Some(blocks) = covered_blocks(written) {
                sys::advise_huge(&mapping[blocks]);
            }
        }
    }
}

impl Deref for HostBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            HostBytes::Heap(bytes) => bytes,
            HostBytes::Mapped(mapping) => mapping,
        }
    }
}

impl DerefMut for HostBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            HostBytes::Heap(bytes) => bytes,
            HostBytes::Mapped(mapping) => mapping,
        }
    }
}

/// `len` bytes of a private anonymous mapping that starts on a
/// [`HUGE_PAGE`] boundary and spans whole huge pages; owned like a
/// `Box<[u8]>` and unmapped on drop.
pub(crate) struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: a `Mapping` is the only handle to its pages, like the `Box`
// it stands in for: nothing else reads or writes them, and moving it
// to another thread or sharing `&Mapping` gives no more access than a
// `Box<[u8]>` does.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`; `&Mapping` lends only `&[u8]`.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// A zeroed mapping of `len` bytes, counted in [`mapped_bytes`];
    /// `None` under [`HUGE_PAGE`] or when none can be made.
    fn new(len: usize) -> Option<Self> {
        if len < HUGE_PAGE {
            return None;
        }
        let ptr = sys::map_aligned(len.next_multiple_of(HUGE_PAGE))?;
        MAPPED.fetch_add(len as u64, Relaxed);
        Some(Mapping { ptr, len })
    }
}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` starts `len` readable, initialized (zero-filled
        // by the kernel) bytes that this mapping owns until it drops.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Mapping {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as for `deref`, and `&mut self` makes the lend unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr` was returned by `map_aligned` for these whole
        // huge pages, and no lend of them outlives `self`.
        unsafe { sys::unmap(self.ptr, self.len.next_multiple_of(HUGE_PAGE)) }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::HUGE_PAGE;
    use std::ffi::{c_int, c_void};
    use std::ptr::{null_mut, NonNull};

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    /// `len` (whole huge pages) zeroed bytes starting on a huge-page
    /// boundary: one huge page more is mapped, and the ends past the
    /// boundaries are unmapped.
    pub(super) fn map_aligned(len: usize) -> Option<NonNull<u8>> {
        let reserved = len.checked_add(HUGE_PAGE)?;
        // SAFETY: a fresh private anonymous mapping at an address the
        // kernel chooses aliases no memory of the process.
        let base = unsafe {
            mmap(
                null_mut(),
                reserved,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            return None;
        }
        let head = (base as usize).next_multiple_of(HUGE_PAGE) - base as usize;
        let base = base.cast::<u8>();
        // SAFETY: both ranges lie inside the mapping just made, which
        // nothing else knows of, and begin and end on page boundaries
        // (`head` and `HUGE_PAGE - head` are differences of page-aligned
        // addresses). A failed unmap leaves only unused address space.
        unsafe {
            if head > 0 {
                munmap(base.cast(), head);
            }
            if head < HUGE_PAGE {
                munmap(base.add(head + len).cast(), HUGE_PAGE - head);
            }
            NonNull::new(base.add(head))
        }
    }

    /// Unmap `len` bytes at `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr + len` is a mapping from [`map_aligned`] that nothing
    /// lends any more.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, len: usize) {
        // SAFETY: the caller's contract.
        unsafe { munmap(ptr.as_ptr().cast(), len) };
    }

    /// Advise huge pages over `blocks`, whole huge pages of a mapping.
    pub(super) fn advise_huge(blocks: &[u8]) {
        // SAFETY: `blocks` is memory this process owns, and the advice
        // changes none of its bytes, only how the kernel backs them.
        unsafe {
            madvise(
                blocks.as_ptr().cast_mut().cast(),
                blocks.len(),
                MADV_HUGEPAGE,
            )
        };
    }
}

/// Elsewhere no mapping is made, so regions keep their `Vec`.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::ptr::NonNull;

    pub(super) fn map_aligned(_len: usize) -> Option<NonNull<u8>> {
        None
    }

    /// Nothing to unmap.
    ///
    /// # Safety
    /// None needed: no mapping is ever made here.
    pub(super) unsafe fn unmap(_ptr: NonNull<u8>, _len: usize) {}

    pub(super) fn advise_huge(_blocks: &[u8]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    #[test]
    fn a_write_covers_only_the_aligned_blocks_it_spans_whole() {
        let blocks = |start, len| covered_blocks(start..start + len);
        assert_eq!(blocks(0, MB), None, "under one block");
        assert_eq!(blocks(0, HUGE_PAGE - 1), None);
        assert_eq!(blocks(MB, HUGE_PAGE), None, "straddles a boundary");
        assert_eq!(blocks(MB, 3 * HUGE_PAGE), Some(HUGE_PAGE..3 * HUGE_PAGE));
        assert_eq!(blocks(0, HUGE_PAGE), Some(0..HUGE_PAGE), "aligned");
        let aligned = blocks(2 * HUGE_PAGE, 2 * HUGE_PAGE);
        assert_eq!(aligned, Some(2 * HUGE_PAGE..4 * HUGE_PAGE));
        assert_eq!(
            blocks(0, 2 * HUGE_PAGE - 1),
            Some(0..HUGE_PAGE),
            "ends mid-block"
        );
        assert_eq!(blocks(7, 2 * HUGE_PAGE), Some(HUGE_PAGE..2 * HUGE_PAGE));
        assert_eq!(blocks(HUGE_PAGE, 0), None, "no bytes");
    }
}
