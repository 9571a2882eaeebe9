//! User-space virtual-memory layer for NVM-checkpoints.
//!
//! The paper's NVM kernel manager extends the Linux memory manager with
//! NVM paging, per-process persistent metadata, page/chunk write
//! protection and an `nvdirty` bit per NVM page. This crate models all
//! of those kernel mechanisms in user space, faithfully enough that the
//! checkpoint engine above it exercises the same logic:
//!
//! * [`page`] — per-page state: present / write-protected / dirty /
//!   `nvdirty` flags and a page-range bitmap.
//! * [`protection`] — the MMU model: chunk-level (or, for the ablation,
//!   page-level) write protection, protection-fault delivery with the
//!   paper's 6-12 µs fault cost, and dirty-chunk tracking.
//! * [`metadata`] — the per-process persistent metadata region: chunk
//!   records serialized into an NVM region so a restarted process can
//!   rediscover its checkpoint state (the paper's `nvmmap` + metadata
//!   structure + restart path).

#![warn(missing_docs)]

pub mod metadata;
pub mod page;
pub mod protection;

pub use metadata::{ChunkRecord, ChunkTable, MetadataRegion, ProcessMetadata, RecordRef};
pub use page::{PageFlags, PageMap};
pub use protection::{FaultCostModel, Granularity, Mmu, ProtectionStats, WriteOutcome};

use serde::{Deserialize, Serialize};

/// Identifier of a checkpoint chunk (a named application data
/// structure allocated through the NVM interfaces).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ChunkId(pub u64);

/// Generate a stable chunk id from a variable name — the paper's
/// `genid(varname)` interface. FNV-1a over the UTF-8 bytes.
pub fn genid(varname: &str) -> ChunkId {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in varname.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    ChunkId(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genid_is_stable_and_distinct() {
        assert_eq!(genid("zion"), genid("zion"));
        assert_ne!(genid("electrons"), genid("ions"));
        assert_ne!(genid(""), genid(" "));
    }
}
