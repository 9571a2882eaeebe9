//! Emulated byte-addressable non-volatile memory (NVM) and DRAM devices.
//!
//! This crate is the hardware substrate for the NVM-checkpoints
//! reproduction. The original paper (Kannan et al., IPDPS 2013) emulates
//! PCM by reserving a DRAM partition and injecting copy delays derived
//! from the LANL parallel-memcpy benchmark; this crate does the same
//! thing in-process:
//!
//! * [`time`] — a shared virtual clock ([`time::VirtualClock`]) and
//!   [`time::SimTime`]/[`time::SimDuration`] arithmetic. All performance
//!   experiments run in virtual time so paper-scale data sizes (hundreds
//!   of megabytes per rank) cost microseconds of wall time.
//! * [`params`] — the Table-I hardware model: DRAM vs PCM bandwidth,
//!   page read/write latency, write endurance and write energy per bit.
//! * [`bandwidth`] — the parallel-memcpy contention model behind Figure 4
//!   of the paper: effective per-core copy bandwidth as a function of
//!   concurrent copier count and buffer size.
//! * [`device`] — [`device::MemoryDevice`]: an emulated memory device
//!   holding *regions* of bytes (materialized or synthetic), charging
//!   virtual time for reads/writes/flushes.
//! * [`idmap`] — [`idmap::IdMap`]: the hash table for keys that are
//!   already numbers (region ids here, chunk ids in `nvm-paging`).
//! * `hostmem` — where a RAM-backed region's bytes live: a 2 MiB-aligned
//!   mapping for a region of [`HUGE_PAGE`] bytes or more, huge pages
//!   asked for the blocks a write covers whole ([`mapped_bytes`]
//!   counts them), and all of this crate's `unsafe`.
//!
//! Devices are deliberately *passive*: they expose cost functions and
//! record statistics but never advance a clock themselves. Callers (the
//! checkpoint engine, the cluster simulator) decide concurrency levels
//! and advance their own clocks, which keeps every cost model unit
//! testable in isolation.
//!
//! ```
//! use nvm_emu::{MemoryDevice, VirtualClock};
//!
//! let clock = VirtualClock::new();
//! let pcm = MemoryDevice::pcm(16 << 20);
//! let region = pcm.alloc(4096).unwrap();
//! let cost = pcm.write(region, 0, &[7u8; 4096], /* concurrency */ 1).unwrap();
//! clock.advance(cost);
//! // PCM writes are slow: a page costs microseconds, not nanoseconds.
//! assert!(cost.as_nanos() >= 1_000);
//! let mut back = [0u8; 4096];
//! pcm.read(region, 0, &mut back, 1).unwrap();
//! assert_eq!(back[0], 7);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bandwidth;
pub mod device;
pub mod error;
#[allow(unsafe_code)]
mod hostmem;
pub mod idmap;
pub mod params;
pub mod spill;
pub mod tempdir;
pub mod time;
pub mod wearmap;

pub use bandwidth::BandwidthModel;
pub use device::{DeviceGuard, DeviceStats, MemoryDevice, RegionId};
pub use error::DeviceError;
pub use hostmem::{mapped_bytes, HUGE_PAGE};
pub use params::{DeviceKind, DeviceParams};
pub use spill::{MemSpill, SpillStore};
pub use tempdir::TempDir;
pub use time::{SimDuration, SimTime, VirtualClock};

/// Page size used throughout the emulation (matches Linux x86-64).
pub const PAGE_SIZE: usize = 4096;

/// Round `bytes` up to a whole number of pages.
#[inline]
pub fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for(10 * PAGE_SIZE), 10);
    }
}
