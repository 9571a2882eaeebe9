//! Hardware parameter models (Table I of the paper).
//!
//! | Attribute          | DRAM      | PCM      |
//! |--------------------|-----------|----------|
//! | Write bandwidth    | ~8 GB/s   | ~2 GB/s  |
//! | Page write latency | ~20-50 ns | ~1 us    |
//! | Page read latency  | ~20-50 ns | ~50 ns   |
//! | Write endurance    | 10^16     | 10^8     |
//! | Write energy/bit   | 1x        | ~40x     |

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Which physical technology a device emulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Volatile DRAM.
    Dram,
    /// Phase-change memory (the paper's primary NVM model).
    Pcm,
}

impl DeviceKind {
    /// Whether contents survive power loss / process restart.
    pub fn is_persistent(self) -> bool {
        !matches!(self, DeviceKind::Dram)
    }
}

/// Performance/endurance model for one memory device.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Device technology.
    pub kind: DeviceKind,
    /// Peak sequential write bandwidth, bytes/second (whole device).
    pub write_bandwidth: f64,
    /// Peak sequential read bandwidth, bytes/second (whole device).
    pub read_bandwidth: f64,
    /// Latency to write one page (first-touch cost on top of bandwidth).
    pub page_write_latency: SimDuration,
    /// Latency to read one page.
    pub page_read_latency: SimDuration,
    /// Write endurance: how many writes a cell survives.
    pub write_endurance: u64,
    /// Energy per bit written, picojoules.
    pub write_energy_pj_per_bit: f64,
}

impl DeviceParams {
    /// Table-I DRAM: 8 GB/s, 35 ns page access (midpoint of 20-50 ns),
    /// effectively unbounded endurance, 1x energy.
    pub fn dram() -> Self {
        DeviceParams {
            kind: DeviceKind::Dram,
            write_bandwidth: 8.0e9,
            read_bandwidth: 8.0e9,
            page_write_latency: SimDuration::from_nanos(35),
            page_read_latency: SimDuration::from_nanos(35),
            write_endurance: 10u64.pow(16),
            write_energy_pj_per_bit: 1.0,
        }
    }

    /// Table-I PCM: 2 GB/s write bandwidth, 1 us page write, 50 ns page
    /// read, 10^8 endurance, 40x write energy. Read bandwidth is modeled
    /// at DRAM-like 8 GB/s — the paper states "read speeds of NVMs are
    /// comparable to DRAM".
    pub fn pcm() -> Self {
        DeviceParams {
            kind: DeviceKind::Pcm,
            write_bandwidth: 2.0e9,
            read_bandwidth: 8.0e9,
            page_write_latency: SimDuration::from_micros(1),
            page_read_latency: SimDuration::from_nanos(50),
            write_endurance: 10u64.pow(8),
            write_energy_pj_per_bit: 40.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_headline_ratios() {
        let pcm = DeviceParams::pcm();
        // Paper: "write latencies are 10x higher" (order of magnitude;
        // 1 us vs 20-50 ns is 20-50x, we assert >= 10x).
        let dram = DeviceParams::dram();
        assert!(pcm.page_write_latency.as_nanos() >= 10 * dram.page_write_latency.as_nanos());
        // "overall bandwidth is 4x lower compared to DRAM"
        assert!((dram.write_bandwidth / pcm.write_bandwidth - 4.0).abs() < 1e-9);
        // "10^8 write durability compared to 10^16 for DRAM"
        assert_eq!(pcm.write_endurance, 100_000_000);
        assert_eq!(dram.write_endurance, 10u64.pow(16));
        // "40 times higher write energy/bit"
        assert!((pcm.write_energy_pj_per_bit / 1.0 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn persistence_flags() {
        assert!(!DeviceKind::Dram.is_persistent());
        assert!(DeviceKind::Pcm.is_persistent());
    }
}
