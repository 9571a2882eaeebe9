//! Interconnect link model.
//!
//! The paper's testbed uses 40 Gb/s InfiniBand. A [`Link`] models one
//! node's NIC: transfers are charged `bytes / (capacity / flows)` and
//! recorded into a [`UsageTrace`]. The link also computes the
//! *contention penalty* an application communication phase suffers
//! when checkpoint traffic shares the wire: the slowdown is
//! proportional to the checkpoint's instantaneous share of link
//! bandwidth — which is exactly why pre-copy (low, flat rate) beats a
//! post-checkpoint burst (full-rate) even at equal data volume.

use crate::trace::UsageTrace;
use nvm_emu::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// 40 Gb/s InfiniBand payload bandwidth in bytes/second (QDR 4x,
/// ~80% protocol efficiency).
pub const IB_40GBPS: f64 = 4.0e9;

/// Statistics for one link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Number of transfer operations.
    pub transfers: u64,
    /// Accumulated busy time.
    pub busy: SimDuration,
}

/// One node's NIC/link.
#[derive(Clone, Debug)]
pub struct Link {
    capacity: f64,
    trace: UsageTrace,
    stats: LinkStats,
    /// Per-transfer setup latency (RDMA verb post + completion).
    setup: SimDuration,
}

impl Link {
    /// A link with `capacity` bytes/s and 1-second trace buckets.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        Link {
            capacity,
            trace: UsageTrace::new(SimDuration::from_secs(1)),
            stats: LinkStats::default(),
            setup: SimDuration::from_micros(5),
        }
    }

    /// The paper's 40 Gb/s InfiniBand link.
    pub fn infiniband_40g() -> Self {
        Self::new(IB_40GBPS)
    }

    /// Link capacity in bytes/s.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Charge a transfer of `bytes` starting at `now`, as one of
    /// `flows` concurrent streams sharing the link. Records the span in
    /// the usage trace and returns its duration.
    pub fn transfer(&mut self, now: SimTime, bytes: u64, flows: usize) -> SimDuration {
        let share = self.capacity / flows.max(1) as f64;
        let dur = self.setup + SimDuration::for_transfer(bytes, share);
        self.trace.record(now, now + dur, bytes);
        self.stats.bytes_sent += bytes;
        self.stats.transfers += 1;
        self.stats.busy += dur;
        dur
    }

    /// Charge a transfer whose bytes are *spread* over a longer window
    /// (a throttled background pre-copy stream): records `bytes` across
    /// `[now, now + window)` and returns the window. The instantaneous
    /// rate is `bytes / window`, which is what keeps the peak low.
    pub fn transfer_spread(
        &mut self,
        now: SimTime,
        bytes: u64,
        window: SimDuration,
    ) -> SimDuration {
        let min_dur = SimDuration::for_transfer(bytes, self.capacity);
        let dur = window.max(min_dur);
        self.trace.record(now, now + dur, bytes);
        self.stats.bytes_sent += bytes;
        self.stats.transfers += 1;
        self.stats.busy += min_dur; // wire occupancy, not wall window
        dur
    }

    /// Slowdown an application communication of `app_bytes` suffers
    /// when the checkpoint stream is running at `ckpt_rate` bytes/s on
    /// this link: the app's achievable bandwidth shrinks to
    /// `capacity - ckpt_rate` (floored at 10% of capacity).
    pub fn contention_delay(&self, app_bytes: u64, ckpt_rate: f64) -> SimDuration {
        let free = (self.capacity - ckpt_rate).max(self.capacity * 0.1);
        let contended = SimDuration::for_transfer(app_bytes, free);
        let clean = SimDuration::for_transfer(app_bytes, self.capacity);
        contended - clean
    }

    /// The usage trace.
    pub fn trace(&self) -> &UsageTrace {
        &self.trace
    }

    /// Link statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_capacity() {
        let mut l = Link::new(1e9);
        let d = l.transfer(SimTime::ZERO, 500_000_000, 1);
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-4);
        assert_eq!(l.stats().bytes_sent, 500_000_000);
    }

    #[test]
    fn flows_share_capacity() {
        let mut l = Link::new(1e9);
        let solo = l.transfer(SimTime::ZERO, 100_000_000, 1);
        let shared = l.transfer(SimTime::ZERO, 100_000_000, 4);
        assert!(shared.as_secs_f64() / solo.as_secs_f64() > 3.5);
    }

    #[test]
    fn spread_transfer_flattens_trace() {
        let mut burst_link = Link::new(1e9);
        let mut spread_link = Link::new(1e9);
        let bytes = 800_000_000u64;
        burst_link.transfer(SimTime::from_secs(10), bytes, 1);
        spread_link.transfer_spread(SimTime::from_secs(2), bytes, SimDuration::from_secs(16));
        let burst_peak = burst_link.trace().peak_bytes();
        let spread_peak = spread_link.trace().peak_bytes();
        assert!(
            burst_peak > 2.0 * spread_peak,
            "burst {burst_peak} vs spread {spread_peak}"
        );
        assert_eq!(
            burst_link.trace().total_bytes(),
            spread_link.trace().total_bytes()
        );
    }

    #[test]
    fn spread_cannot_exceed_capacity() {
        let mut l = Link::new(1e6);
        // 10 MB cannot move in 1 s over a 1 MB/s link.
        let d = l.transfer_spread(SimTime::ZERO, 10_000_000, SimDuration::from_secs(1));
        assert!(d.as_secs_f64() >= 10.0);
    }

    #[test]
    fn contention_grows_with_checkpoint_rate() {
        let l = Link::new(1e9);
        let none = l.contention_delay(100_000_000, 0.0);
        let half = l.contention_delay(100_000_000, 5e8);
        let full = l.contention_delay(100_000_000, 1e9);
        assert_eq!(none, SimDuration::ZERO);
        assert!(half > none);
        assert!(full > half);
        // Floor: app never fully starves.
        assert!(full.as_secs_f64() < 1.0);
    }

    #[test]
    fn infiniband_constant() {
        let l = Link::infiniband_40g();
        assert_eq!(l.capacity(), IB_40GBPS);
    }
}
