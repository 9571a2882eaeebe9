//! Virtual-time rollups: interval-bucketed time series derived from
//! the trace.
//!
//! A [`Rollup`] is a pure function of the event stream — it never
//! looks at host state — and the merged cluster trace is
//! bit-identical at any `--threads N`, hence so is the rollup.
//!
//! Series are named by the `series::*` constants; values are plain
//! `u64` sums per bucket (bytes or nanoseconds or counts — per-bucket
//! *rates* are `value / bucket_ns` and left to presentation). Wear
//! rate is tracked through `nvm_write_bytes`: media writes are what
//! age PCM.

use nvm_trace::{TraceEvent, TraceEventKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default bucket width: one virtual second.
pub const DEFAULT_BUCKET_NS: u64 = 1_000_000_000;

/// Stable series names.
pub mod series {
    /// Bytes written to NVM media per bucket (drains + coordinated
    /// copies + durable-store staging) — the write-bandwidth and wear
    /// proxy.
    pub const NVM_WRITE_BYTES: &str = "nvm_write_bytes";
    /// Write-protection faults per bucket — the dirty-page rate.
    pub const DIRTY_FAULTS: &str = "dirty_faults";
    /// Interconnect bytes per bucket (remote shipping + recovery
    /// pulls) — link utilization.
    pub const LINK_BYTES: &str = "link_bytes";
    /// Helper copy nanoseconds per bucket (hidden checkpoint work).
    pub const PRECOPY_BUSY_NS: &str = "precopy_busy_ns";
    /// Pre-copied chunks invalidated per bucket (wasted copies).
    pub const PRECOPY_WASTE: &str = "precopy_waste";
    /// Collective-stall nanoseconds per bucket.
    pub const COMM_WAIT_NS: &str = "comm_wait_ns";
    /// Barrier-stall nanoseconds per bucket.
    pub const BARRIER_WAIT_NS: &str = "barrier_wait_ns";
    /// Durable-store staged bytes per bucket (spill/store residency
    /// growth).
    pub const STORE_WRITE_BYTES: &str = "store_write_bytes";
    /// Key-value serving operations per bucket (only populated when
    /// the kv store traces individual ops).
    pub const KV_OPS: &str = "kv_ops";
    /// CPR checkpoint tokens published per bucket.
    pub const KV_TOKENS: &str = "kv_tokens";
    /// Record-log bytes covered by tokens published in the bucket —
    /// how much serving state each token makes recoverable.
    pub const KV_TOKEN_LOG_BYTES: &str = "kv_token_log_bytes";
}

/// Interval-bucketed time series over `SimTime`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Rollup {
    /// Bucket width in virtual nanoseconds.
    pub bucket_ns: u64,
    /// Series name -> per-bucket sums. Trailing buckets may be
    /// missing (treat absent as zero); series only appear once they
    /// see a nonzero value, keeping quiet runs compact.
    pub series: BTreeMap<String, Vec<u64>>,
}

impl Rollup {
    /// Empty rollup with the given bucket width (must be nonzero).
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "rollup bucket width must be nonzero");
        Rollup {
            bucket_ns,
            series: BTreeMap::new(),
        }
    }

    /// Add `value` to `name`'s bucket containing `t_ns`. Zero values
    /// are dropped so series existence is value-driven, not
    /// event-driven.
    pub fn add(&mut self, name: &str, t_ns: u64, value: u64) {
        if value == 0 {
            return;
        }
        let bucket = (t_ns / self.bucket_ns) as usize;
        let row = self.series.entry(name.to_string()).or_default();
        if row.len() <= bucket {
            row.resize(bucket + 1, 0);
        }
        row[bucket] += value;
    }

    /// Fold one event into the rollup.
    pub fn record(&mut self, event: &TraceEvent) {
        let t = event.t_ns;
        match &event.kind {
            TraceEventKind::ProtectionFault { .. } => self.add(series::DIRTY_FAULTS, t, 1),
            TraceEventKind::PrecopyDrain { bytes, .. } => {
                self.add(series::NVM_WRITE_BYTES, t, *bytes)
            }
            TraceEventKind::PrecopyEnd { busy_ns, .. } => {
                self.add(series::PRECOPY_BUSY_NS, t, *busy_ns)
            }
            TraceEventKind::PrecopyWaste { .. } => self.add(series::PRECOPY_WASTE, t, 1),
            TraceEventKind::CoordinatedEnd { copied_bytes, .. } => {
                self.add(series::NVM_WRITE_BYTES, t, *copied_bytes)
            }
            TraceEventKind::RemoteTransfer { bytes, .. } => self.add(series::LINK_BYTES, t, *bytes),
            TraceEventKind::BarrierWait { wait_ns, .. } => {
                self.add(series::BARRIER_WAIT_NS, t, *wait_ns)
            }
            TraceEventKind::CommWait { wait_ns, .. } => self.add(series::COMM_WAIT_NS, t, *wait_ns),
            TraceEventKind::StoreWrite { bytes, .. } => {
                self.add(series::NVM_WRITE_BYTES, t, *bytes);
                self.add(series::STORE_WRITE_BYTES, t, *bytes);
            }
            TraceEventKind::RecoveryEnd { bytes, .. } => self.add(series::LINK_BYTES, t, *bytes),
            TraceEventKind::KvOp { .. } => self.add(series::KV_OPS, t, 1),
            TraceEventKind::KvCheckpointEnd { log_bytes, .. } => {
                self.add(series::KV_TOKENS, t, 1);
                self.add(series::KV_TOKEN_LOG_BYTES, t, *log_bytes);
            }
            _ => {}
        }
    }

    /// Build a rollup over a whole stream.
    pub fn from_events(events: &[TraceEvent], bucket_ns: u64) -> Self {
        let mut rollup = Rollup::new(bucket_ns);
        for event in events {
            rollup.record(event);
        }
        rollup
    }

    /// Number of buckets in the longest series.
    pub fn buckets(&self) -> usize {
        self.series.values().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ns: u64, rank: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { t_ns, rank, kind }
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            ev(0, 0, TraceEventKind::ProtectionFault { chunk: 1 }),
            ev(
                500,
                0,
                TraceEventKind::PrecopyDrain {
                    chunk: 1,
                    bytes: 64,
                    cost_ns: 9,
                },
            ),
            ev(
                1_500,
                1,
                TraceEventKind::RemoteTransfer {
                    bytes: 128,
                    incremental: true,
                    dur_ns: 300,
                },
            ),
            ev(
                2_000,
                1,
                TraceEventKind::StoreWrite {
                    chunk: 1,
                    bytes: 32,
                },
            ),
        ]
    }

    #[test]
    fn buckets_by_virtual_time() {
        let rollup = Rollup::from_events(&sample(), 1_000);
        assert_eq!(
            rollup.series[series::NVM_WRITE_BYTES],
            vec![64, 0, 32],
            "drain lands in bucket 0, store staging in bucket 2"
        );
        assert_eq!(rollup.series[series::LINK_BYTES], vec![0, 128]);
        assert_eq!(rollup.series[series::DIRTY_FAULTS], vec![1]);
        assert_eq!(rollup.buckets(), 3);
    }

    #[test]
    fn kv_events_land_in_their_series() {
        let events = vec![
            ev(
                100,
                0,
                TraceEventKind::KvOp {
                    op: "upsert".to_string(),
                    session: 0,
                    serial: 1,
                    hit: true,
                },
            ),
            ev(
                1_200,
                0,
                TraceEventKind::KvCheckpointEnd {
                    token: 1,
                    log_bytes: 4096,
                    sessions: 1,
                },
            ),
        ];
        let rollup = Rollup::from_events(&events, 1_000);
        assert_eq!(rollup.series[series::KV_OPS], vec![1]);
        assert_eq!(rollup.series[series::KV_TOKENS], vec![0, 1]);
        assert_eq!(rollup.series[series::KV_TOKEN_LOG_BYTES], vec![0, 4096]);
    }

    #[test]
    fn zero_values_do_not_materialize_series() {
        let events = vec![ev(0, 0, TraceEventKind::BarrierWait { id: 1, wait_ns: 0 })];
        let rollup = Rollup::from_events(&events, 1_000);
        assert!(rollup.series.is_empty());
    }
}
