//! The asynchronous checkpoint helper process (Table V).
//!
//! Each physical node runs one helper process responsible for remote
//! checkpoints. It maps the ranks' NVM metadata through the shared-NVM
//! interface, scans for `nvdirty` chunks, and ships them to the buddy
//! node. Its CPU cost has three components:
//!
//! * a per-chunk *scan* cost (the `nvdirty` query system call),
//! * a per-transfer *operation* cost (RDMA verb post + completion),
//! * the *copy* cost proper — staging bytes from NVM into registered
//!   NIC buffers at an effective software copy bandwidth.
//!
//! Pre-copy mode roughly doubles the helper's utilization (it scans
//! continuously and re-ships re-dirtied chunks) but, as Table V shows,
//! even the doubled utilization is a small share of one core — and
//! ~2.5% of a 12-core node.

use nvm_emu::SimDuration;
use nvm_metrics::{names, MetricsRegistry};
use serde::{Deserialize, Serialize};

/// Cost parameters of the helper.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HelperParams {
    /// Effective software copy bandwidth for one *bulk* burst (all
    /// checkpoint data aggregated and streamed at once): large
    /// sequential reads, amortized verb posting. Calibrated so
    /// Table V's no-pre-copy utilization (~13% of a core for
    /// ~4.4 GB/node per remote interval) is reproduced.
    pub bulk_bandwidth: f64,
    /// Effective copy bandwidth for *incremental* chunk-at-a-time
    /// pre-copy shipping: cache-cold chunk reads, per-chunk metadata
    /// and protection bookkeeping, interleaved with the application.
    /// Roughly half the bulk rate — this is why the paper's pre-copy
    /// helper utilization doubles while moving similar volume.
    pub incremental_bandwidth: f64,
    /// Fixed cost per transfer operation (RDMA post + completion).
    pub per_op: SimDuration,
    /// Cost per chunk scanned for `nvdirty` state.
    pub scan_per_chunk: SimDuration,
}

impl Default for HelperParams {
    fn default() -> Self {
        HelperParams {
            bulk_bandwidth: 576.0 * (1 << 20) as f64,
            incremental_bandwidth: 288.0 * (1 << 20) as f64,
            per_op: SimDuration::from_micros(50),
            scan_per_chunk: SimDuration::from_micros(2),
        }
    }
}

/// Helper accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HelperStats {
    /// CPU-busy time.
    pub busy: SimDuration,
    /// Wall (virtual) time the helper has existed.
    pub elapsed: SimDuration,
    /// Bytes shipped.
    pub bytes_copied: u64,
    /// Transfer operations issued.
    pub copy_ops: u64,
    /// Dirty-scan sweeps performed.
    pub scans: u64,
}

/// Field-exhaustive accumulation (no `..` in the destructuring): a
/// field added to [`HelperStats`] will not compile until this merge
/// handles it, so cluster-level helper totals cannot silently drop it.
/// Also provides [`nvm_metrics::MergeStats`] via its blanket impl.
impl std::ops::AddAssign<&HelperStats> for HelperStats {
    fn add_assign(&mut self, rhs: &HelperStats) {
        let HelperStats {
            busy,
            elapsed,
            bytes_copied,
            copy_ops,
            scans,
        } = *rhs;
        self.busy += busy;
        self.elapsed += elapsed;
        self.bytes_copied += bytes_copied;
        self.copy_ops += copy_ops;
        self.scans += scans;
    }
}

impl HelperStats {
    /// Add these totals to the `helper_*_total` counters of `reg` —
    /// the only path from a helper's totals into a registry,
    /// destructured as exhaustively as the merge above.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        let HelperStats {
            busy,
            elapsed,
            bytes_copied,
            copy_ops,
            scans,
        } = *self;
        reg.publish_totals([
            (names::HELPER_BUSY_NS_TOTAL, busy.as_nanos()),
            (names::HELPER_ELAPSED_NS_TOTAL, elapsed.as_nanos()),
            (names::HELPER_BYTES_COPIED_TOTAL, bytes_copied),
            (names::HELPER_COPY_OPS_TOTAL, copy_ops),
            (names::HELPER_SCANS_TOTAL, scans),
        ]);
    }

    /// Aggregate utilization over merged stats (`busy / elapsed`).
    pub fn cpu_utilization(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.elapsed.as_secs_f64()
        }
    }
}

/// The per-node helper process model.
#[derive(Clone, Debug)]
pub struct HelperProcess {
    params: HelperParams,
    stats: HelperStats,
    /// This helper's registry for the transfer-size distribution;
    /// `None` (one branch per transfer) by default.
    metrics: Option<MetricsRegistry>,
}

impl HelperProcess {
    /// A helper with default cost parameters.
    pub fn new() -> Self {
        Self::with_params(HelperParams::default())
    }

    /// A helper with explicit parameters.
    pub fn with_params(params: HelperParams) -> Self {
        HelperProcess {
            params,
            stats: HelperStats::default(),
            metrics: None,
        }
    }

    /// Attach a registry: the transfer-size distribution, which has no
    /// stats twin, records into it. Totals are
    /// [`HelperStats::publish`]ed instead. Pass `None` to detach.
    pub fn set_metrics(&mut self, metrics: Option<MetricsRegistry>) {
        self.metrics = metrics;
    }

    /// This helper's registry (`None` unless attached).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Charge one dirty-scan over `chunks` chunk records. Returns the
    /// CPU time consumed.
    pub fn scan(&mut self, chunks: usize) -> SimDuration {
        let cost = self.params.scan_per_chunk * chunks as u64;
        self.stats.busy += cost;
        self.stats.scans += 1;
        cost
    }

    /// Charge the CPU cost of shipping one chunk of `bytes` through
    /// the *incremental* pre-copy path. Returns the CPU time consumed
    /// (wire time is the link's business).
    pub fn copy_chunk(&mut self, bytes: u64) -> SimDuration {
        self.copy_at(bytes, self.params.incremental_bandwidth)
    }

    /// Charge the CPU cost of shipping `bytes` as part of one *bulk*
    /// burst (the no-pre-copy path: everything aggregated and
    /// streamed).
    pub fn copy_bulk(&mut self, bytes: u64) -> SimDuration {
        self.copy_at(bytes, self.params.bulk_bandwidth)
    }

    fn copy_at(&mut self, bytes: u64, bandwidth: f64) -> SimDuration {
        let cost = self.params.per_op + SimDuration::for_transfer(bytes, bandwidth);
        self.stats.busy += cost;
        self.stats.bytes_copied += bytes;
        self.stats.copy_ops += 1;
        if let Some(m) = &mut self.metrics {
            m.observe(names::HELPER_TRANSFER_BYTES, bytes);
        }
        cost
    }

    /// Advance the helper's wall clock (busy or idle — busy time is
    /// charged separately by `scan`/`copy_chunk`).
    pub fn advance(&mut self, dur: SimDuration) {
        self.stats.elapsed += dur;
    }

    /// CPU utilization of the dedicated helper core, in [0, 1+].
    pub fn cpu_utilization(&self) -> f64 {
        self.stats.cpu_utilization()
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> HelperStats {
        self.stats
    }
}

impl Default for HelperProcess {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let mut h = HelperProcess::new();
        h.copy_bulk(576 * MB); // exactly 1 s of bulk copy at default bw
        h.advance(SimDuration::from_secs(10));
        let u = h.cpu_utilization();
        assert!((u - 0.1).abs() < 0.01, "expected ~10%, got {u}");
    }

    #[test]
    fn incremental_copies_cost_about_twice_bulk() {
        let mut a = HelperProcess::new();
        let mut b = HelperProcess::new();
        let bulk = a.copy_bulk(100 * MB);
        let incr = b.copy_chunk(100 * MB);
        let ratio = incr.as_secs_f64() / bulk.as_secs_f64();
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn table5_no_precopy_magnitude() {
        // Table V row 1: 370 MB/core, 12 cores, one remote interval of
        // ~60 s, burst-shipping everything once -> ~12.85% of a core.
        let mut h = HelperProcess::new();
        for _ in 0..12 {
            h.copy_bulk(370 * MB);
        }
        h.advance(SimDuration::from_secs(60));
        let u = h.cpu_utilization();
        assert!(
            (0.10..0.17).contains(&u),
            "expected ~13% helper utilization, got {u}"
        );
    }

    #[test]
    fn precopy_doubles_utilization_via_rescans_and_recopies() {
        // Pre-copy mode: continuous scanning + ~1.8x effective copy
        // volume (re-dirtied chunks shipped again) + many more ops.
        let mut h = HelperProcess::new();
        let chunks_per_rank = 31; // LAMMPS's chunk count
        for _ in 0..600 {
            h.scan(12 * chunks_per_rank); // 100 ms poll over 60 s
        }
        for _ in 0..12 {
            h.copy_chunk(370 * MB); // incremental shipping per interval
        }
        h.advance(SimDuration::from_secs(60));
        let u = h.cpu_utilization();
        assert!(
            (0.18..0.33).contains(&u),
            "expected ~25% helper utilization, got {u}"
        );
    }

    #[test]
    fn idle_helper_has_zero_utilization() {
        let mut h = HelperProcess::new();
        h.advance(SimDuration::from_secs(100));
        assert_eq!(h.cpu_utilization(), 0.0);
        let h2 = HelperProcess::new();
        assert_eq!(h2.cpu_utilization(), 0.0, "no elapsed time yet");
    }

    #[test]
    fn stats_merge_combines_every_field() {
        let a = HelperStats {
            busy: SimDuration::from_nanos(1),
            elapsed: SimDuration::from_nanos(2),
            bytes_copied: 3,
            copy_ops: 4,
            scans: 5,
        };
        let mut total = a;
        total += &a;
        assert_eq!(total.busy, SimDuration::from_nanos(2));
        assert_eq!(total.elapsed, SimDuration::from_nanos(4));
        assert_eq!(total.bytes_copied, 6);
        assert_eq!(total.copy_ops, 8);
        assert_eq!(total.scans, 10);
        assert_eq!(total.cpu_utilization(), 0.5);
    }

    #[test]
    fn publish_names_every_field() {
        let mut reg = MetricsRegistry::new();
        HelperStats::default().publish(&mut reg);
        assert!(reg.is_empty(), "zero totals publish no key");
        HelperStats {
            busy: SimDuration::from_nanos(1),
            elapsed: SimDuration::from_nanos(2),
            bytes_copied: 3,
            copy_ops: 4,
            scans: 5,
        }
        .publish(&mut reg);
        assert_eq!(
            reg.snapshot().counters,
            [
                (names::HELPER_BUSY_NS_TOTAL, 1),
                (names::HELPER_ELAPSED_NS_TOTAL, 2),
                (names::HELPER_BYTES_COPIED_TOTAL, 3),
                (names::HELPER_COPY_OPS_TOTAL, 4),
                (names::HELPER_SCANS_TOTAL, 5),
            ]
            .map(|(names::Counter(name), v)| (name.to_string(), v))
            .into()
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut h = HelperProcess::new();
        h.set_metrics(Some(MetricsRegistry::new()));
        h.scan(100);
        h.copy_chunk(MB);
        h.copy_bulk(2 * MB);
        let s = h.stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.copy_ops, 2);
        assert_eq!(s.bytes_copied, 3 * MB);
        assert!(!s.busy.is_zero());
        // The only live metric is the transfer-size distribution.
        let snap = h.metrics().unwrap().snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        let hist = snap.histogram(names::HELPER_TRANSFER_BYTES).unwrap();
        assert_eq!(hist.count, s.copy_ops);
        assert_eq!(hist.max, 2 * MB);
    }
}
