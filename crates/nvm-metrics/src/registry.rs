//! Metric registries and the shared recording handle.

use crate::histogram::{bucket_index, Histogram, HistogramSnapshot, BUCKET_COUNT};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One named metric.
///
/// The histogram variant is large (65 fixed buckets), but registries
/// hold a handful of long-lived entries and `observe` resolves them
/// in place through the map — boxing would add a pointer chase to the
/// hot path to shrink a map node that is never moved.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Monotone sum; merges by addition.
    Counter(u64),
    /// High-water mark (peak rates, largest residue); merges by max,
    /// so the cluster-level value is the worst rank/node.
    Gauge(i64),
    /// Log2-bucketed distribution; merges bucketwise.
    Histogram(Histogram),
}

/// A set of named metrics. Names are `&'static str` so steady-state
/// updates allocate nothing; iteration order (and therefore snapshot
/// and export order) is the `BTreeMap`'s name order — stable across
/// runs, thread counts, and platforms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<&'static str, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at 0).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.metrics.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Add a stats struct's `(name, total)` pairs to their counters —
    /// what every `publish` body calls. Zero totals create no entry,
    /// so a published key is present exactly when its event happened.
    pub fn publish_totals(&mut self, totals: impl IntoIterator<Item = (&'static str, u64)>) {
        for (name, total) in totals {
            if total != 0 {
                self.counter_add(name, total);
            }
        }
    }

    /// Raise the named gauge to at least `value` (created at `value`).
    pub fn gauge_max(&mut self, name: &'static str, value: i64) {
        match self.metrics.entry(name).or_insert(Metric::Gauge(value)) {
            Metric::Gauge(v) => *v = (*v).max(value),
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Record one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        match self
            .metrics
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.record(value),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Fold a complete histogram into the named entry (used when
    /// draining pre-resolved [`HistogramHandle`]s back into a
    /// registry).
    fn merge_histogram(&mut self, name: &'static str, other: &Histogram) {
        match self
            .metrics
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.merge_from(other),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the max, histograms merge bucketwise. Every combination rule is
    /// commutative and associative, but callers (the cluster
    /// coordinator) still merge in rank order to mirror the trace-merge
    /// discipline. Panics if the same name has different metric types.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, theirs) in &other.metrics {
            match self.metrics.entry(name) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(theirs.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), theirs) {
                        (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                        (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(*b),
                        (Metric::Histogram(a), Metric::Histogram(b)) => a.merge_from(b),
                        (mine, theirs) => {
                            panic!("metric {name} type mismatch: {mine:?} vs {theirs:?}")
                        }
                    }
                }
            }
        }
    }

    /// Serializable snapshot with stable (name-sorted) ordering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(v) => {
                    snap.counters.insert(name.to_string(), *v);
                }
                Metric::Gauge(v) => {
                    snap.gauges.insert(name.to_string(), *v);
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.to_string(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// Serializable registry contents. `BTreeMap` keys keep the JSON
/// byte-stable: same run → same bytes, regardless of thread count.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, defaulting to 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// A counter cell shared between a [`CounterHandle`] and the registry
/// that will eventually fold it in. `touched` distinguishes "added
/// zero" from "never updated" so folding never invents entries the
/// locked path would not have created.
#[derive(Default)]
struct SharedCounter {
    value: AtomicU64,
    touched: AtomicBool,
}

/// A histogram cell shared between a [`HistogramHandle`] and the
/// registry. All fields are atomics updated with commutative ops
/// (bucket add, count add, sum add, max), so concurrent observers
/// produce bit-identical folded state regardless of interleaving.
struct SharedHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for SharedHistogram {
    fn default() -> Self {
        SharedHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl SharedHistogram {
    fn to_histogram(&self) -> Histogram {
        Histogram::from_parts(
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Pre-resolved metric cells, keyed by name so folding back into the
/// registry stays name-ordered and repeated resolution of the same
/// name shares one cell.
#[derive(Default)]
struct Resolved {
    counters: BTreeMap<&'static str, Arc<SharedCounter>>,
    histograms: BTreeMap<&'static str, Arc<SharedHistogram>>,
}

struct MetricsInner {
    registry: Mutex<MetricsRegistry>,
    resolved: Mutex<Resolved>,
}

/// A pre-resolved counter: one relaxed atomic add per update — no
/// mutex, no name lookup. Obtained from [`Metrics::counter_handle`];
/// the cell is folded into the registry on
/// [`Metrics::registry`]/[`Metrics::merge_into`]. u64 adds are
/// commutative, so a handle shared by concurrently executing ranks is
/// bit-deterministic. A handle from a disabled [`Metrics`] is a
/// branch-only no-op.
#[derive(Clone, Default)]
pub struct CounterHandle {
    cell: Option<Arc<SharedCounter>>,
}

impl CounterHandle {
    /// A no-op handle (what a disabled [`Metrics`] hands out).
    pub fn disabled() -> Self {
        CounterHandle::default()
    }

    /// True when updates reach a registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Add `delta` to the counter. No-op when disabled.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_add(delta, Ordering::Relaxed);
            cell.touched.store(true, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for CounterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A pre-resolved histogram: a few relaxed atomic ops per sample.
/// Obtained from [`Metrics::histogram_handle`]; same folding and
/// determinism story as [`CounterHandle`]. The one semantic nuance vs
/// the locked path: `sum` wraps instead of saturating, which diverges
/// only past `u64::MAX` total — unreachable for the nanosecond/byte
/// quantities recorded here.
#[derive(Clone, Default)]
pub struct HistogramHandle {
    cell: Option<Arc<SharedHistogram>>,
}

impl HistogramHandle {
    /// A no-op handle (what a disabled [`Metrics`] hands out).
    pub fn disabled() -> Self {
        HistogramHandle::default()
    }

    /// True when updates reach a registry.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Record one sample. No-op when disabled.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(value, Ordering::Relaxed);
            cell.max.fetch_max(value, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Clonable recording handle: `None` (the default) is disabled and
/// every update is a single branch; enabled handles share one registry
/// behind a mutex. All updates are
/// commutative (add/max/bucket-add), so a registry shared by
/// concurrently executing ranks is still bit-deterministic.
///
/// Per-operation paths (the kv store's) should pre-resolve names once
/// via [`Metrics::counter_handle`]/[`Metrics::histogram_handle`] and
/// update through the returned lock-free cells; the name-keyed
/// `counter_add`/`gauge_max`/`observe` methods lock the registry and
/// walk the name map on every call, which is fine per epoch or per
/// protection fault.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Metrics {
    /// Disabled handle; every update is a no-op costing one branch.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// Enabled handle over a fresh registry.
    pub fn new() -> Self {
        Metrics {
            inner: Some(Arc::new(MetricsInner {
                registry: Mutex::new(MetricsRegistry::new()),
                resolved: Mutex::new(Resolved::default()),
            })),
        }
    }

    /// True when a registry is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to a counter. No-op when disabled.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().unwrap().counter_add(name, delta);
        }
    }

    /// Raise a gauge to at least `value`. No-op when disabled.
    #[inline]
    pub fn gauge_max(&self, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().unwrap().gauge_max(name, value);
        }
    }

    /// Record a histogram sample. No-op when disabled.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().unwrap().observe(name, value);
        }
    }

    /// Run `f` on the attached registry — how stats-struct `publish`
    /// methods reach it. No-op when disabled.
    pub fn update(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.registry.lock().expect("metrics registry poisoned"));
        }
    }

    /// Pre-resolve a counter name into a lock-free handle. Repeated
    /// resolution of the same name shares one cell; the cell's total
    /// is folded into the registry when it is read or merged, summed
    /// with any locked-path `counter_add`s to the same name.
    pub fn counter_handle(&self, name: &'static str) -> CounterHandle {
        let Some(inner) = &self.inner else {
            return CounterHandle::disabled();
        };
        let mut resolved = inner.resolved.lock().unwrap();
        let cell = resolved.counters.entry(name).or_default();
        CounterHandle {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// Pre-resolve a histogram name into a lock-free handle (see
    /// [`Metrics::counter_handle`]).
    pub fn histogram_handle(&self, name: &'static str) -> HistogramHandle {
        let Some(inner) = &self.inner else {
            return HistogramHandle::disabled();
        };
        let mut resolved = inner.resolved.lock().unwrap();
        let cell = resolved.histograms.entry(name).or_default();
        HistogramHandle {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// Copy of the attached registry (empty when disabled), with all
    /// pre-resolved cells folded in.
    pub fn registry(&self) -> MetricsRegistry {
        let Some(inner) = &self.inner else {
            return MetricsRegistry::new();
        };
        let mut reg = inner.registry.lock().unwrap().clone();
        Self::fold_resolved(&inner.resolved.lock().unwrap(), &mut reg);
        reg
    }

    /// Merge the attached registry (with pre-resolved cells folded in)
    /// into `target`. No-op when disabled.
    pub fn merge_into(&self, target: &mut MetricsRegistry) {
        if let Some(inner) = &self.inner {
            target.merge_from(&inner.registry.lock().unwrap());
            Self::fold_resolved(&inner.resolved.lock().unwrap(), target);
        }
    }

    /// Fold pre-resolved cells into `reg`, skipping never-touched
    /// cells so resolution alone never creates entries.
    fn fold_resolved(resolved: &Resolved, reg: &mut MetricsRegistry) {
        for (name, cell) in &resolved.counters {
            if cell.touched.load(Ordering::Relaxed) {
                reg.counter_add(name, cell.value.load(Ordering::Relaxed));
            }
        }
        for (name, cell) in &resolved.histograms {
            if cell.count.load(Ordering::Relaxed) > 0 {
                reg.merge_histogram(name, &cell.to_histogram());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_record_and_snapshot() {
        let mut r = MetricsRegistry::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_max("g", 10);
        r.gauge_max("g", 4);
        r.observe("h", 100);
        r.observe("h", 3);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.gauge("g"), 10);
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 100);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn merge_combines_by_type() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.gauge_max("g", 7);
        a.observe("h", 10);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.counter_add("only_b", 9);
        b.gauge_max("g", 3);
        b.observe("h", 2000);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "merge is commutative");
        let s = ab.snapshot();
        assert_eq!(s.counter("c"), 3);
        assert_eq!(s.counter("only_b"), 9);
        assert_eq!(s.gauge("g"), 7);
        assert_eq!(s.histogram("h").unwrap().count, 2);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn merge_rejects_type_clash() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        let mut b = MetricsRegistry::new();
        b.gauge_max("x", 1);
        a.merge_from(&b);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        m.counter_add("c", 1);
        m.observe("h", 1);
        assert!(m.registry().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.counter_add("c", 1);
        m2.counter_add("c", 1);
        assert_eq!(m.registry().snapshot().counter("c"), 2);
        let mut target = MetricsRegistry::new();
        m.merge_into(&mut target);
        assert_eq!(target.snapshot().counter("c"), 2);
    }

    #[test]
    fn handles_fold_into_registry_like_locked_path() {
        let m = Metrics::new();
        let c = m.counter_handle("c");
        let h = m.histogram_handle("h");
        c.add(2);
        m.counter_add("c", 3); // locked path to the same name sums in
        c.add(5);
        h.observe(100);
        h.observe(3);
        m.observe("h", 7);
        let s = m.registry().snapshot();
        assert_eq!(s.counter("c"), 10);
        let hs = s.histogram("h").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.max, 100);
        // merge_into folds identically.
        let mut target = MetricsRegistry::new();
        m.merge_into(&mut target);
        assert_eq!(target.snapshot(), s);
    }

    #[test]
    fn resolving_alone_creates_no_entries() {
        let m = Metrics::new();
        let _c = m.counter_handle("never_touched");
        let _h = m.histogram_handle("never_observed");
        assert!(m.registry().is_empty());
        // A zero-delta add still marks the counter live, matching the
        // locked path (counter_add(name, 0) creates the entry).
        m.counter_handle("zero").add(0);
        assert_eq!(m.registry().metrics.len(), 1);
        assert_eq!(m.registry().snapshot().counter("zero"), 0);
    }

    #[test]
    fn repeated_resolution_shares_one_cell() {
        let m = Metrics::new();
        let a = m.counter_handle("c");
        let b = m.counter_handle("c");
        a.add(1);
        b.add(2);
        assert_eq!(m.registry().snapshot().counter("c"), 3);
    }

    #[test]
    fn disabled_handles_are_noops() {
        let m = Metrics::disabled();
        let c = m.counter_handle("c");
        let h = m.histogram_handle("h");
        assert!(!c.enabled());
        assert!(!h.enabled());
        c.add(1);
        h.observe(1);
        assert!(m.registry().is_empty());
    }

    #[test]
    fn snapshot_json_is_name_ordered() {
        let mut r = MetricsRegistry::new();
        r.counter_add("zebra", 1);
        r.counter_add("alpha", 1);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        let a = json.find("alpha").unwrap();
        let z = json.find("zebra").unwrap();
        assert!(a < z, "keys must serialize in sorted order: {json}");
    }
}
