//! Metric registries: one per recorder, written through `&mut`.

use crate::histogram::{Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

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

/// A by-name counter handle borrowed from a [`Metrics`] shim: each
/// [`CounterHandle::add`] is one [`MetricsRegistry::counter_add`].
#[derive(Clone, Copy, Debug)]
pub struct CounterHandle<'a> {
    registry: &'a RefCell<MetricsRegistry>,
    name: &'static str,
}

impl CounterHandle<'_> {
    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.registry.borrow_mut().counter_add(self.name, delta);
    }
}

/// A by-name histogram handle borrowed from a [`Metrics`] shim: each
/// [`HistogramHandle::observe`] is one [`MetricsRegistry::observe`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramHandle<'a> {
    registry: &'a RefCell<MetricsRegistry>,
    name: &'static str,
}

impl HistogramHandle<'_> {
    /// Record one sample.
    pub fn observe(&self, value: u64) {
        self.registry.borrow_mut().observe(self.name, value);
    }
}

/// A cold shim over one [`MetricsRegistry`], kept only because the
/// benchmark's `nvm-metrics.fold_us` probe is pinned to
/// `Metrics::{new, counter_handle, histogram_handle, merge_into}`.
/// Nothing in the workspace records through it: every recorder owns
/// an `Option<MetricsRegistry>` and writes it through `&mut`. ROADMAP
/// item 1 re-pins the probe to [`MetricsRegistry::merge_from`] and
/// deletes this shim.
#[derive(Debug, Default)]
pub struct Metrics {
    registry: RefCell<MetricsRegistry>,
}

impl Metrics {
    /// A shim over an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle that adds to the counter `name`.
    pub fn counter_handle(&self, name: &'static str) -> CounterHandle<'_> {
        CounterHandle {
            registry: &self.registry,
            name,
        }
    }

    /// A handle that records into the histogram `name`.
    pub fn histogram_handle(&self, name: &'static str) -> HistogramHandle<'_> {
        HistogramHandle {
            registry: &self.registry,
            name,
        }
    }

    /// Fold the registry into `target` ([`MetricsRegistry::merge_from`]).
    pub fn merge_into(&self, target: &mut MetricsRegistry) {
        target.merge_from(&self.registry.borrow());
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
    fn handles_fold_into_registry_like_locked_path() {
        let m = Metrics::new();
        let c = m.counter_handle("c");
        let h = m.histogram_handle("h");
        c.add(2);
        c.add(5);
        h.observe(100);
        h.observe(3);
        let mut target = MetricsRegistry::new();
        m.merge_into(&mut target);
        let mut direct = MetricsRegistry::new();
        direct.counter_add("c", 2);
        direct.counter_add("c", 5);
        direct.observe("h", 100);
        direct.observe("h", 3);
        assert_eq!(target, direct);
        assert_eq!(target.snapshot().counter("c"), 7);
        assert_eq!(target.snapshot().histogram("h").unwrap().max, 100);
    }

    #[test]
    fn resolving_alone_creates_no_entries() {
        let m = Metrics::new();
        let _c = m.counter_handle("never_touched");
        let _h = m.histogram_handle("never_observed");
        let mut target = MetricsRegistry::new();
        m.merge_into(&mut target);
        assert!(target.is_empty());
        // A zero-delta add still creates the counter, as
        // `counter_add(name, 0)` does.
        m.counter_handle("zero").add(0);
        m.merge_into(&mut target);
        assert_eq!(target.metrics.len(), 1);
        assert_eq!(target.snapshot().counter("zero"), 0);
    }

    #[test]
    fn repeated_resolution_shares_one_cell() {
        let m = Metrics::new();
        let a = m.counter_handle("c");
        let b = m.counter_handle("c");
        a.add(1);
        b.add(2);
        let mut target = MetricsRegistry::new();
        m.merge_into(&mut target);
        assert_eq!(target.snapshot().counter("c"), 3);
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
