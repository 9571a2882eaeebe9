//! Metric registries: one per recorder, written through `&mut`.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::names::{Counter, Gauge, Hist};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A set of named metrics, one map per kind. Each method takes the
/// name type of its own kind, so a name cannot be recorded as a kind
/// it is not:
///
/// ```
/// use nvm_metrics::{names, MetricsRegistry};
/// let mut reg = MetricsRegistry::new();
/// reg.observe(names::KV_OP_NS, 1);
/// assert_eq!(reg.snapshot().histogram(names::KV_OP_NS).unwrap().count, 1);
/// ```
///
/// ```compile_fail
/// use nvm_metrics::{names, MetricsRegistry};
/// let mut reg = MetricsRegistry::new();
/// reg.counter_add(names::KV_OP_NS, 1); // a histogram name is not a counter
/// ```
///
/// Names are `&'static str` so steady-state updates allocate nothing;
/// iteration order (and therefore snapshot and export order) is each
/// `BTreeMap`'s name order — stable across runs, thread counts, and
/// platforms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Monotone sums; merge by addition.
    counters: BTreeMap<&'static str, u64>,
    /// High-water marks (peak rates); merge by max, so the
    /// cluster-level value is the worst rank/node.
    gauges: BTreeMap<&'static str, u64>,
    /// Log2-bucketed distributions; merge bucketwise. A histogram is
    /// 65 fixed buckets, held in place so `observe` reaches it without
    /// a pointer chase.
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter (created at 0).
    pub fn counter_add(&mut self, Counter(name): Counter, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Add a stats struct's `(name, total)` pairs to their counters —
    /// what every `publish` body calls. Zero totals create no entry,
    /// so a published key is present exactly when its event happened.
    pub fn publish_totals(&mut self, totals: impl IntoIterator<Item = (Counter, u64)>) {
        for (name, total) in totals {
            if total != 0 {
                self.counter_add(name, total);
            }
        }
    }

    /// Raise the gauge to at least `value` (created at `value`).
    pub fn gauge_max(&mut self, Gauge(name): Gauge, value: u64) {
        let v = self.gauges.entry(name).or_insert(value);
        *v = (*v).max(value);
    }

    /// Record one sample into the histogram.
    pub fn observe(&mut self, Hist(name): Hist, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the max, histograms merge bucketwise. Every combination rule is
    /// commutative and associative, but callers (the cluster
    /// coordinator) still merge in rank order to mirror the trace-merge
    /// discipline.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let mine = self.gauges.entry(name).or_insert(*v);
            *mine = (*mine).max(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge_from(h);
        }
    }

    /// Serializable snapshot with stable (name-sorted) ordering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn owned<V, W>(map: &BTreeMap<&str, V>, f: impl Fn(&V) -> W) -> BTreeMap<String, W> {
            map.iter().map(|(n, v)| (n.to_string(), f(v))).collect()
        }
        MetricsSnapshot {
            counters: owned(&self.counters, |v| *v),
            gauges: owned(&self.gauges, |v| *v),
            histograms: owned(&self.histograms, Histogram::snapshot),
        }
    }
}

/// Serializable registry contents. `BTreeMap` keys keep the JSON
/// byte-stable: same run → same bytes, regardless of thread count.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to 0 when absent.
    pub fn counter(&self, Counter(name): Counter) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, defaulting to 0 when absent.
    pub fn gauge(&self, Gauge(name): Gauge) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if recorded.
    pub fn histogram(&self, Hist(name): Hist) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// A by-name counter handle borrowed from a [`Metrics`] shim: each
/// [`CounterHandle::add`] is one [`MetricsRegistry::counter_add`].
#[derive(Clone, Copy, Debug)]
pub struct CounterHandle<'a> {
    registry: &'a RefCell<MetricsRegistry>,
    name: Counter,
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
    name: Hist,
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
            name: Counter(name),
        }
    }

    /// A handle that records into the histogram `name`.
    pub fn histogram_handle(&self, name: &'static str) -> HistogramHandle<'_> {
        HistogramHandle {
            registry: &self.registry,
            name: Hist(name),
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
        r.counter_add(Counter("c"), 2);
        r.counter_add(Counter("c"), 3);
        r.gauge_max(Gauge("g"), 10);
        r.gauge_max(Gauge("g"), 4);
        r.observe(Hist("h"), 100);
        r.observe(Hist("h"), 3);
        let s = r.snapshot();
        assert_eq!(s.counter(Counter("c")), 5);
        assert_eq!(s.gauge(Gauge("g")), 10);
        let h = s.histogram(Hist("h")).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 100);
        assert_eq!(s.counter(Counter("missing")), 0);
    }

    #[test]
    fn merge_combines_by_type() {
        let mut a = MetricsRegistry::new();
        a.counter_add(Counter("c"), 1);
        a.gauge_max(Gauge("g"), 7);
        a.observe(Hist("h"), 10);
        let mut b = MetricsRegistry::new();
        b.counter_add(Counter("c"), 2);
        b.counter_add(Counter("only_b"), 9);
        b.gauge_max(Gauge("g"), 3);
        b.observe(Hist("h"), 2000);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "merge is commutative");
        let s = ab.snapshot();
        assert_eq!(s.counter(Counter("c")), 3);
        assert_eq!(s.counter(Counter("only_b")), 9);
        assert_eq!(s.gauge(Gauge("g")), 7);
        assert_eq!(s.histogram(Hist("h")).unwrap().count, 2);
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
        direct.counter_add(Counter("c"), 2);
        direct.counter_add(Counter("c"), 5);
        direct.observe(Hist("h"), 100);
        direct.observe(Hist("h"), 3);
        assert_eq!(target, direct);
        assert_eq!(target.snapshot().counter(Counter("c")), 7);
        assert_eq!(target.snapshot().histogram(Hist("h")).unwrap().max, 100);
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
        assert_eq!(
            target.counters.len() + target.gauges.len() + target.histograms.len(),
            1
        );
        assert_eq!(target.snapshot().counter(Counter("zero")), 0);
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
        assert_eq!(target.snapshot().counter(Counter("c")), 3);
    }

    #[test]
    fn snapshot_json_is_name_ordered() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Counter("zebra"), 1);
        r.counter_add(Counter("alpha"), 1);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        let a = json.find("alpha").unwrap();
        let z = json.find("zebra").unwrap();
        assert!(a < z, "keys must serialize in sorted order: {json}");
    }
}
