//! # nvm-metrics — deterministic metrics for the checkpoint simulator
//!
//! Where `nvm-trace` records *events*, this crate records *aggregates*:
//! counters, high-water-mark gauges, and log2-bucketed histograms whose
//! percentiles come from integer buckets. Three properties drive the
//! design:
//!
//! 1. **Determinism.** No registry is shared: each recorder (a rank's
//!    engine, a node's helper, the coordinator) owns its own
//!    [`MetricsRegistry`] and writes it through `&mut`, so nothing is
//!    locked or atomic. Every merge is commutative (add, max, bucket
//!    add), and the coordinator folds the registries in rank order,
//!    then node order, so a threaded run reproduces the serial run
//!    exactly. Percentiles use integer arithmetic only.
//! 2. **Allocation-light.** Metric names are `&'static str` (see
//!    [`names`]); steady-state updates touch a `BTreeMap` entry and
//!    never allocate. Histograms are fixed 65-slot arrays.
//! 3. **One branch when disabled.** A recorder holds an
//!    `Option<MetricsRegistry>`; "off" is `None`, and every update is
//!    a single `Option` test, keeping the un-instrumented quick preset
//!    at wall-clock parity.
//!
//! Exports: Prometheus text exposition ([`to_prometheus_text`]) and a
//! stable-ordered JSON [`MetricsReport`] (raw [`MetricsSnapshot`] plus
//! [`DerivedMetrics`], the paper-facing quantities). The [`MergeStats`]
//! trait backs exhaustive stat-struct aggregation in the cluster
//! coordinator.

pub mod derived;
pub mod export;
pub mod histogram;
pub mod merge;
pub mod names;
pub mod registry;

pub use derived::{DerivedMetrics, MetricsReport};
pub use export::{to_prometheus_text, validate_prometheus_text};
pub use histogram::{bucket_index, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use merge::MergeStats;
pub use registry::{Metric, Metrics, MetricsRegistry, MetricsSnapshot};
