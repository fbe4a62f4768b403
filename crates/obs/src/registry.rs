//! The metrics registry: named counters, gauges, and histograms with
//! get-or-register semantics and deterministic snapshots.
//!
//! Metric families live in two tiers. **Deterministic** metrics
//! (counters, gauges, value histograms) are pure functions of the data
//! the pipeline analyzed and appear in [`MetricsSnapshot::to_json`],
//! which the golden-run suite byte-compares. **Timing** histograms carry
//! wall-clock-derived durations; they are kept in the snapshot's separate
//! [`MetricsSnapshot::timings`] field and never reach golden output.

use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "reasoned on `Counter` and `Gauge`")]
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::hist::{Buckets, Histogram, HistogramSnapshot};
use crate::json::JsonWriter;

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a counter is an independent monotone cell read only via point loads; exactness comes from merge-after-join, not ordering, so Relaxed suffices"
)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a gauge is an independent cell read only via point loads; no other data is published through it, so Relaxed suffices"
)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Histogram>,
}

/// A process-wide (or pipeline-wide) collection of named metrics.
///
/// Handles returned by the accessors are cheap clones backed by atomics,
/// so hot paths register once and update lock-free. Registration uses
/// get-or-register semantics: the first registration of a histogram name
/// fixes its bucket layout and later calls return the existing handle
/// regardless of the buckets they pass (first registration wins).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Families>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut fam = self.lock();
        fam.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut fam = self.lock();
        fam.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns the *deterministic* value histogram named `name`.
    ///
    /// These record data-derived values (series lengths, candidate
    /// counts) and appear in golden output.
    pub fn histogram(&self, name: &str, buckets: &Buckets) -> Histogram {
        let mut fam = self.lock();
        fam.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(buckets.clone()))
            .clone()
    }

    /// Returns the *timing* histogram named `name`.
    ///
    /// These record wall-clock-derived durations and are quarantined out
    /// of the deterministic export.
    pub fn timing(&self, name: &str, buckets: &Buckets) -> Histogram {
        let mut fam = self.lock();
        fam.timings
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(buckets.clone()))
            .clone()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let fam = self.lock();
        MetricsSnapshot {
            counters: fam
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: fam
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: fam
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            timings: fam
                .timings
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Locks the family table, recovering from poisoning: the data is
    /// plain maps of handles, always structurally valid, and metrics must
    /// never take the pipeline down.
    fn lock(&self) -> MutexGuard<'_, Families> {
        self.families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// An owned snapshot of a registry, suitable for export and comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, sorted by name.
    pub gauges: BTreeMap<String, i64>,
    /// Deterministic value histograms, sorted by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock timing histograms, sorted by name. Excluded from
    /// [`MetricsSnapshot::to_json`].
    pub timings: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Deterministic JSON export: counters, gauges, and value histograms
    /// in stable key order. Timings are deliberately absent so this
    /// string is byte-identical across runs on identical input.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("counters");
        w.raw("{");
        for (name, value) in &self.counters {
            w.key(name);
            w.uint(*value);
        }
        w.raw("}");
        w.end_value();
        w.key("gauges");
        w.raw("{");
        for (name, value) in &self.gauges {
            w.key(name);
            w.int(*value);
        }
        w.raw("}");
        w.end_value();
        w.key("histograms");
        write_histogram_map(&mut w, &self.histograms);
        w.end_value();
        w.raw("}");
        w.finish()
    }
}

fn write_histogram_map(w: &mut JsonWriter, map: &BTreeMap<String, HistogramSnapshot>) {
    w.raw("{");
    for (name, snap) in map {
        w.key(name);
        w.raw("{");
        w.key("bounds");
        w.raw("[");
        for b in &snap.bounds {
            w.uint(*b);
        }
        w.raw("]");
        w.end_value();
        w.key("counts");
        w.raw("[");
        for c in &snap.counts {
            w.uint(*c);
        }
        w.raw("]");
        w.end_value();
        w.key("total");
        w.uint(snap.total);
        w.key("sum");
        w.uint(snap.sum);
        w.raw("}");
        w.end_value();
    }
    w.raw("}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counters["hits"], 3);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.snapshot().gauges["depth"], 7);
    }

    #[test]
    fn histogram_first_registration_wins() {
        let reg = MetricsRegistry::new();
        let first = Buckets::new(&[10, 100]).unwrap();
        let second = Buckets::new(&[5]).unwrap();
        let h1 = reg.histogram("len", &first);
        let h2 = reg.histogram("len", &second);
        h1.observe(1);
        h2.observe(2);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["len"].bounds, vec![10, 100]);
        assert_eq!(snap.histograms["len"].total, 2);
    }

    #[test]
    fn to_json_excludes_timings_and_the_snapshot_keeps_them() {
        let reg = MetricsRegistry::new();
        reg.counter("events").add(5);
        let buckets = Buckets::new(&[1_000]).unwrap();
        reg.timing("detect.nanos", &buckets).observe(42);
        let snap = reg.snapshot();
        let golden = snap.to_json();
        assert!(golden.contains("\"events\":5"));
        assert!(
            !golden.contains("timings") && !golden.contains("detect.nanos"),
            "deterministic export leaked timing data: {golden}"
        );
        assert_eq!(snap.timings["detect.nanos"].total, 1);
    }

    #[test]
    fn json_is_stable_key_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        let json = reg.snapshot().to_json();
        let alpha = json.find("alpha").unwrap();
        let zeta = json.find("zeta").unwrap();
        assert!(alpha < zeta, "keys must serialise sorted: {json}");
    }

    #[test]
    fn empty_registry_exports_empty_sections() {
        let json = MetricsRegistry::new().snapshot().to_json();
        assert_eq!(json, r#"{"counters":{},"gauges":{},"histograms":{}}"#);
    }
}
