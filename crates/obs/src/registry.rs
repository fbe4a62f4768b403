//! The metrics registry: named counters, gauges, and histograms with
//! get-or-register semantics and deterministic snapshots.
//!
//! Metric families live in two tiers. **Deterministic** metrics
//! (counters, gauges, value histograms) are pure functions of the data
//! the pipeline analyzed and appear in [`MetricsSnapshot::to_json`],
//! which the golden-run suite byte-compares. **Timing** histograms carry
//! wall-clock-derived durations; they are kept in a separate section and
//! only appear in [`MetricsSnapshot::to_json_full`], never in golden
//! output.

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
    operational: BTreeMap<String, Counter>,
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

    /// Returns the *operational* counter named `name`.
    ///
    /// Operational counters describe how this process ran — checkpoint
    /// shards written vs resumed, manifest rewrites, load warnings — not
    /// what the data contained. A resumed run legitimately differs from
    /// an uninterrupted one here, so like timings they are excluded from
    /// the deterministic export and appear only in
    /// [`MetricsSnapshot::to_json_full`].
    pub fn operational(&self, name: &str) -> Counter {
        let mut fam = self.lock();
        fam.operational.entry(name.to_string()).or_default().clone()
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
            operational: fam
                .operational
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            timings: fam
                .timings
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Replays a deterministic metrics delta into the live registry.
    ///
    /// The resume path's bulk write: counters are added and value
    /// histograms absorbed, creating metrics on first sight. Gauges and
    /// timings are deliberately ignored — gauges are point-in-time (not
    /// additive) and timings are wall-clock-derived, so neither belongs
    /// in a replayed checkpoint delta. Fails only on a histogram bucket
    /// layout conflict with an already-registered name.
    /// The call is all-or-nothing: every histogram layout is validated
    /// before any value moves, so a refused delta leaves the registry's
    /// data untouched (at most new empty metrics were registered).
    pub fn absorb(&self, delta: &MetricsSnapshot) -> Result<(), crate::ObsError> {
        let mut targets = Vec::with_capacity(delta.histograms.len());
        for (name, snap) in &delta.histograms {
            let buckets = Buckets::new(&snap.bounds)?;
            let hist = self.histogram(name, &buckets);
            if hist.buckets().bounds() != snap.bounds.as_slice() {
                return Err(crate::ObsError::BucketMismatch {
                    left: hist.buckets().bounds().to_vec(),
                    right: snap.bounds.clone(),
                });
            }
            targets.push((hist, snap));
        }
        for (hist, snap) in targets {
            hist.absorb_snapshot(snap)?;
        }
        for (name, value) in &delta.counters {
            self.counter(name).add(*value);
        }
        Ok(())
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
    /// Operational counters (checkpoint/resume bookkeeping), sorted by
    /// name. Excluded from [`MetricsSnapshot::to_json`] because resumed
    /// and uninterrupted runs legitimately differ here.
    pub operational: BTreeMap<String, u64>,
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
        self.write_deterministic_sections(&mut w);
        w.raw("}");
        w.finish()
    }

    /// Full JSON export including the non-deterministic `operational`
    /// and `timings` sections. Never byte-compare this.
    pub fn to_json_full(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        self.write_deterministic_sections(&mut w);
        w.key("operational");
        w.raw("{");
        for (name, value) in &self.operational {
            w.key(name);
            w.uint(*value);
        }
        w.raw("}");
        w.end_value();
        w.key("timings");
        write_histogram_map(&mut w, &self.timings);
        w.raw("}");
        w.finish()
    }

    /// The deterministic change between `earlier` and `self`.
    ///
    /// Used by the checkpoint layer to capture exactly what one shard
    /// contributed: take a snapshot before and after the shard runs
    /// (shards execute sequentially in checkpointed mode, so nothing
    /// else moves the counters in between) and persist the difference.
    /// Counters subtract; value histograms subtract bucket-wise when the
    /// layouts match (a layout change mid-run cannot happen — first
    /// registration wins — so a mismatch falls back to the later value
    /// whole). Zero counters and empty histograms are omitted. Gauges
    /// and timings are excluded: gauges are point-in-time and timings
    /// are wall-clock-derived, so neither can be replayed exactly.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut delta = MetricsSnapshot::default();
        for (name, later) in &self.counters {
            let before = earlier.counters.get(name).copied().unwrap_or(0);
            let diff = later.saturating_sub(before);
            if diff > 0 {
                delta.counters.insert(name.clone(), diff);
            }
        }
        for (name, later) in &self.histograms {
            let mut diff = later.clone();
            if let Some(before) = earlier.histograms.get(name) {
                if before.bounds == later.bounds {
                    for (d, b) in diff.counts.iter_mut().zip(&before.counts) {
                        *d = d.saturating_sub(*b);
                    }
                    diff.total = diff.total.saturating_sub(before.total);
                    diff.sum = diff.sum.saturating_sub(before.sum);
                }
            }
            if diff.total > 0 {
                delta.histograms.insert(name.clone(), diff);
            }
        }
        delta
    }

    fn write_deterministic_sections(&self, w: &mut JsonWriter) {
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
        write_histogram_map(w, &self.histograms);
        w.end_value();
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
    fn to_json_excludes_timings_and_full_includes_them() {
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
        let full = snap.to_json_full();
        assert!(full.contains("\"timings\""));
        assert!(full.contains("detect.nanos"));
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

    #[test]
    fn operational_counters_stay_out_of_the_deterministic_export() {
        let reg = MetricsRegistry::new();
        reg.counter("events").add(5);
        reg.operational("checkpoint.shards_resumed").add(3);
        let snap = reg.snapshot();
        let golden = snap.to_json();
        assert!(
            !golden.contains("checkpoint.shards_resumed") && !golden.contains("operational"),
            "operational counters leaked into the deterministic export: {golden}"
        );
        let full = snap.to_json_full();
        assert!(full.contains("\"operational\""));
        assert!(full.contains("\"checkpoint.shards_resumed\":3"));
        // And they never travel in a replayable delta either.
        let delta = snap.delta_since(&MetricsSnapshot::default());
        assert!(delta.operational.is_empty());
    }

    #[test]
    fn delta_then_absorb_reproduces_the_original_counters() {
        let buckets = Buckets::new(&[10, 100]).unwrap();
        let reg = MetricsRegistry::new();
        reg.counter("shard.before").add(3);
        reg.histogram("len", &buckets).observe(5);
        let before = reg.snapshot();

        reg.counter("shard.before").add(4);
        reg.counter("shard.new").add(7);
        reg.histogram("len", &buckets).observe(50);
        reg.histogram("len", &buckets).observe(500);
        // Untouched metrics must not appear in the delta at all.
        reg.gauge("depth").set(9);
        let delta = reg.snapshot().delta_since(&before);

        assert_eq!(delta.counters.get("shard.before"), Some(&4));
        assert_eq!(delta.counters.get("shard.new"), Some(&7));
        assert_eq!(delta.histograms["len"].total, 2);
        assert_eq!(delta.histograms["len"].counts, vec![0, 1, 1]);
        assert!(delta.gauges.is_empty(), "gauges are not replayable");
        assert!(delta.timings.is_empty(), "timings never leave the process");

        // Replaying the delta into a registry at the `before` state
        // reproduces the exact deterministic end state.
        let resumed = MetricsRegistry::new();
        resumed.counter("shard.before").add(3);
        resumed.histogram("len", &buckets).observe(5);
        resumed.absorb(&delta).unwrap();
        let end = resumed.snapshot();
        assert_eq!(end.counters, reg.snapshot().counters);
        assert_eq!(end.histograms, reg.snapshot().histograms);
    }

    #[test]
    fn absorb_refuses_conflicting_histogram_layouts() {
        let reg = MetricsRegistry::new();
        reg.histogram("len", &Buckets::new(&[10]).unwrap())
            .observe(1);
        let mut delta = MetricsSnapshot::default();
        delta.histograms.insert(
            "len".into(),
            HistogramSnapshot::empty(&Buckets::new(&[10, 20]).unwrap()),
        );
        assert!(reg.absorb(&delta).is_err());
    }
}
