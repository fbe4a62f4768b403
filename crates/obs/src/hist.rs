//! Fixed-bucket histograms with exact merge semantics.
//!
//! A [`Histogram`] counts observations into a fixed set of buckets defined
//! by strictly increasing upper bounds plus an implicit overflow bucket.
//! Because the layout is fixed at construction, two snapshots taken from
//! histograms with the same [`Buckets`] merge *exactly*: the merged
//! snapshot is identical to one taken from a single histogram that saw the
//! union of both observation streams. That property (associativity,
//! commutativity, count preservation) is what lets per-shard metrics from
//! the MapReduce layers be combined without approximation, and is pinned
//! by property tests in `crates/obs/tests/properties.rs`.

#[expect(clippy::disallowed_types, reason = "reasoned on `HistogramInner`")]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ObsError;

/// A validated, strictly increasing set of bucket upper bounds.
///
/// An observation `v` lands in the first bucket whose bound satisfies
/// `v <= bound`; values above every bound land in the implicit overflow
/// bucket, so a histogram with `n` bounds has `n + 1` counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buckets {
    bounds: Arc<[u64]>,
}

impl Buckets {
    /// Validates `bounds` as strictly increasing and non-empty.
    pub fn new(bounds: &[u64]) -> Result<Self, ObsError> {
        if bounds.is_empty() {
            return Err(ObsError::InvalidBuckets("no bucket bounds given".into()));
        }
        for pair in bounds.windows(2) {
            if pair[1] <= pair[0] {
                return Err(ObsError::InvalidBuckets(format!(
                    "bounds must be strictly increasing, got {} then {}",
                    pair[0], pair[1]
                )));
            }
        }
        Ok(Self {
            bounds: bounds.into(),
        })
    }

    /// Exponential bounds: `base, base*factor, base*factor^2, ...` for
    /// `count` buckets. `base` must be nonzero and `factor` at least 2 so
    /// the sequence stays strictly increasing; growth saturates at
    /// `u64::MAX`, which also caps the useful bucket count.
    pub fn exponential(base: u64, factor: u64, count: usize) -> Result<Self, ObsError> {
        if base == 0 {
            return Err(ObsError::InvalidBuckets("base must be nonzero".into()));
        }
        if factor < 2 {
            return Err(ObsError::InvalidBuckets("factor must be >= 2".into()));
        }
        let mut bounds = Vec::with_capacity(count);
        let mut next = base;
        for _ in 0..count {
            if bounds.last() == Some(&next) {
                break; // saturated at u64::MAX
            }
            bounds.push(next);
            next = next.saturating_mul(factor);
        }
        Self::new(&bounds)
    }

    /// The configured upper bounds (overflow bucket excluded).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Index of the bucket an observation falls into, counting the
    /// overflow bucket as `bounds().len()`.
    fn index_of(&self, value: u64) -> usize {
        // Buckets are few (tens); a linear scan beats binary search on
        // cache behaviour and keeps the code obviously correct.
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }
}

/// A thread-safe fixed-bucket histogram.
///
/// Cloning yields a handle to the same underlying counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Buckets,
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "bucket counts are independent monotone counters; snapshots tolerate torn cross-bucket reads and exact totals are taken after join, so Relaxed suffices"
)]
struct HistogramInner {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram with the given bucket layout.
    #[expect(clippy::disallowed_types, reason = "builds `HistogramInner`'s cells")]
    pub fn new(buckets: Buckets) -> Self {
        let counts = (0..=buckets.bounds().len())
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            buckets,
            inner: Arc::new(HistogramInner {
                counts,
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.buckets.index_of(value);
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.total.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    ///
    /// The snapshot is internally consistent for any quiescent histogram;
    /// under concurrent writes individual counters may lag each other by
    /// in-flight observations, which is the usual relaxed-counter trade.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.buckets.bounds().to_vec(),
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            total: self.inner.total.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a histogram's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; `counts` has one extra entry for overflow.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the given layout.
    pub fn empty(buckets: &Buckets) -> Self {
        Self {
            bounds: buckets.bounds().to_vec(),
            counts: vec![0; buckets.bounds().len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Exact merge: adds `other`'s counters into `self`.
    ///
    /// Refused with [`ObsError::BucketMismatch`] if the layouts differ —
    /// merging differently-bucketed histograms cannot be exact.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), ObsError> {
        if self.bounds != other.bounds {
            return Err(ObsError::BucketMismatch {
                left: self.bounds.clone(),
                right: other.bounds.clone(),
            });
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_non_increasing_bounds() {
        assert!(Buckets::new(&[]).is_err());
        assert!(Buckets::new(&[1, 1]).is_err());
        assert!(Buckets::new(&[5, 3]).is_err());
        assert!(Buckets::new(&[1, 2, 10]).is_ok());
    }

    #[test]
    fn exponential_bounds_grow_and_saturate() {
        let b = Buckets::exponential(1, 2, 8).unwrap();
        assert_eq!(b.bounds(), &[1, 2, 4, 8, 16, 32, 64, 128]);
        // Saturation truncates rather than producing duplicate bounds.
        let b = Buckets::exponential(u64::MAX / 2, 4, 5).unwrap();
        assert_eq!(b.bounds(), &[u64::MAX / 2, u64::MAX]);
        assert!(Buckets::exponential(0, 2, 4).is_err());
        assert!(Buckets::exponential(1, 1, 4).is_err());
    }

    #[test]
    fn observations_land_in_expected_buckets() {
        let h = Histogram::new(Buckets::new(&[10, 100]).unwrap());
        h.observe(0);
        h.observe(10); // inclusive upper bound
        h.observe(11);
        h.observe(100);
        h.observe(101); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1]);
        assert_eq!(s.total, 5);
        assert_eq!(s.sum, 222);
    }

    #[test]
    fn clones_share_counters() {
        let h = Histogram::new(Buckets::new(&[10]).unwrap());
        let h2 = h.clone();
        h.observe(1);
        h2.observe(2);
        assert_eq!(h.snapshot().total, 2);
    }

    #[test]
    fn merge_is_exact() {
        let buckets = Buckets::new(&[10, 100]).unwrap();
        let a = Histogram::new(buckets.clone());
        let b = Histogram::new(buckets.clone());
        let union = Histogram::new(buckets);
        for v in [1u64, 5, 50, 500] {
            a.observe(v);
            union.observe(v);
        }
        for v in [2u64, 60, 600, 7] {
            b.observe(v);
            union.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot()).unwrap();
        assert_eq!(merged, union.snapshot());
    }

    #[test]
    fn merge_refuses_mismatched_layouts() {
        let mut a = HistogramSnapshot::empty(&Buckets::new(&[10]).unwrap());
        let b = HistogramSnapshot::empty(&Buckets::new(&[10, 20]).unwrap());
        assert!(matches!(a.merge(&b), Err(ObsError::BucketMismatch { .. })));
    }
}
