//! Discrete time-series construction from raw event timestamps.
//!
//! BAYWATCH's data-extraction phase (§VII-A) turns the request timestamps of
//! a communication pair into an *ActivitySummary* — a first timestamp plus a
//! list of inter-arrival intervals at some time scale. For spectral analysis
//! the events are binned into a count series `x(n)` with a fixed bin width
//! (1 s at the finest granularity). After the whitelists a pair is `c`
//! events in `n ≫ c` bins, so a series is its events: the non-zero bins as
//! `(index, count)` in index order, built in `O(c)` by run-length over the
//! sorted timestamps. A span is never allocated, so a timestamp far ahead of
//! the rest costs nothing but one event, and the detector's `max_bins` cut
//! drops the events past it while binning.

use crate::TimeSeriesError;

/// A regularly sampled count series derived from event timestamps: `len`
/// bins, of which the [`events`](Self::events) are the non-zero ones.
///
/// Bin `i` counts the events that fell in
/// `[start + i·scale, start + (i+1)·scale)`.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::TimeSeries;
///
/// let ts = TimeSeries::from_timestamps(&[100, 160, 220, 280], 1).unwrap();
/// assert_eq!(ts.scale(), 1);
/// assert_eq!(ts.len(), 181); // spans [100, 280] inclusive
/// assert_eq!(ts.events(), &[(0, 1.0), (60, 1.0), (120, 1.0), (180, 1.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: u64,
    scale: u64,
    len: usize,
    events: Vec<(usize, f64)>,
}

impl TimeSeries {
    /// Bins sorted event timestamps (seconds) into a count series with bins
    /// of `scale` seconds.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::TooFewEvents`] if `timestamps` is empty,
    /// * [`TimeSeriesError::UnsortedTimestamps`] if the input is not
    ///   non-decreasing,
    /// * [`TimeSeriesError::InvalidConfig`] if `scale == 0`.
    pub fn from_timestamps(timestamps: &[u64], scale: u64) -> Result<Self, TimeSeriesError> {
        Self::from_timestamps_capped(timestamps, scale, usize::MAX)
    }

    /// Like [`from_timestamps`](Self::from_timestamps), keeping the first
    /// `max_bins` bins at most: the cost guard on pathologically long spans
    /// ([`DetectorConfig::max_bins`](crate::detector::DetectorConfig::max_bins)).
    /// Timestamps past the cut are dropped while binning.
    ///
    /// # Errors
    ///
    /// Same as [`from_timestamps`](Self::from_timestamps).
    pub(crate) fn from_timestamps_capped(
        timestamps: &[u64],
        scale: u64,
        max_bins: usize,
    ) -> Result<Self, TimeSeriesError> {
        check_scale(scale)?;
        let (Some(&start), Some(&end)) = (timestamps.first(), timestamps.last()) else {
            return Err(TimeSeriesError::TooFewEvents {
                required: 1,
                actual: 0,
            });
        };
        if let Some(idx) = first_unsorted(timestamps) {
            return Err(TimeSeriesError::UnsortedTimestamps { index: idx });
        }
        let len = usize::try_from((end - start) / scale)
            .ok()
            .filter(|&last| last < max_bins)
            .map_or(max_bins, |last| last + 1);
        let mut events: Vec<(usize, f64)> = Vec::with_capacity(timestamps.len());
        for &t in timestamps {
            let bin = (t - start) / scale;
            if bin >= len as u64 {
                break;
            }
            // Below `len`, so the bin fits a usize.
            let bin = bin as usize;
            match events.last_mut() {
                Some((last, count)) if *last == bin => *count += 1.0,
                _ => events.push((bin, 1.0)),
            }
        }
        Ok(Self {
            start,
            scale,
            len,
            events,
        })
    }

    /// Builds a series directly from pre-binned values (for synthetic
    /// inputs and tests); the non-zero ones become its events.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidConfig`] if `scale == 0` or
    /// `values` is empty.
    pub fn from_values(start: u64, scale: u64, values: Vec<f64>) -> Result<Self, TimeSeriesError> {
        check_scale(scale)?;
        if values.is_empty() {
            return Err(TimeSeriesError::InvalidConfig {
                name: "values",
                constraint: "must be non-empty",
            });
        }
        Ok(Self {
            start,
            scale,
            len: values.len(),
            events: (0..).zip(values).filter(|&(_, v)| v != 0.0).collect(),
        })
    }

    /// Timestamp of the first bin's left edge.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Bin width in seconds.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The non-zero bins as `(index, count)`, in index order.
    pub fn events(&self) -> &[(usize, f64)] {
        &self.events
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has no bins (only a `max_bins` cut of 0 makes
    /// one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of raw events the series holds.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(|&(_, v)| v.max(0.0) as usize).sum()
    }

    /// The mean bin value: the level every transform of the series
    /// subtracts. Zero bins add nothing to the sum, so `0 − μ` and `v − μ`
    /// are the dense centred series' samples to the bit.
    pub(crate) fn mean(&self) -> f64 {
        self.events.iter().map(|&(_, v)| v).sum::<f64>() / self.len as f64
    }

    /// Total observation span in seconds (`len · scale`).
    pub fn span_seconds(&self) -> u64 {
        (self.len as u64).saturating_mul(self.scale)
    }
}

fn check_scale(scale: u64) -> Result<(), TimeSeriesError> {
    if scale == 0 {
        return Err(TimeSeriesError::InvalidConfig {
            name: "scale",
            constraint: "must be at least 1 second",
        });
    }
    Ok(())
}

/// Inter-arrival intervals (seconds, as f64) between consecutive sorted
/// timestamps: `I = {t₂−t₁, t₃−t₂, …}` (Fig. 6(a) of the paper).
///
/// # Errors
///
/// * [`TimeSeriesError::TooFewEvents`] for fewer than two timestamps,
/// * [`TimeSeriesError::UnsortedTimestamps`] for unsorted input.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::intervals_of;
/// let iv = intervals_of(&[100, 160, 230]).unwrap();
/// assert_eq!(iv, vec![60.0, 70.0]);
/// ```
pub fn intervals_of(timestamps: &[u64]) -> Result<Vec<f64>, TimeSeriesError> {
    if timestamps.len() < 2 {
        return Err(TimeSeriesError::TooFewEvents {
            required: 2,
            actual: timestamps.len(),
        });
    }
    if let Some(idx) = first_unsorted(timestamps) {
        return Err(TimeSeriesError::UnsortedTimestamps { index: idx });
    }
    Ok(timestamps
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64)
        .collect())
}

/// Index of the first element that is smaller than its predecessor, if any.
fn first_unsorted(timestamps: &[u64]) -> Option<usize> {
    timestamps
        .windows(2)
        .position(|w| w[1] < w[0])
        .map(|i| i + 1)
}

/// Series shared by the tests that hold a fast path to its dense
/// reference: the permutation filter's placed rounds and the ACF's event
/// path.
#[cfg(test)]
pub(crate) mod corpus {
    use super::TimeSeries;
    use baywatch_stats::rng::Rng;

    /// A beacon every `period` bins, `n_events` times, at 1 s bins.
    fn beacon_series(n_events: u64, period: u64) -> TimeSeries {
        let timestamps: Vec<u64> = (0..n_events).map(|i| i * period).collect();
        TimeSeries::from_timestamps(&timestamps, 1).unwrap()
    }

    /// Series shapes the exactness argument must hold on: beacon, random
    /// arrivals, constant, degenerate (n < 4), odd and even n.
    pub(crate) fn exactness_corpus() -> Vec<TimeSeries> {
        let mut rng = Rng::seed_from_u64(11);
        let mut t = 0u64;
        let random: Vec<u64> = (0..80)
            .map(|_| {
                t += rng.random_range(1..30);
                t
            })
            .collect();
        vec![
            beacon_series(40, 17), // n = 664, even
            beacon_series(41, 17), // n = 681, odd
            TimeSeries::from_timestamps(&random, 1).unwrap(),
            TimeSeries::from_timestamps(&random[..79], 1).unwrap(),
            TimeSeries::from_values(0, 1, vec![1.0; 64]).unwrap(),
            TimeSeries::from_values(0, 1, vec![2.0, 0.0, 1.0]).unwrap(),
            TimeSeries::from_values(0, 1, vec![3.0]).unwrap(),
        ]
    }

    /// The exactness corpus plus seven shapes that reach every row layout
    /// of the permutation filter's placed transform.
    pub(crate) fn round_corpus() -> Vec<TimeSeries> {
        let mut corpus = exactness_corpus();
        corpus.extend([
            sparse_series(50, 50, 1),        // c = 1
            sparse_series(37, 1, 3),         // c = n, counts > 1
            sparse_series(128, 16, 1),       // n = N exactly, sparse
            sparse_series(1 << 10, 1, 1),    // n = N, dense: M = 1
            sparse_series(1000, 3, 4),       // events > N/2: M = 1
            sparse_series(3000, 20, 2),      // M = 8: mirror-paired rows
            sparse_series(40_000, 5_000, 2), // 8 events in 2¹⁶: M = N/64
        ]);
        corpus
    }

    /// A series of `n` bins whose bin `i·stride` holds `1 + i % counts`.
    pub(crate) fn sparse_series(n: usize, stride: usize, counts: usize) -> TimeSeries {
        let mut values = vec![0.0; n];
        for (i, v) in values.iter_mut().step_by(stride).enumerate() {
            *v = (1 + i % counts) as f64;
        }
        TimeSeries::from_values(0, 1, values).unwrap()
    }

    /// The series as the dense, mean-centred samples the spectral oracles
    /// transform: `0 − μ` on every bin, `v − μ` on each event bin — the
    /// values the workspace packs from the events.
    pub(crate) fn centred(series: &TimeSeries) -> Vec<f64> {
        let mean = series.mean();
        let mut dense = vec![0.0 - mean; series.len()];
        for &(t, v) in series.events() {
            dense[t] = v - mean;
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_timestamps_basic() {
        let ts = TimeSeries::from_timestamps(&[10, 11, 13], 1).unwrap();
        assert_eq!(ts.start(), 10);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.events(), &[(0, 1.0), (1, 1.0), (3, 1.0)]);
        assert_eq!(ts.event_count(), 3);
        assert_eq!(ts.span_seconds(), 4);
    }

    #[test]
    fn duplicate_timestamps_accumulate() {
        let ts = TimeSeries::from_timestamps(&[5, 5, 5, 7], 1).unwrap();
        assert_eq!(ts.events(), &[(0, 3.0), (2, 1.0)]);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn single_event_single_bin() {
        let ts = TimeSeries::from_timestamps(&[42], 1).unwrap();
        assert_eq!(ts.len(), 1);
        assert!(!ts.is_empty());
    }

    #[test]
    fn coarse_scale_binning() {
        let ts = TimeSeries::from_timestamps(&[0, 30, 61, 95, 125], 60).unwrap();
        // bins: [0,60) -> 2, [60,120) -> 2, [120,180) -> 1
        assert_eq!(ts.events(), &[(0, 2.0), (1, 2.0), (2, 1.0)]);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            TimeSeries::from_timestamps(&[], 1),
            Err(TimeSeriesError::TooFewEvents { .. })
        ));
        assert!(matches!(
            TimeSeries::from_timestamps(&[1, 2], 0),
            Err(TimeSeriesError::InvalidConfig { .. })
        ));
        assert!(matches!(
            TimeSeries::from_timestamps(&[5, 3], 1),
            Err(TimeSeriesError::UnsortedTimestamps { index: 1 })
        ));
    }

    #[test]
    fn from_values_keeps_the_non_zero_bins() {
        let ts = TimeSeries::from_values(7, 5, vec![0.0, 2.5, 0.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!((ts.start(), ts.scale(), ts.len()), (7, 5, 6));
        assert_eq!(ts.events(), &[(1, 2.5), (4, 1.0)]);
        assert_eq!(ts.event_count(), 3);
        assert!(TimeSeries::from_values(0, 1, vec![]).is_err());
    }

    #[test]
    fn mean_is_the_dense_mean_to_the_bit() {
        let values = vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.3, 0.0, 2.7];
        let dense = values.iter().sum::<f64>() / values.len() as f64;
        let ts = TimeSeries::from_values(0, 1, values).unwrap();
        assert_eq!(ts.mean().to_bits(), dense.to_bits());
        let centred = corpus::centred(&ts);
        assert!((centred.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn the_cut_applies_while_binning() {
        let ts = TimeSeries::from_timestamps_capped(&[0, 3, 3, 9, 10, 50], 1, 10).unwrap();
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.events(), &[(0, 1.0), (3, 2.0), (9, 1.0)]);
        assert_eq!(ts.event_count(), 4);
        // A series shorter than the cut is left whole.
        let short = TimeSeries::from_timestamps_capped(&[0, 3], 1, 10).unwrap();
        assert_eq!(short, TimeSeries::from_timestamps(&[0, 3], 1).unwrap());
    }

    #[test]
    fn a_far_timestamp_costs_one_event_not_its_span() {
        let far = 1usize << 62;
        let ts = TimeSeries::from_timestamps(&[0, 60, far as u64], 1).unwrap();
        assert_eq!(ts.len(), far + 1);
        assert_eq!(ts.events(), &[(0, 1.0), (60, 1.0), (far, 1.0)]);
        let capped = TimeSeries::from_timestamps_capped(&[0, 60, far as u64], 1, 1 << 20).unwrap();
        assert_eq!(capped.len(), 1 << 20);
        assert_eq!(capped.events(), &[(0, 1.0), (60, 1.0)]);
        // The widest span saturates instead of overflowing.
        let widest = TimeSeries::from_timestamps(&[0, u64::MAX], 1).unwrap();
        assert_eq!(widest.len(), usize::MAX);
        assert_eq!(widest.span_seconds(), u64::MAX);
    }

    #[test]
    fn intervals_basic() {
        assert_eq!(intervals_of(&[0, 10, 30]).unwrap(), vec![10.0, 20.0]);
        assert!(intervals_of(&[1]).is_err());
        assert!(intervals_of(&[3, 1]).is_err());
    }

    #[test]
    fn intervals_allow_equal_timestamps() {
        assert_eq!(intervals_of(&[5, 5, 9]).unwrap(), vec![0.0, 4.0]);
    }
}
