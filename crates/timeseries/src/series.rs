//! Discrete time-series construction from raw event timestamps.
//!
//! BAYWATCH's data-extraction phase (§VII-A) turns the request timestamps of
//! a communication pair into an *ActivitySummary* — a first timestamp plus a
//! list of inter-arrival intervals at some time scale. For spectral analysis
//! the events are binned into a count series `x(n)` with a fixed bin width
//! (1 s at the finest granularity); the rescaling phase (§VII-B) re-bins an
//! existing series to a coarser scale without revisiting raw logs.

use crate::TimeSeriesError;

/// A regularly sampled count series derived from event timestamps.
///
/// `values[i]` is the number of events that fell in
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
/// assert_eq!(ts.values()[0], 1.0);
/// assert_eq!(ts.values()[60], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: u64,
    scale: u64,
    values: Vec<f64>,
    event_count: usize,
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
        if scale == 0 {
            return Err(TimeSeriesError::InvalidConfig {
                name: "scale",
                constraint: "must be at least 1 second",
            });
        }
        if timestamps.is_empty() {
            return Err(TimeSeriesError::TooFewEvents {
                required: 1,
                actual: 0,
            });
        }
        if let Some(idx) = first_unsorted(timestamps) {
            return Err(TimeSeriesError::UnsortedTimestamps { index: idx });
        }
        let start = timestamps[0];
        // Non-empty was checked above; index instead of unwrap/expect so no
        // panic path survives in this hot loop.
        let end = timestamps[timestamps.len() - 1];
        let n_bins = ((end - start) / scale + 1) as usize;
        let mut values = vec![0.0; n_bins];
        for &t in timestamps {
            let idx = ((t - start) / scale) as usize;
            values[idx] += 1.0;
        }
        Ok(Self {
            start,
            scale,
            values,
            event_count: timestamps.len(),
        })
    }

    /// Builds a series directly from pre-binned values (for synthetic
    /// inputs and tests).
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidConfig`] if `scale == 0` or
    /// `values` is empty.
    pub fn from_values(start: u64, scale: u64, values: Vec<f64>) -> Result<Self, TimeSeriesError> {
        if scale == 0 {
            return Err(TimeSeriesError::InvalidConfig {
                name: "scale",
                constraint: "must be at least 1 second",
            });
        }
        if values.is_empty() {
            return Err(TimeSeriesError::InvalidConfig {
                name: "values",
                constraint: "must be non-empty",
            });
        }
        let event_count = values.iter().map(|&v| v.max(0.0) as usize).sum();
        Ok(Self {
            start,
            scale,
            values,
            event_count,
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

    /// The binned counts.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no bins (cannot occur for a constructed
    /// series, but required for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of raw events the series was built from.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Total observation span in seconds (`len · scale`).
    pub fn span_seconds(&self) -> u64 {
        self.values.len() as u64 * self.scale
    }

    /// Re-bins the series to a coarser scale (BAYWATCH's rescaling phase,
    /// §VII-B). `new_scale` must be a positive multiple of the current
    /// scale; counts of merged bins are summed.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidConfig`] if `new_scale` is zero,
    /// smaller than the current scale, or not a multiple of it.
    ///
    /// # Example
    ///
    /// ```
    /// use baywatch_timeseries::series::TimeSeries;
    ///
    /// let fine = TimeSeries::from_values(0, 1, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]).unwrap();
    /// let coarse = fine.rescale(2).unwrap();
    /// assert_eq!(coarse.scale(), 2);
    /// assert_eq!(coarse.values(), &[1.0, 1.0, 1.0]);
    /// ```
    pub fn rescale(&self, new_scale: u64) -> Result<TimeSeries, TimeSeriesError> {
        if new_scale == 0 || new_scale < self.scale || !new_scale.is_multiple_of(self.scale) {
            return Err(TimeSeriesError::InvalidConfig {
                name: "new_scale",
                constraint: "must be a positive multiple of the current scale",
            });
        }
        let factor = (new_scale / self.scale) as usize;
        if factor == 1 {
            return Ok(self.clone());
        }
        let mut values = Vec::with_capacity(self.values.len().div_ceil(factor));
        for chunk in self.values.chunks(factor) {
            values.push(chunk.iter().sum());
        }
        Ok(TimeSeries {
            start: self.start,
            scale: new_scale,
            values,
            event_count: self.event_count,
        })
    }

    /// The series values with their mean removed — the form fed to the DFT
    /// so the DC component does not swamp the spectrum.
    pub fn centered(&self) -> Vec<f64> {
        let mean = self.values.iter().sum::<f64>() / self.values.len() as f64;
        self.values.iter().map(|v| v - mean).collect()
    }

    /// Clips the series to at most `max_bins` bins (keeping the earliest
    /// bins); used to bound the FFT cost on pathologically long spans.
    pub fn truncated(mut self, max_bins: usize) -> TimeSeries {
        if self.values.len() > max_bins {
            self.values.truncate(max_bins);
            self.event_count = self.values.iter().map(|&v| v as usize).sum();
        }
        self
    }
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

    /// A series of `n` bins whose bin `i·stride` holds `1 + i % counts`.
    pub(crate) fn sparse_series(n: usize, stride: usize, counts: usize) -> TimeSeries {
        let mut values = vec![0.0; n];
        for (i, v) in values.iter_mut().step_by(stride).enumerate() {
            *v = (1 + i % counts) as f64;
        }
        TimeSeries::from_values(0, 1, values).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_timestamps_basic() {
        let ts = TimeSeries::from_timestamps(&[10, 11, 13], 1).unwrap();
        assert_eq!(ts.start(), 10);
        assert_eq!(ts.values(), &[1.0, 1.0, 0.0, 1.0]);
        assert_eq!(ts.event_count(), 3);
        assert_eq!(ts.span_seconds(), 4);
    }

    #[test]
    fn duplicate_timestamps_accumulate() {
        let ts = TimeSeries::from_timestamps(&[5, 5, 5, 7], 1).unwrap();
        assert_eq!(ts.values(), &[3.0, 0.0, 1.0]);
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
        assert_eq!(ts.values(), &[2.0, 2.0, 1.0]);
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
    fn rescale_sums_counts() {
        let ts = TimeSeries::from_values(0, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let r = ts.rescale(2).unwrap();
        assert_eq!(r.values(), &[3.0, 7.0, 5.0]); // last partial chunk kept
        assert_eq!(r.scale(), 2);
        assert_eq!(r.event_count(), ts.event_count());
    }

    #[test]
    fn rescale_identity() {
        let ts = TimeSeries::from_values(0, 5, vec![1.0, 0.0, 2.0]).unwrap();
        assert_eq!(ts.rescale(5).unwrap(), ts);
    }

    #[test]
    fn rescale_rejects_non_multiple() {
        let ts = TimeSeries::from_values(0, 2, vec![1.0; 4]).unwrap();
        assert!(ts.rescale(3).is_err());
        assert!(ts.rescale(1).is_err());
        assert!(ts.rescale(0).is_err());
    }

    #[test]
    fn rescale_preserves_total_count() {
        let timestamps: Vec<u64> = (0..500).map(|i| i * 7).collect();
        let fine = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
        let coarse = fine.rescale(60).unwrap();
        let fine_sum: f64 = fine.values().iter().sum();
        let coarse_sum: f64 = coarse.values().iter().sum();
        assert_eq!(fine_sum, coarse_sum);
    }

    #[test]
    fn centered_has_zero_mean() {
        let ts = TimeSeries::from_values(0, 1, vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0]).unwrap();
        let c = ts.centered();
        let mean: f64 = c.iter().sum::<f64>() / c.len() as f64;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn truncated_caps_length() {
        let ts = TimeSeries::from_values(0, 1, vec![1.0; 100]).unwrap();
        assert_eq!(ts.clone().truncated(10).len(), 10);
        assert_eq!(ts.truncated(200).len(), 100);
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
