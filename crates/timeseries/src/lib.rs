//! Robust periodicity detection — the core algorithm of BAYWATCH
//! (Hu et al., DSN 2016, §IV).
//!
//! BAYWATCH detects *beaconing*: low-and-slow periodic callbacks from
//! infected hosts to command-and-control infrastructure. Its detection
//! algorithm adapts the periodogram/autocorrelation combination of Vlachos
//! et al. (SDM 2005) and hardens it against real-world perturbations —
//! jitter, missing beacons, injected noise events, outages, and multi-scale
//! on/off behaviour. The pipeline per communication pair:
//!
//! 1. **Step 1 — periodogram analysis** ([`periodogram`]): the request
//!    timestamps are binned into a discrete series `x(n)`; its DFT power
//!    spectrum is compared against a threshold estimated by randomly
//!    permuting the series `m` times ([`permutation`]). Frequencies whose
//!    power exceeds what random shuffles can produce become **candidate
//!    periods**.
//! 2. **Step 2 — pruning** ([`prune`]): candidates smaller than the minimum
//!    observed inter-arrival interval are high-frequency noise; a one-sample
//!    t-test rejects candidates statistically incompatible with the observed
//!    intervals; under-sampled series are dropped.
//! 3. **Step 3 — verification** ([`acf`]): surviving candidates must sit on
//!    a *hill* (local maximum) of the autocorrelation function; the ACF peak
//!    both confirms the period and provides a periodicity-strength score for
//!    ranking.
//!
//! The verified candidate periods (the paper's ⟨AS, CP⟩ record per pair)
//! are the detector's whole output. A reading of multi-scale behaviour such
//! as Conficker's 7–8 s bursts repeated every 3 hours (Fig. 7 of the paper)
//! is a separate tool: [`gmm`] fits a Gaussian mixture with BIC model
//! selection to an interval list on request.
//!
//! All FFT work (periodogram, permutation rounds, and the ACF of a series
//! too dense to correlate from its events) runs on the in-tree radix-4
//! [`fft`] through a
//! per-thread [`workspace::SpectralWorkspace`], which zero-pads every
//! series to a power-of-two transform length, recycles its buffers, and
//! takes its plans from one process-wide table — at most one plan per
//! kind and `log2` length for the life of the process.
//!
//! The one-stop entry point is [`detector::PeriodicityDetector`]:
//!
//! ```
//! use baywatch_timeseries::detector::{DetectorConfig, PeriodicityDetector};
//!
//! // A beacon every 60 s for 2 hours, as epoch-second timestamps.
//! let timestamps: Vec<u64> = (0..120).map(|i| 1_700_000_000 + i * 60).collect();
//!
//! let detector = PeriodicityDetector::new(DetectorConfig::default());
//! let report = detector.detect(&timestamps).unwrap();
//! assert!(report.is_periodic());
//! let best = report.best().unwrap();
//! assert!((best.period - 60.0).abs() < 2.0, "period = {}", best.period);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

pub mod acf;
pub mod budget;
pub mod detector;
pub mod fft;
pub mod gmm;
pub mod periodogram;
pub mod permutation;
pub mod prune;
pub mod ring;
pub mod series;
pub mod symbolize;
pub mod workspace;

pub use budget::{BudgetSpec, ExecBudget};
pub use detector::{
    CandidatePeriod, DetectionReport, DetectorConfig, DetectorObs, PeriodicityDetector,
};
pub use ring::{RingEntry, RingPush, TimestampRing};
pub use series::{intervals_of, TimeSeries};
pub use workspace::SpectralWorkspace;

/// Errors produced by the time-series analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeSeriesError {
    /// Fewer events than required to attempt periodicity detection.
    TooFewEvents {
        /// Minimum number of events required.
        required: usize,
        /// Number of events provided.
        actual: usize,
    },
    /// Timestamps were not sorted in non-decreasing order.
    UnsortedTimestamps {
        /// Index of the first out-of-order timestamp.
        index: usize,
    },
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
    /// The observation window has zero length (all events share one
    /// timestamp), so no frequency content exists.
    ZeroSpan,
    /// The execution budget ([`budget::ExecBudget`]) was exhausted before
    /// the analysis completed; the pair should be recorded as timed out
    /// rather than non-periodic.
    BudgetExhausted,
    /// An underlying statistical routine failed.
    Stats(baywatch_stats::StatsError),
}

impl std::fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeSeriesError::TooFewEvents { required, actual } => {
                write!(f, "too few events: required {required}, got {actual}")
            }
            TimeSeriesError::UnsortedTimestamps { index } => {
                write!(f, "timestamps not sorted at index {index}")
            }
            TimeSeriesError::InvalidConfig { name, constraint } => {
                write!(f, "invalid config `{name}`: {constraint}")
            }
            TimeSeriesError::ZeroSpan => write!(f, "observation window has zero length"),
            TimeSeriesError::BudgetExhausted => {
                write!(f, "execution budget exhausted before analysis completed")
            }
            TimeSeriesError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl std::error::Error for TimeSeriesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TimeSeriesError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<baywatch_stats::StatsError> for TimeSeriesError {
    fn from(e: baywatch_stats::StatsError) -> Self {
        TimeSeriesError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = TimeSeriesError::TooFewEvents {
            required: 8,
            actual: 2,
        };
        assert!(e.to_string().contains("8"));
        assert!(!TimeSeriesError::ZeroSpan.to_string().is_empty());
        let e: TimeSeriesError = baywatch_stats::StatsError::ZeroVariance.into();
        assert!(matches!(e, TimeSeriesError::Stats(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
