//! Candidate pruning — Step 2 of the detection algorithm (§IV-C, Fig. 6).
//!
//! Periodogram analysis over-generates: spectral leakage, harmonics and
//! high-frequency noise all produce candidate periods. Three cheap filters
//! cut the candidate set down before the more expensive ACF verification:
//!
//! * **High-frequency noise** — a period smaller than the minimum observed
//!   inter-arrival interval is physically impossible (in the paper's TDSS
//!   example, min interval = 196 s removes every candidate except 387 s).
//!   "Smaller" is judged by `min_plausible_period`, the one definition
//!   the detector's harmonic-crowding guard shares.
//! * **Hypothesis testing** — a one-sample t-test with H0 "the candidate is
//!   the true period"; rejected when p < α (paper: α = 5 %). The test is
//!   deliberately conservative: a candidate survives unless the intervals
//!   provide significant evidence against it.
//! * **Sampling rate** — a series must contain enough cycles of a claimed
//!   period to support it; under-sampled series are dropped, which matters
//!   most after rescaling to coarse granularities (§VII-B).

use baywatch_stats::ttest::{one_sample_ttest, Alternative};

use crate::periodogram::SpectralLine;
use crate::TimeSeriesError;

/// Configuration of the pruning filters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneConfig {
    /// Significance level α for the t-test (paper: 0.05).
    pub alpha: f64,
    /// Minimum number of full cycles of a candidate period that the
    /// observation span must cover (sampling-rate filter).
    pub min_cycles: f64,
    /// Relative tolerance when matching a candidate period against interval
    /// statistics; candidates whose period is within this fraction of the
    /// matched-interval mean skip the t-test rejection (guards against
    /// rejecting the true period due to heavy but symmetric jitter).
    pub mean_tolerance: f64,
    /// Relative half-width of the band used to select the intervals that
    /// *match* a candidate period. The hypothesis test runs on the matched
    /// subset so that missing-event gaps (which create 2P, 3P intervals) do
    /// not drag the sample mean away from the true period — the robustness
    /// the paper evaluates in Fig. 10.
    pub match_band: f64,
    /// Minimum fraction of intervals that must match the candidate for it
    /// to be considered supported at all.
    pub min_support: f64,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self {
            alpha: 0.05,
            min_cycles: 3.0,
            mean_tolerance: 0.02,
            match_band: 0.35,
            min_support: 0.1,
        }
    }
}

/// Why a candidate was discarded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneReason {
    /// Period smaller than the minimum observed interval (beyond
    /// [`PruneConfig::mean_tolerance`]).
    BelowMinInterval {
        /// The minimum observed interval (seconds).
        min_interval: f64,
    },
    /// t-test rejected the candidate at level α.
    HypothesisRejected {
        /// The p-value of the test.
        p_value: f64,
    },
    /// The observation span covers too few cycles of this period.
    UnderSampled {
        /// Number of cycles covered.
        cycles: f64,
    },
    /// Too few intervals match the candidate period at all.
    LowSupport {
        /// Fraction of intervals within the match band of the candidate.
        support: f64,
    },
}

/// A pruning decision for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneDecision {
    /// The candidate spectral line.
    pub line: SpectralLine,
    /// The t-test p-value for this candidate (`None` when the test could
    /// not run, e.g. a constant interval list — treated as compatible).
    pub p_value: Option<f64>,
    /// `None` if the candidate survived, otherwise the rejection reason.
    pub rejected: Option<PruneReason>,
}

impl PruneDecision {
    /// Whether the candidate survived all pruning filters.
    pub fn survived(&self) -> bool {
        self.rejected.is_none()
    }
}

/// Applies the three pruning filters to a candidate set.
///
/// `intervals` is the inter-arrival list of the communication pair,
/// `span_seconds` the total observation window.
///
/// Returns one [`PruneDecision`] per input candidate, in the input order.
///
/// # Errors
///
/// Returns [`TimeSeriesError::InvalidConfig`] for a non-positive `alpha` or
/// `min_cycles`, or [`TimeSeriesError::TooFewEvents`] when `intervals` is
/// empty.
///
/// # Example
///
/// The paper's TDSS example: among the periodogram candidates only 387.34 s
/// exceeds the minimum interval of 196 s and survives the t-test.
///
/// ```
/// use baywatch_timeseries::periodogram::SpectralLine;
/// use baywatch_timeseries::prune::{prune_candidates, PruneConfig};
///
/// let mk = |period: f64, power: f64| SpectralLine {
///     bin: 0, frequency: 1.0 / period, period, power,
/// };
/// let candidates = vec![
///     mk(30.5473, 245.9),
///     mk(2.36615, 236.4),
///     mk(387.34, 230.1),
///     mk(8.8351, 223.5),
///     mk(33.1626, 217.7),
/// ];
/// // Intervals clustered near 387 s with a 196 s minimum.
/// let intervals = vec![404.0, 362.0, 400.0, 369.0, 196.0, 423.0, 391.0, 442.0, 395.0];
/// let span = intervals.iter().sum::<f64>();
/// let decisions = prune_candidates(&candidates, &intervals, span, &PruneConfig::default()).unwrap();
/// let survivors: Vec<f64> = decisions.iter()
///     .filter(|d| d.survived())
///     .map(|d| d.line.period)
///     .collect();
/// assert_eq!(survivors, vec![387.34]);
/// ```
pub fn prune_candidates(
    candidates: &[SpectralLine],
    intervals: &[f64],
    span_seconds: f64,
    config: &PruneConfig,
) -> Result<Vec<PruneDecision>, TimeSeriesError> {
    if !(config.alpha > 0.0 && config.alpha < 1.0) {
        return Err(TimeSeriesError::InvalidConfig {
            name: "alpha",
            constraint: "must be within (0, 1)",
        });
    }
    if config.min_cycles <= 0.0 {
        return Err(TimeSeriesError::InvalidConfig {
            name: "min_cycles",
            constraint: "must be positive",
        });
    }
    if intervals.is_empty() {
        return Err(TimeSeriesError::TooFewEvents {
            required: 1,
            actual: 0,
        });
    }

    // Zero intervals (same-second requests) carry no spacing information for
    // the minimum-interval filter.
    let min_interval = intervals
        .iter()
        .copied()
        .filter(|&i| i > 0.0)
        .fold(f64::INFINITY, f64::min);
    let interval_mean = intervals.iter().sum::<f64>() / intervals.len() as f64;

    let mut out = Vec::with_capacity(candidates.len());
    for &line in candidates {
        let decision = prune_one(
            line,
            intervals,
            min_interval,
            interval_mean,
            span_seconds,
            config,
        );
        out.push(decision);
    }
    Ok(out)
}

/// The shortest period an interval list with minimum positive interval
/// `min_interval` can support. A spectral line's period is quantized to the
/// transform grid (`N·dt/k`), so the fundamental of a train whose every
/// interval is exactly `P` lands a fraction of a grid step below `P` as
/// readily as above it; the floor therefore grants the same
/// [`PruneConfig::mean_tolerance`] every other comparison of a period
/// against interval statistics does.
pub(crate) fn min_plausible_period(min_interval: f64, config: &PruneConfig) -> f64 {
    min_interval * (1.0 - config.mean_tolerance)
}

fn prune_one(
    line: SpectralLine,
    intervals: &[f64],
    min_interval: f64,
    interval_mean: f64,
    span_seconds: f64,
    config: &PruneConfig,
) -> PruneDecision {
    // Filter 1: high-frequency noise.
    if min_interval.is_finite() && line.period < min_plausible_period(min_interval, config) {
        return PruneDecision {
            line,
            p_value: None,
            rejected: Some(PruneReason::BelowMinInterval { min_interval }),
        };
    }

    // Filter 2: sampling rate — the span must cover enough cycles.
    let cycles = span_seconds / line.period;
    if cycles < config.min_cycles {
        return PruneDecision {
            line,
            p_value: None,
            rejected: Some(PruneReason::UnderSampled { cycles }),
        };
    }

    // Filter 3: support + hypothesis test on the matched intervals.
    //
    // Missing beacons turn single intervals into 2P/3P gaps; testing the
    // *full* interval list against P would reject the true period as soon
    // as a few beacons are lost. Instead we test the intervals that match P
    // (within `match_band`), after requiring a minimal support fraction so
    // that spurious candidates with no matching intervals die here.
    let matched: Vec<f64> = intervals
        .iter()
        .copied()
        .filter(|&i| (i - line.period).abs() <= config.match_band * line.period)
        .collect();
    let support = matched.len() as f64 / intervals.len() as f64;
    if support < config.min_support {
        // Before declaring low support, allow a "whole-list" fallback: when
        // the candidate agrees with the overall interval mean the full-list
        // test is meaningful (e.g. very heavy symmetric jitter spreads
        // intervals beyond the band).
        let rel_diff = (line.period - interval_mean).abs() / interval_mean.max(f64::MIN_POSITIVE);
        if rel_diff > config.match_band {
            return PruneDecision {
                line,
                p_value: None,
                rejected: Some(PruneReason::LowSupport { support }),
            };
        }
    }
    let test_sample: &[f64] = if matched.len() >= 2 {
        &matched
    } else {
        intervals
    };
    // Robust location check first: adding-event noise splits genuine
    // intervals and drags the subset *mean* off the true period while the
    // *median* stays put, so the tolerance shortcut is median-based.
    let center = median_of(test_sample);
    let rel_diff = (line.period - center).abs() / center.max(f64::MIN_POSITIVE);
    if rel_diff <= config.mean_tolerance {
        return PruneDecision {
            line,
            p_value: None,
            rejected: None,
        };
    }
    match one_sample_ttest(test_sample, line.period, Alternative::TwoSided) {
        Ok(t) => {
            if t.p_value < config.alpha {
                PruneDecision {
                    line,
                    p_value: Some(t.p_value),
                    rejected: Some(PruneReason::HypothesisRejected { p_value: t.p_value }),
                }
            } else {
                PruneDecision {
                    line,
                    p_value: Some(t.p_value),
                    rejected: None,
                }
            }
        }
        // A single interval: no variance estimate, cannot reject — keep
        // (conservative, like the paper's framing of the null hypothesis).
        Err(_) => PruneDecision {
            line,
            p_value: None,
            rejected: None,
        },
    }
}

/// Median of a non-empty slice (copies; slices here are small).
fn median_of(data: &[f64]) -> f64 {
    debug_assert!(!data.is_empty());
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(period: f64, power: f64) -> SpectralLine {
        SpectralLine {
            bin: 1,
            frequency: 1.0 / period,
            period,
            power,
        }
    }

    #[test]
    fn min_interval_filter() {
        let intervals = vec![200.0, 210.0, 196.0, 205.0];
        let d = prune_candidates(
            &[mk(100.0, 10.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            d[0].rejected,
            Some(PruneReason::BelowMinInterval { .. })
        ));
    }

    #[test]
    fn min_interval_floor_tolerates_grid_quantization() {
        // A 120-event, 60 s train transformed at N = 8192 has its
        // fundamental at 8192/137 = 59.8 s: below every observed interval,
        // yet plainly the train's period. A 50 s line is still noise.
        let intervals = vec![60.0; 119];
        let d = prune_candidates(
            &[mk(8192.0 / 137.0, 10.0), mk(50.0, 9.0)],
            &intervals,
            7_140.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(d[0].survived(), "rejected: {:?}", d[0].rejected);
        assert!(matches!(
            d[1].rejected,
            Some(PruneReason::BelowMinInterval { min_interval }) if min_interval == 60.0
        ));
    }

    #[test]
    fn zero_intervals_ignored_for_min() {
        // A burst of same-second requests must not set min_interval to 0
        // (which would disable the high-frequency filter entirely).
        let intervals = vec![0.0, 200.0, 210.0, 0.0, 205.0];
        let d = prune_candidates(
            &[mk(50.0, 10.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            d[0].rejected,
            Some(PruneReason::BelowMinInterval { min_interval }) if min_interval == 200.0
        ));
    }

    #[test]
    fn under_sampled_filter() {
        let intervals = vec![100.0; 5];
        // Period of 400 s in a 500 s span: only 1.25 cycles.
        let d = prune_candidates(
            &[mk(400.0, 10.0)],
            &intervals,
            500.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            d[0].rejected,
            Some(PruneReason::UnderSampled { .. })
        ));
    }

    #[test]
    fn unsupported_period_rejected() {
        // No interval anywhere near 120 s: low support.
        let intervals = vec![60.0, 61.0, 59.5, 60.2, 60.8, 59.9, 60.1];
        let d = prune_candidates(
            &[mk(120.0, 10.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            d[0].rejected,
            Some(PruneReason::LowSupport { support }) if support == 0.0
        ));
    }

    #[test]
    fn ttest_rejects_incompatible_period() {
        // 63 s is inside the match band of tightly clustered 60 s intervals,
        // so the t-test (not the support filter) must reject it.
        let intervals = vec![60.0, 60.1, 59.9, 60.05, 60.2, 59.95, 60.0, 60.1];
        let d = prune_candidates(
            &[mk(63.0, 10.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            d[0].rejected,
            Some(PruneReason::HypothesisRejected { .. })
        ));
        assert!(d[0].p_value.unwrap() < 0.05);
    }

    #[test]
    fn missing_event_gaps_do_not_kill_true_period() {
        // 45 s beacon with 25% loss: intervals are a mix of 45, 90, 135.
        let mut intervals = vec![45.0; 60];
        intervals.extend(vec![90.0; 15]);
        intervals.extend(vec![135.0; 5]);
        let span: f64 = intervals.iter().sum();
        let d =
            prune_candidates(&[mk(45.0, 10.0)], &intervals, span, &PruneConfig::default()).unwrap();
        assert!(d[0].survived(), "rejected: {:?}", d[0].rejected);
    }

    #[test]
    fn true_period_survives_with_jitter() {
        let intervals = vec![58.0, 62.0, 59.0, 61.5, 60.0, 60.5, 58.5, 61.0];
        let d = prune_candidates(
            &[mk(60.0, 10.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(d[0].survived(), "rejected: {:?}", d[0].rejected);
    }

    #[test]
    fn mean_tolerance_skips_ttest() {
        // Heavily jittered but symmetric around 100: the t-test might be
        // unstable, the tolerance shortcut keeps the candidate.
        let intervals = vec![100.1, 99.9, 100.0, 100.05, 99.95];
        let d = prune_candidates(
            &[mk(100.0, 5.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(d[0].survived());
        assert!(d[0].p_value.is_none(), "t-test should have been skipped");
    }

    #[test]
    fn tdss_worked_example() {
        // Fig. 6 of the paper: five candidates, min interval 196 s.
        let candidates = vec![
            mk(30.5473, 245.9),
            mk(2.36615, 236.4),
            mk(387.34, 230.1),
            mk(8.8351, 223.5),
            mk(33.1626, 217.7),
        ];
        let intervals = vec![
            404.0, 362.0, 400.0, 369.0, 196.0, 423.0, 391.0, 442.0, 395.0, 407.0, 372.0,
        ];
        let span: f64 = intervals.iter().sum();
        let d = prune_candidates(&candidates, &intervals, span, &PruneConfig::default()).unwrap();
        let survivors: Vec<f64> = d
            .iter()
            .filter(|x| x.survived())
            .map(|x| x.line.period)
            .collect();
        assert_eq!(survivors, vec![387.34]);
    }

    #[test]
    fn empty_intervals_error() {
        assert!(prune_candidates(&[mk(10.0, 1.0)], &[], 100.0, &PruneConfig::default()).is_err());
    }

    #[test]
    fn invalid_config_errors() {
        let iv = vec![10.0, 11.0];
        let bad_alpha = PruneConfig {
            alpha: 0.0,
            ..Default::default()
        };
        assert!(prune_candidates(&[], &iv, 100.0, &bad_alpha).is_err());
        let bad_cycles = PruneConfig {
            min_cycles: 0.0,
            ..Default::default()
        };
        assert!(prune_candidates(&[], &iv, 100.0, &bad_cycles).is_err());
    }

    #[test]
    fn decisions_preserve_input_order() {
        let intervals = vec![60.0, 60.5, 59.5, 60.1];
        let candidates = vec![mk(60.0, 3.0), mk(10.0, 2.0), mk(120.0, 1.0)];
        let d =
            prune_candidates(&candidates, &intervals, 5_000.0, &PruneConfig::default()).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].line.period, 60.0);
        assert_eq!(d[1].line.period, 10.0);
        assert_eq!(d[2].line.period, 120.0);
    }

    #[test]
    fn single_interval_cannot_reject() {
        let intervals = vec![60.0];
        let d = prune_candidates(
            &[mk(65.0, 1.0)],
            &intervals,
            10_000.0,
            &PruneConfig::default(),
        )
        .unwrap();
        assert!(d[0].survived());
    }
}
