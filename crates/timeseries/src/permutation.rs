//! Permutation-based power thresholding (§IV-B, Fig. 5 of the paper).
//!
//! How much of a series' spectral energy could be produced by a *random*
//! process with the same first-order statistics? Randomly permuting the
//! series destroys temporal structure while preserving amplitudes. The
//! maximum periodogram power of a shuffled copy is therefore an upper bound
//! on "power explainable by chance". Repeating the shuffle `m` times and
//! taking the `⌈C·m⌉`-th smallest of the per-shuffle maxima (e.g. the 19th
//! of 20 for C = 95 %) yields the power threshold `p_T`: original-series
//! frequencies with power above `p_T` are unlikely to be noise.
//!
//! The statistic is the maximum line of the periodogram *as
//! [`Periodogram`](crate::periodogram::Periodogram) computes it* — the `n`
//! observed bins zero-padded to `N = n.next_power_of_two()`, power
//! `|X(k)|²/n` over `k = 1..=N/2`. Each round permutes those same `n` bins
//! (the padding is not data and never moves) and is transformed on the same
//! grid, so observed series and shuffles are compared like for like. A
//! permutation test is exact for any statistic computed identically on the
//! data and on its permutations; which grid samples the spectrum is part of
//! the statistic, not an approximation of it.
//!
//! # A round is a placement
//!
//! A count series of `n` one-second bins holds `c ≪ n` non-zero ones, and
//! a uniform permutation of the `n` bins *is* a uniform placement of those
//! `c` values on `c` distinct bins (the zeros are interchangeable). So a
//! round draws `c` positions — a partial Fisher–Yates over a per-pair index
//! permutation, `c` RNG draws instead of `n − 1` — and hands values and
//! positions to the workspace, whose transform starts from the events
//! ([`workspace`](crate::workspace), "A round is its events"). The dense
//! shuffled series never exists. The null distribution is the one the
//! paper's Step 1 samples, so the test and the early reject below are
//! exact as before; only *which* `m` permutations one seed draws differs
//! from a dense shuffle's.

use crate::budget::ExecBudget;
use crate::series::TimeSeries;
use crate::workspace::{with_thread_workspace, Placement, SpectralWorkspace};
use crate::TimeSeriesError;
use baywatch_stats::rng::Rng;

/// Configuration of the permutation filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermutationConfig {
    /// Number of random permutations `m` (the paper uses 20).
    pub permutations: usize,
    /// Confidence level `C` in `(0, 1]` (the paper uses 0.95).
    pub confidence: f64,
    /// Seed for the deterministic shuffle RNG, so detection runs are
    /// reproducible job-to-job.
    pub seed: u64,
}

impl Default for PermutationConfig {
    fn default() -> Self {
        Self {
            permutations: 20,
            confidence: 0.95,
            seed: 0xBA9_3A7C4,
        }
    }
}

impl PermutationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidConfig`] when `permutations == 0`
    /// or `confidence` is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), TimeSeriesError> {
        if self.permutations == 0 {
            return Err(TimeSeriesError::InvalidConfig {
                name: "permutations",
                constraint: "must be at least 1",
            });
        }
        if !(self.confidence > 0.0 && self.confidence <= 1.0) {
            return Err(TimeSeriesError::InvalidConfig {
                name: "confidence",
                constraint: "must be within (0, 1]",
            });
        }
        Ok(())
    }
}

/// Result of the permutation thresholding procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationThreshold {
    /// The power threshold `p_T` — exact when all `m` rounds ran. When
    /// [`permutation_filter`] rejected early it is the `(m − rank + 1)`-th
    /// largest shuffle maximum seen so far: a lower bound on `p_T` that is
    /// already `>=` the observed maximum, so no spectral line exceeds it.
    pub threshold: f64,
    /// Maximum periodogram power of each shuffle round that ran (ascending
    /// order). Its length is the number of rounds run: `m`, or fewer after
    /// an early reject.
    pub shuffled_maxima: Vec<f64>,
}

/// Estimates the power threshold `p_T` for `series` by random permutation:
/// the exact `p_T` over all `m` rounds, i.e. [`permutation_filter`] against
/// an observed maximum of `+∞`, which no shuffle can meet.
///
/// # Errors
///
/// Propagates configuration validation errors.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::TimeSeries;
/// use baywatch_timeseries::periodogram::Periodogram;
/// use baywatch_timeseries::permutation::{permutation_threshold, PermutationConfig};
///
/// let timestamps: Vec<u64> = (0..200).map(|i| i * 30).collect();
/// let series = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
/// let thr = permutation_threshold(&series, &PermutationConfig::default()).unwrap();
/// let pg = Periodogram::compute(&series);
/// // The genuine 30 s periodicity towers above anything a shuffle produces.
/// assert!(pg.max_power() > thr.threshold);
/// ```
pub fn permutation_threshold(
    series: &TimeSeries,
    config: &PermutationConfig,
) -> Result<PermutationThreshold, TimeSeriesError> {
    with_thread_workspace(|ws| {
        permutation_filter(ws, series, config, f64::INFINITY, &ExecBudget::unlimited())
    })
}

/// The permutation filter with an exact early reject: runs shuffle rounds
/// until `p_T` is known or `observed_max` (the original series'
/// [`max_power`](crate::periodogram::Periodogram::max_power)) provably
/// cannot exceed it.
///
/// `p_T` is the `rank = ⌈C·m⌉`-th smallest of the `m` shuffle maxima and
/// the filter keeps lines with power strictly `> p_T`, so the candidate
/// set is empty iff `observed_max <= p_T`, iff at least `m − rank + 1`
/// maxima are `>= observed_max` (ties reject). Once that many are seen
/// the remaining rounds cannot change the verdict and are skipped; the
/// rounds that do run draw from the same single `Rng` stream, paired
/// `(1,2), (3,4), …` per packed transform, so their maxima are
/// bit-identical to the first rounds of the full run. See
/// [`PermutationThreshold`] for what the result carries after an early
/// reject.
///
/// Each round first charges `n` work units (the series length, whatever
/// the placed transform then costs) and aborts with
/// [`TimeSeriesError::BudgetExhausted`] once the budget is spent. With an
/// unlimited budget the checkpoint never fires and the result — including
/// the RNG stream — is byte-identical to the unbudgeted entry points.
///
/// # Errors
///
/// Propagates configuration validation errors and budget exhaustion.
pub fn permutation_filter(
    ws: &SpectralWorkspace,
    series: &TimeSeries,
    config: &PermutationConfig,
    observed_max: f64,
    budget: &ExecBudget,
) -> Result<PermutationThreshold, TimeSeriesError> {
    config.validate()?;
    let m = config.permutations;
    let to_reject = m - quantile_rank(config.confidence, m) + 1;
    let mut maxima = ws.with_placement(|placement| {
        round_maxima(
            ws,
            series,
            config,
            observed_max,
            to_reject,
            budget,
            placement,
        )
    })?;
    maxima.sort_by(f64::total_cmp);
    // All m rounds: index m − to_reject = rank − 1, the order statistic.
    // Early reject: the to_reject-th largest of the rounds run.
    let threshold = maxima[maxima.len() - to_reject];
    Ok(PermutationThreshold {
        threshold,
        shuffled_maxima: maxima,
    })
}

/// Per-round shuffle maxima in round order, stopping after the batch in
/// which `to_reject` of them have met `observed_max`. `placement` is the
/// round state recycled through the workspace.
fn round_maxima(
    ws: &SpectralWorkspace,
    series: &TimeSeries,
    config: &PermutationConfig,
    observed_max: f64,
    to_reject: usize,
    budget: &ExecBudget,
    placement: &mut Placement,
) -> Result<Vec<f64>, TimeSeriesError> {
    let n = series.len();
    let Ok(bins) = u32::try_from(n) else {
        return Err(TimeSeriesError::InvalidConfig {
            name: "series",
            constraint: "must have at most u32::MAX bins",
        });
    };
    let Placement {
        order,
        values,
        spots,
        plateau,
    } = placement;
    // Another pair's plateau rows would be read as this one's.
    plateau.clear();
    order.clear();
    order.extend(0..bins);
    values.clear();
    values.extend(series.events().iter().map(|&(_, v)| v));
    let mean = series.mean();
    let m = config.permutations;
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut maxima = Vec::with_capacity(m);
    let mut met = 0;
    while maxima.len() < m && met < to_reject {
        // Two rounds ride one packed transform; each charges its
        // checkpoint and draws its positions (one RNG stream across all
        // rounds) by a partial Fisher–Yates: after `c` steps the head of
        // `order` is a uniform ordered draw of `c` distinct bins, whatever
        // order the previous round left behind.
        let rounds = (m - maxima.len()).min(2);
        spots.clear();
        for _ in 0..rounds {
            budget.checkpoint(n as u64)?;
            for j in 0..values.len() {
                order.swap(j, rng.random_range(j..n));
                spots.push(order[j]);
            }
        }
        if n < 4 {
            // Degenerate series have an empty spectrum: max power 0 per
            // round, matching `Periodogram::compute`; budget and RNG
            // are still consumed round-by-round.
            maxima.resize(maxima.len() + rounds, 0.0);
        } else {
            // One division by n per round. Dividing the unnormalized
            // maximum is bit-identical to maximizing over per-bin
            // `norm_sqr()/n`: division by a positive constant is monotone
            // under IEEE round-to-nearest, so the same bin wins and the
            // same quotient comes out.
            let batch = ws.placed_power_maxima(n, mean, values, spots, rounds, plateau);
            maxima.extend(batch[..rounds].iter().map(|v| v / n as f64));
        }
        met += maxima[maxima.len() - rounds..]
            .iter()
            .filter(|&&v| v >= observed_max)
            .count();
    }
    Ok(maxima)
}

/// 1-based rank of the `⌈C·m⌉`-th smallest order statistic, robust to
/// floating-point noise in the product `C·m`.
///
/// A raw `ceil(C * m as f64)` is index-sensitive at the boundaries the
/// confidence level is designed to hit: the product can land a few ULPs
/// *above* an exactly-attainable integer (`0.56 × 25 =
/// 14.000000000000002`, `0.07 × 100 = 7.000000000000001`), and the
/// ceiling then overshoots the intended rank by one — selecting, say, the
/// 15th smallest of 25 where the statistic calls for the 14th, or the
/// maximum where it calls for the second-largest. Any product within a
/// few ULPs of an integer is therefore snapped to that integer before the
/// ceiling; the result is clamped to `[1, m]` so `C = 1` selects the
/// maximum (never indexing past the end) and vanishing products still
/// yield a valid rank.
fn quantile_rank(confidence: f64, m: usize) -> usize {
    let product = confidence * m as f64;
    let nearest = product.round();
    let tolerance = product.abs().max(1.0) * (4.0 * f64::EPSILON);
    let rank = if (product - nearest).abs() <= tolerance {
        nearest
    } else {
        product.ceil()
    };
    (rank as usize).clamp(1, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Plan;
    use crate::periodogram::Periodogram;
    use crate::series::corpus::{exactness_corpus, round_corpus, sparse_series};

    /// The exact `p_T` in `ws` under `budget`: every round, against an
    /// observed maximum no shuffle meets.
    fn threshold_in(
        ws: &SpectralWorkspace,
        series: &TimeSeries,
        config: &PermutationConfig,
        budget: &ExecBudget,
    ) -> Result<PermutationThreshold, TimeSeriesError> {
        permutation_filter(ws, series, config, f64::INFINITY, budget)
    }

    fn beacon_series(n_events: u64, period: u64) -> TimeSeries {
        let timestamps: Vec<u64> = (0..n_events).map(|i| i * period).collect();
        TimeSeries::from_timestamps(&timestamps, 1).unwrap()
    }

    #[test]
    fn periodic_signal_exceeds_threshold() {
        let series = beacon_series(120, 30);
        let thr = permutation_threshold(&series, &PermutationConfig::default()).unwrap();
        let pg = Periodogram::compute(&series);
        assert!(
            pg.max_power() > 2.0 * thr.threshold,
            "signal {} vs threshold {}",
            pg.max_power(),
            thr.threshold
        );
    }

    #[test]
    fn random_signal_mostly_below_threshold() {
        // Poisson-ish random arrivals: the original max power should look
        // like a typical shuffled max, not exceed the high-confidence bound
        // by a large factor.
        let mut rng = Rng::seed_from_u64(7);
        let mut t = 0u64;
        let mut timestamps = Vec::new();
        for _ in 0..200 {
            t += rng.random_range(1..120);
            timestamps.push(t);
        }
        let series = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
        let thr = permutation_threshold(&series, &PermutationConfig::default()).unwrap();
        let pg = Periodogram::compute(&series);
        assert!(
            pg.max_power() < 2.0 * thr.threshold,
            "random signal {} vs threshold {}",
            pg.max_power(),
            thr.threshold
        );
    }

    #[test]
    fn threshold_is_order_statistic() {
        let series = beacon_series(50, 10);
        let cfg = PermutationConfig {
            permutations: 20,
            confidence: 0.95,
            ..Default::default()
        };
        let thr = permutation_threshold(&series, &cfg).unwrap();
        assert_eq!(thr.shuffled_maxima.len(), 20);
        // 19th smallest of 20.
        assert_eq!(thr.threshold, thr.shuffled_maxima[18]);
        // Maxima sorted ascending.
        for w in thr.shuffled_maxima.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn confidence_one_takes_largest() {
        let series = beacon_series(50, 10);
        let cfg = PermutationConfig {
            permutations: 10,
            confidence: 1.0,
            ..Default::default()
        };
        let thr = permutation_threshold(&series, &cfg).unwrap();
        assert_eq!(thr.threshold, *thr.shuffled_maxima.last().unwrap());
    }

    #[test]
    fn explicit_workspace_matches_thread_local() {
        let series = beacon_series(80, 15);
        let cfg = PermutationConfig::default();
        let ws = crate::workspace::SpectralWorkspace::new();
        let a = threshold_in(&ws, &series, &cfg, &ExecBudget::unlimited()).unwrap();
        let b = permutation_threshold(&series, &cfg).unwrap();
        assert_eq!(a, b);
        // The full threshold runs every round, two per packed transform.
        assert_eq!(ws.transforms_run(), cfg.permutations.div_ceil(2));

        // Against the beacon's own peak no shuffle comes close: all m
        // rounds again. Against a maximum every shuffle meets, the first
        // packed FFT (2 rounds = m − rank + 1 exceedances) settles it.
        let peak = Periodogram::compute(&series).max_power();
        let unlimited = ExecBudget::unlimited();
        let kept = permutation_filter(&ws, &series, &cfg, peak, &unlimited).unwrap();
        assert_eq!(kept, a);
        let before = ws.transforms_run();
        let rejected = permutation_filter(&ws, &series, &cfg, 0.0, &unlimited).unwrap();
        assert_eq!(ws.transforms_run() - before, 1);
        assert_eq!(rejected.shuffled_maxima.len(), 2);
        assert_eq!(rejected.threshold, rejected.shuffled_maxima[0]);
    }

    #[test]
    fn batched_rounds_match_the_oracle_and_halve_transforms() {
        let series = beacon_series(80, 15);
        let cfg = PermutationConfig::default();
        let packed = SpectralWorkspace::new();
        let got = threshold_in(&packed, &series, &cfg, &ExecBudget::unlimited()).unwrap();
        let mut want = oracle_maxima(&series, &cfg);
        want.sort_by(f64::total_cmp);
        assert_eq!(got.shuffled_maxima.len(), want.len());
        for (x, y) in want.iter().zip(&got.shuffled_maxima) {
            assert!((x - y).abs() <= 1e-9 * x.max(1.0), "{x} vs {y}");
        }
        // Two rounds ride each packed transform.
        assert_eq!(packed.transforms_run(), cfg.permutations.div_ceil(2));
    }

    #[test]
    fn permutation_maxima_match_the_oracle() {
        // The property the r2c path was first held to, now against the
        // dense oracle: random lengths 1..=300 and counts, m in 1..12. The
        // tolerance is 1e-12 of the largest maximum — rounding of a
        // differently ordered DFT is a few ULPs of the dominant magnitude
        // (`O(ε·log n)`), four orders below it; a real algebra error is
        // eight above. The shuffle RNG stream is shared, so lengths and
        // order agree exactly.
        use baywatch_stats::rng::forall;
        forall(32, 2, |rng| {
            let len = rng.random_range(1..=300);
            let values = (0..len).map(|_| rng.random_range(0.0..50.0)).collect();
            let series = TimeSeries::from_values(0, 1, values).unwrap();
            let cfg = PermutationConfig {
                permutations: rng.random_range(1usize..12),
                ..Default::default()
            };
            let mut want = oracle_maxima(&series, &cfg);
            want.sort_by(f64::total_cmp);
            let ws = SpectralWorkspace::new();
            let got = threshold_in(&ws, &series, &cfg, &ExecBudget::unlimited()).unwrap();
            assert_eq!(got.shuffled_maxima.len(), want.len());
            let scale = want.last().copied().unwrap_or(0.0).max(1e-30);
            for (x, y) in want.iter().zip(&got.shuffled_maxima) {
                assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
            }
            let p_t =
                want[want.len() - (cfg.permutations - quantile_rank(0.95, cfg.permutations) + 1)];
            assert!((p_t - got.threshold).abs() <= 1e-12 * scale);
        });
    }

    #[test]
    fn constant_and_tiny_series_have_zero_maxima() {
        // Zero after centring: every round's maximum is 0 exactly, and a
        // degenerate (n < 4) series builds no plan.
        for n in [1usize, 2, 3, 4, 17, 64] {
            let series = TimeSeries::from_values(0, 1, vec![3.0; n]).unwrap();
            let cfg = PermutationConfig {
                permutations: 5,
                ..Default::default()
            };
            let ws = SpectralWorkspace::new();
            let thr = threshold_in(&ws, &series, &cfg, &ExecBudget::unlimited()).unwrap();
            assert_eq!(thr.shuffled_maxima, vec![0.0; 5], "n={n}");
            if n < 4 {
                assert_eq!(ws.plans_built() + ws.transforms_run(), 0, "n={n}");
            }
        }
    }

    #[test]
    fn quantile_rank_boundaries() {
        // The ⌈C·m⌉ rank at every boundary the satellite calls out, plus
        // the floating-point overshoot regressions: products a few ULPs
        // above an integer must snap down, not ceil up.
        for (m, c, want) in [
            (1usize, 0.95, 1),
            (1, 1.0, 1),
            (19, 0.95, 19), // ⌈18.05⌉: the maximum
            (19, 1.0, 19),
            (20, 0.95, 19), // the 19th smallest, not the 20th
            (20, 1.0, 20),  // the maximum, in bounds
            (10, 0.9, 9),
            (25, 0.56, 14), // 0.56·25 = 14.000000000000002 in f64
            (100, 0.07, 7), // 0.07·100 = 7.000000000000001 in f64
            (20, 0.001, 1), // vanishing product clamps up to rank 1
        ] {
            assert_eq!(quantile_rank(c, m), want, "C={c} m={m}");
        }
    }

    #[test]
    fn quantile_boundaries_select_correct_order_statistic() {
        let series = beacon_series(50, 10);
        for (m, want_rank_95) in [(1usize, 1usize), (19, 19), (20, 19)] {
            // C = 0.0 is outside (0, 1]: rejected at every m, never an
            // out-of-bounds index.
            assert!(permutation_threshold(
                &series,
                &PermutationConfig {
                    permutations: m,
                    confidence: 0.0,
                    ..Default::default()
                }
            )
            .is_err());

            let thr = permutation_threshold(
                &series,
                &PermutationConfig {
                    permutations: m,
                    confidence: 0.95,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(thr.shuffled_maxima.len(), m);
            assert_eq!(thr.threshold, thr.shuffled_maxima[want_rank_95 - 1]);

            // C = 1.0 selects the maximum — in bounds, never a panic.
            let thr = permutation_threshold(
                &series,
                &PermutationConfig {
                    permutations: m,
                    confidence: 1.0,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(thr.threshold, *thr.shuffled_maxima.last().unwrap());
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let series = beacon_series(80, 15);
        let cfg = PermutationConfig::default();
        let a = permutation_threshold(&series, &cfg).unwrap();
        let b = permutation_threshold(&series, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_maxima() {
        let series = beacon_series(80, 15);
        let a = permutation_threshold(&series, &PermutationConfig::default()).unwrap();
        let b = permutation_threshold(
            &series,
            &PermutationConfig {
                seed: 12345,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a.shuffled_maxima, b.shuffled_maxima);
    }

    #[test]
    fn invalid_config_rejected() {
        let series = beacon_series(10, 5);
        assert!(permutation_threshold(
            &series,
            &PermutationConfig {
                permutations: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(permutation_threshold(
            &series,
            &PermutationConfig {
                confidence: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(permutation_threshold(
            &series,
            &PermutationConfig {
                confidence: 1.5,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn budget_stops_rounds_deterministically() {
        let series = beacon_series(80, 15);
        let cfg = PermutationConfig::default();
        let n = series.len() as u64;
        let ws = crate::workspace::SpectralWorkspace::new();

        // Enough for exactly 3 rounds: the 4th checkpoint exceeds the cap,
        // after the first two rounds' packed FFT already ran.
        let budget = ExecBudget::new(Some(3 * n));
        let err = threshold_in(&ws, &series, &cfg, &budget);
        assert_eq!(err, Err(TimeSeriesError::BudgetExhausted));
        assert_eq!(budget.ops_used(), 4 * n, "charged through the 4th round");
        assert_eq!(ws.transforms_run(), 1);

        // The charge follows the work: an early reject pays for the rounds
        // it ran, so the same ceiling that starves the full threshold is
        // ample for a pair rejected after one packed FFT.
        let budget = ExecBudget::new(Some(3 * n));
        let rejected = permutation_filter(&ws, &series, &cfg, 0.0, &budget).unwrap();
        assert_eq!(budget.ops_used(), rejected.shuffled_maxima.len() as u64 * n);

        // Unlimited budget is byte-identical to the unbudgeted entry point.
        let unlimited = ExecBudget::unlimited();
        let a = threshold_in(&ws, &series, &cfg, &unlimited).unwrap();
        let b = threshold_in(&ws, &series, &cfg, &ExecBudget::unlimited()).unwrap();
        assert_eq!(a, b);
    }

    /// Every round as the dense, centred series it stands for, replayed
    /// from the contract alone: one `Rng` per pair; per round a partial
    /// Fisher–Yates of `c` draws over an index permutation that starts as
    /// the identity and is never reset; the `c` non-zero values, in series
    /// order, dropped on the drawn bins.
    fn densified_rounds(series: &TimeSeries, cfg: &PermutationConfig) -> Vec<Vec<f64>> {
        let n = series.len();
        let values: Vec<f64> = series.events().iter().map(|&(_, v)| v).collect();
        let mean = series.mean();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        (0..cfg.permutations)
            .map(|_| {
                let mut dense = vec![-mean; n];
                for (j, v) in values.iter().enumerate() {
                    order.swap(j, rng.random_range(j..n));
                    dense[order[j]] = v - mean;
                }
                dense
            })
            .collect()
    }

    /// Per round, in round order, the periodogram maximum of its dense
    /// series by the dense oracle: `max |X(k)|²/n` over `k = 1..=N/2`,
    /// 0 for a degenerate (n < 4) series.
    fn oracle_maxima(series: &TimeSeries, cfg: &PermutationConfig) -> Vec<f64> {
        densified_rounds(series, cfg)
            .iter()
            .map(|dense| {
                if dense.len() < 4 {
                    return 0.0;
                }
                Plan::dense_half_spectrum(dense)[1..]
                    .iter()
                    .map(|x| x.norm_sqr() / dense.len() as f64)
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// `round_maxima` on the workspace's own placement, unlimited budget.
    fn rounds_until(
        ws: &SpectralWorkspace,
        series: &TimeSeries,
        cfg: &PermutationConfig,
        observed: f64,
        to_reject: usize,
    ) -> Vec<f64> {
        let unlimited = ExecBudget::unlimited();
        ws.with_placement(|p| round_maxima(ws, series, cfg, observed, to_reject, &unlimited, p))
            .unwrap()
    }

    fn all_rounds(
        ws: &SpectralWorkspace,
        series: &TimeSeries,
        cfg: &PermutationConfig,
    ) -> Vec<f64> {
        rounds_until(ws, series, cfg, f64::INFINITY, 1)
    }

    #[test]
    fn each_round_is_the_periodogram_maximum_of_its_placement() {
        // The null statistic is the observed one: round r's maximum is the
        // periodogram maximum of the r-th placement of the single RNG
        // stream — by the rows-from-events arithmetic, within rounding of
        // the dense oracle.
        for series in round_corpus() {
            // Odd m ends on a lone round; long series run fewer rounds.
            let long = series.len() > 10_000;
            for m in if long { [3, 4] } else { [5, 20] } {
                let cfg = PermutationConfig {
                    permutations: m,
                    ..Default::default()
                };
                let expected = oracle_maxima(&series, &cfg);
                let tag = format!("n = {} m = {m}", series.len());
                let packed = all_rounds(&SpectralWorkspace::new(), &series, &cfg);
                assert_eq!(packed.len(), m, "{tag}");
                for (got, want) in packed.iter().zip(&expected) {
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0),
                        "{tag}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of each maximum's bits.
    fn fnv1a(maxima: &[f64], mut hash: u64) -> u64 {
        for byte in maxima.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn round_maxima_are_the_parents_bits() {
        // Every round maximum, in round order, of every corpus series at
        // m = 5 (ending on a lone round) and m = 20, hashed bit for bit.
        // The constant was taken before the kernel learnt its plateau
        // rows, its bit-reversed input order, its AVX2 build and its four
        // running maxima: none of them may move a bit.
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for series in round_corpus() {
            for permutations in [5, 20] {
                let cfg = PermutationConfig {
                    permutations,
                    ..Default::default()
                };
                hash = fnv1a(&all_rounds(&SpectralWorkspace::new(), &series, &cfg), hash);
            }
        }
        assert_eq!(hash, 0xcd59_e499_68aa_c2b1, "{hash:#018x}");
    }

    #[test]
    fn plateau_rows_stay_with_their_pair() {
        // Equal n and event count, so equal N and M = 8, but other values
        // and another mean: one pair's plateau rows are wrong for the
        // other. Interleaved on one workspace — full runs, runs ending on
        // a lone round (m = 5), early rejects after the first packed
        // transform — every run gives a fresh workspace's bits.
        let (a, b) = (sparse_series(3000, 20, 2), sparse_series(3000, 20, 5));
        assert_eq!((a.len(), a.events().len()), (b.len(), b.events().len()));
        assert_ne!(a.mean(), b.mean());
        let ws = SpectralWorkspace::new();
        let unlimited = ExecBudget::unlimited();
        let full = f64::INFINITY;
        for (series, permutations, observed) in [
            (&a, 20, full),
            (&b, 20, full),
            (&a, 5, full),
            (&b, 20, 0.0),
            (&a, 20, 0.0),
            (&b, 5, full),
            (&a, 20, full),
        ] {
            let cfg = PermutationConfig {
                permutations,
                ..Default::default()
            };
            let shared = permutation_filter(&ws, series, &cfg, observed, &unlimited).unwrap();
            let fresh = SpectralWorkspace::new();
            let alone = permutation_filter(&fresh, series, &cfg, observed, &unlimited).unwrap();
            let bits = |t: &PermutationThreshold| -> Vec<u64> {
                t.shuffled_maxima.iter().map(|v| v.to_bits()).collect()
            };
            let tag = format!(
                "mean {} m = {permutations} observed {observed}",
                series.mean()
            );
            assert_eq!(bits(&shared), bits(&alone), "{tag}");
            assert_eq!(
                shared.threshold.to_bits(),
                alone.threshold.to_bits(),
                "{tag}"
            );
            if observed == 0.0 {
                assert_eq!(shared.shuffled_maxima.len(), 2, "{tag}");
            }
        }
    }

    #[test]
    fn placements_are_uniform_and_keep_the_values() {
        // n = 5 with two distinct values: 5·4 ordered placements, each
        // 1/20 of 20 000 seeds within 5σ — in the first round (identity
        // order) and in the second (whatever the first left behind).
        let series = TimeSeries::from_values(0, 1, vec![0.0, 1.0, 0.0, 2.0, 0.0]).unwrap();
        let ws = SpectralWorkspace::new();
        let unlimited = ExecBudget::unlimited();
        let seeds = 20_000u64;
        let mut seen = [[0u32; 25]; 2];
        for seed in 0..seeds {
            let cfg = PermutationConfig {
                permutations: 2,
                seed,
                ..Default::default()
            };
            ws.with_placement(|p| {
                round_maxima(&ws, &series, &cfg, f64::INFINITY, 1, &unlimited, p).unwrap();
                assert_eq!(p.values, [1.0, 2.0]);
                assert_eq!(p.spots.len(), 4);
                for (round, spots) in p.spots.chunks_exact(2).enumerate() {
                    assert!(spots[0] != spots[1] && spots.iter().all(|&t| t < 5));
                    seen[round][(5 * spots[0] + spots[1]) as usize] += 1;
                }
            });
        }
        let expect = seeds as f64 / 20.0;
        let sigma = (seeds as f64 * (1.0 / 20.0) * (19.0 / 20.0)).sqrt();
        for round in seen {
            let placements: Vec<u32> = round.into_iter().filter(|&hits| hits > 0).collect();
            assert_eq!(placements.len(), 20);
            for hits in placements {
                assert!((f64::from(hits) - expect).abs() <= 5.0 * sigma, "{hits}");
            }
        }
    }

    #[test]
    fn two_workspaces_on_two_threads_agree() {
        let series = sparse_series(3000, 100, 2);
        let cfg = PermutationConfig::default();
        let barrier = std::sync::Barrier::new(2);
        let run = || {
            barrier.wait();
            threshold_in(
                &SpectralWorkspace::new(),
                &series,
                &cfg,
                &ExecBudget::unlimited(),
            )
            .unwrap()
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(run);
            (run(), other.join().expect("worker panicked"))
        });
        assert_eq!(a, b);
        assert_eq!(a, permutation_threshold(&series, &cfg).unwrap());
    }

    #[test]
    fn early_reject_is_exact_and_a_prefix_of_the_full_run() {
        let ws = crate::workspace::SpectralWorkspace::new();
        let unlimited = ExecBudget::unlimited();
        for series in exactness_corpus() {
            let own_max = Periodogram::compute(&series).max_power();
            for m in [1usize, 2, 19, 20, 21] {
                for confidence in [0.5, 0.95, 1.0] {
                    let cfg = PermutationConfig {
                        permutations: m,
                        confidence,
                        ..Default::default()
                    };
                    let to_reject = m - quantile_rank(confidence, m) + 1;
                    let rounds = |observed| rounds_until(&ws, &series, &cfg, observed, to_reject);
                    let full = rounds(f64::INFINITY);
                    assert_eq!(full.len(), m);
                    let p_t = threshold_in(&ws, &series, &cfg, &ExecBudget::unlimited())
                        .unwrap()
                        .threshold;
                    // The series' own maximum, plus every shuffle maximum
                    // as an exact tie and its two neighbours.
                    let mut observed = vec![own_max];
                    for &v in &full {
                        observed.extend([v, f64::from_bits(v.to_bits() + 1)]);
                        if v > 0.0 {
                            observed.push(f64::from_bits(v.to_bits() - 1));
                        }
                    }
                    for x in observed {
                        let early = rounds(x);
                        let tag = format!("n={} m={m} C={confidence} x={x}", series.len());
                        // Unsorted per-round maxima: a bit-identical prefix,
                        // ending with the first batch that settles it.
                        let mut met = 0;
                        let stop = full.chunks(2).position(|batch| {
                            met += batch.iter().filter(|&&v| v >= x).count();
                            met >= to_reject
                        });
                        let expect = stop.map_or(m, |i| (2 * (i + 1)).min(m));
                        assert_eq!(early.len(), expect, "{tag}");
                        for (a, b) in early.iter().zip(&full) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
                        }
                        let result = permutation_filter(&ws, &series, &cfg, x, &unlimited).unwrap();
                        assert_eq!(result.shuffled_maxima.len(), early.len(), "{tag}");
                        // Rejects iff x <= p_T; `lines_above` is the strict
                        // `power > threshold`, so a reject needs x <= the
                        // reported bound and a pass needs the exact p_T.
                        if x <= p_t {
                            assert!(x <= result.threshold && result.threshold <= p_t, "{tag}");
                        } else {
                            assert_eq!(early.len(), m, "{tag}");
                            assert_eq!(result.threshold.to_bits(), p_t.to_bits(), "{tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tie_with_a_shuffle_maximum_counts_as_an_exceedance() {
        // C = 1: p_T is the largest maximum, one exceedance rejects. An
        // observed maximum exactly equal to the first batch's larger one
        // is `<= p_T`, so the strict filter keeps nothing — that batch
        // must settle it. One ULP higher and it no longer does.
        let series = exactness_corpus().swap_remove(2);
        let cfg = PermutationConfig {
            confidence: 1.0,
            ..Default::default()
        };
        let ws = crate::workspace::SpectralWorkspace::new();
        let unlimited = ExecBudget::unlimited();
        let first = permutation_filter(&ws, &series, &cfg, 0.0, &unlimited).unwrap();
        assert_eq!(first.shuffled_maxima.len(), 2);
        let tie = first.shuffled_maxima[1];
        let tied = permutation_filter(&ws, &series, &cfg, tie, &unlimited).unwrap();
        assert_eq!(tied, first);
        let above = f64::from_bits(tie.to_bits() + 1);
        let kept = permutation_filter(&ws, &series, &cfg, above, &unlimited).unwrap();
        assert!(kept.shuffled_maxima.len() > 2);
    }

    #[test]
    fn more_permutations_tighten_estimate() {
        // With more permutations the threshold estimate stabilizes: the
        // spread between two independent runs shrinks (ablation of m).
        let series = beacon_series(100, 20);
        let spread = |m: usize| {
            let a = permutation_threshold(
                &series,
                &PermutationConfig {
                    permutations: m,
                    seed: 1,
                    ..Default::default()
                },
            )
            .unwrap()
            .threshold;
            let b = permutation_threshold(
                &series,
                &PermutationConfig {
                    permutations: m,
                    seed: 2,
                    ..Default::default()
                },
            )
            .unwrap()
            .threshold;
            (a - b).abs() / a.max(b)
        };
        // Not strictly monotone per-run, but 40 permutations should not be
        // wildly worse than 5.
        assert!(spread(40) <= spread(5) + 0.5);
    }
}
