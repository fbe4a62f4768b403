//! Property-based tests on the core detection invariants, spanning the
//! timeseries and netsim crates.

use baywatch::netsim::synth::{multi_period_burst, random_arrivals, SyntheticBeacon};
use baywatch::timeseries::detector::{DetectorConfig, PeriodicityDetector};
use baywatch::timeseries::periodogram::{Periodogram, SpectralLine};
use baywatch::timeseries::permutation::permutation_threshold;
use baywatch::timeseries::series::{intervals_of, TimeSeries};
use baywatch::timeseries::ExecBudget;
use proptest::prelude::*;

/// Deterministic replay of the recorded `clean_beacons_always_detected`
/// proptest regression (`detector_properties.proptest-regressions`,
/// shrunk to `period = 83, seed = 6`): a clean 83 s train must always
/// yield a candidate within 10% of the truth, at every event count the
/// property ranges over. The failure mode was harmonic crowding — with a
/// span that is not an integer multiple of the period, the strongest-k
/// periodogram cut could retain only higher-harmonic lines, all of which
/// pruning then (correctly) rejected as below the minimum interval; see
/// the harmonic-crowding guard (Step 1a) in `PeriodicityDetector::detect`.
#[test]
fn regression_clean_beacon_period_83_seed_6() {
    let detector = PeriodicityDetector::new(DetectorConfig::default());
    for count in [60usize, 83, 100, 128, 150, 199] {
        let ts = SyntheticBeacon {
            period: 83.0,
            count,
            ..Default::default()
        }
        .generate(6);
        let report = detector.detect(&ts).unwrap();
        assert!(
            report.is_periodic(),
            "period 83, count {count} not detected"
        );
        let hit = report
            .candidates
            .iter()
            .any(|c| (c.period - 83.0).abs() <= 8.3);
        assert!(
            hit,
            "no candidate near 83 at count {count}: {:?}",
            report.candidates
        );
    }
}

/// Step 1 evaluated in full from its public pieces — every shuffle round,
/// the exact `p_T`, the strongest-k cut — as the reference the detector's
/// early reject must agree with.
fn full_step_one(ts: &[u64], cfg: &DetectorConfig) -> (f64, Vec<SpectralLine>) {
    let series = TimeSeries::from_timestamps(ts, cfg.time_scale).unwrap();
    let p_t = permutation_threshold(&series, &cfg.permutation)
        .unwrap()
        .threshold;
    let mut raw = Periodogram::compute(&series).lines_above(p_t);
    raw.truncate(cfg.max_candidates);
    (p_t, raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over a corpus shaped like pipebench's `detect_mix` (mostly
    /// memoryless pairs, some clean and noisy beacons, some two-scale
    /// bursts) the detector's verdict equals the full evaluation's: a
    /// pair leaves Step 1 empty-handed exactly when no line exceeds the
    /// full `p_T`, and a pair that passes carries that `p_T` and those
    /// lines, in that order, into pruning.
    #[test]
    fn early_reject_never_changes_the_verdict(
        kind in 0usize..10,
        count in 20usize..160,
        gap in 10u64..120,
        seed in 0u64..1_000,
    ) {
        let period = gap as f64;
        let ts = match kind {
            0..=5 => random_arrivals(1_000_000, count, period, seed),
            6 => SyntheticBeacon { period, count, ..Default::default() }.generate(seed),
            7 | 8 => SyntheticBeacon {
                period,
                gaussian_sigma: 0.03 * period,
                p_miss: 0.1,
                add_rate: 0.1,
                count,
                ..Default::default()
            }
            .generate(seed),
            _ => multi_period_burst(1_000_000, 2 + count / 20, 12, period / 4.0, 20.0 * period, 0.5, seed),
        };
        let cfg = DetectorConfig::default();
        let report = PeriodicityDetector::new(cfg.clone()).detect(&ts).unwrap();
        let (p_t, raw) = full_step_one(&ts, &cfg);
        prop_assert_eq!(report.is_periodic(), !report.candidates.is_empty());
        if raw.is_empty() {
            prop_assert_eq!(report.raw_candidates, 0);
            prop_assert!(report.candidates.is_empty() && report.prune_decisions.is_empty());
            prop_assert!(report.power_threshold <= p_t);
        } else {
            prop_assert_eq!(report.power_threshold.to_bits(), p_t.to_bits());
            // Steps 1a–1c add at most one line each, after these.
            prop_assert!((raw.len()..=raw.len() + 3).contains(&report.raw_candidates));
            prop_assert_eq!(report.prune_decisions.len(), report.raw_candidates);
            let carried: Vec<SpectralLine> =
                report.prune_decisions.iter().take(raw.len()).map(|d| d.line).collect();
            prop_assert_eq!(carried, raw);
        }
    }

    /// Any clean periodic train with a sane period and enough events is
    /// detected, and the recovered period is within 10% of the truth.
    #[test]
    fn clean_beacons_always_detected(period in 10u64..600, count in 60u64..200, seed in 0u64..50) {
        let ts = SyntheticBeacon {
            period: period as f64,
            count: count as usize,
            ..Default::default()
        }
        .generate(seed);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let report = detector.detect(&ts).unwrap();
        prop_assert!(report.is_periodic(), "period {period} not detected");
        let hit = report
            .candidates
            .iter()
            .any(|c| (c.period - period as f64).abs() <= 0.1 * period as f64);
        prop_assert!(hit, "no candidate near {period}: {:?}", report.candidates);
    }

    /// Mild jitter (σ ≤ 5% of the period) never defeats detection.
    #[test]
    fn mild_jitter_is_harmless(period in 30u64..300, seed in 0u64..30) {
        let ts = SyntheticBeacon {
            period: period as f64,
            gaussian_sigma: period as f64 * 0.05,
            count: 150,
            ..Default::default()
        }
        .generate(seed);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let report = detector.detect(&ts).unwrap();
        prop_assert!(report.is_periodic());
    }

    /// Exponential (memoryless) arrivals are essentially never verified
    /// with a strong score: the permutation threshold + ACF verification
    /// must hold the false-positive line.
    #[test]
    fn random_arrivals_rarely_verify(mean_gap in 20f64..400.0, seed in 0u64..40) {
        let ts = random_arrivals(1_000_000, 200, mean_gap, seed);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let report = detector.detect(&ts).unwrap();
        if let Some(best) = report.best() {
            prop_assert!(
                best.acf_score < 0.5,
                "random traffic verified strongly: {best:?}"
            );
        }
    }

    /// Rescaling preserves total event counts for any timestamp set.
    #[test]
    fn rescale_preserves_mass(raw in prop::collection::vec(0u64..100_000, 2..200), factor in 2u64..120) {
        let mut ts = raw;
        ts.sort_unstable();
        let fine = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let coarse = fine.rescale(factor).unwrap();
        let fine_sum: f64 = fine.values().iter().sum();
        let coarse_sum: f64 = coarse.values().iter().sum();
        prop_assert_eq!(fine_sum, coarse_sum);
        prop_assert_eq!(coarse.scale(), factor);
    }

    /// intervals_of is the discrete derivative of the timestamps: its sum
    /// equals the span, and every interval is non-negative.
    #[test]
    fn intervals_sum_to_span(raw in prop::collection::vec(0u64..1_000_000, 2..300)) {
        let mut ts = raw;
        ts.sort_unstable();
        let iv = intervals_of(&ts).unwrap();
        let span = (ts[ts.len() - 1] - ts[0]) as f64;
        let sum: f64 = iv.iter().sum();
        prop_assert!((sum - span).abs() < 1e-9);
        prop_assert!(iv.iter().all(|&i| i >= 0.0));
    }

    /// Detection under an explicitly unlimited [`ExecBudget`] is
    /// byte-identical to plain detection for any input: the budget
    /// checkpoints only ever early-return — they never perturb RNG
    /// streams, permutation order, or numerical state.
    #[test]
    fn unlimited_budget_never_changes_detection(
        period in 10u64..400,
        count in 40u64..160,
        sigma_pct in 0u64..8,
        seed in 0u64..40,
    ) {
        let ts = SyntheticBeacon {
            period: period as f64,
            gaussian_sigma: period as f64 * sigma_pct as f64 / 100.0,
            count: count as usize,
            ..Default::default()
        }
        .generate(seed);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let plain = detector.detect(&ts);
        let budgeted = detector.detect_budgeted(&ts, &ExecBudget::unlimited());
        prop_assert_eq!(plain, budgeted);
    }

    /// The detector never fabricates a period longer than the observation
    /// window or shorter than the time scale.
    #[test]
    fn detected_periods_are_physical(period in 15u64..200, seed in 0u64..20) {
        let ts = SyntheticBeacon {
            period: period as f64,
            gaussian_sigma: 1.0,
            count: 120,
            ..Default::default()
        }
        .generate(seed);
        let span = (ts[ts.len() - 1] - ts[0]) as f64;
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let report = detector.detect(&ts).unwrap();
        for c in &report.candidates {
            prop_assert!(c.period >= 1.0, "sub-scale period {}", c.period);
            prop_assert!(c.period <= span, "period {} exceeds span {span}", c.period);
            prop_assert!(c.acf_score <= 1.0 + 1e-9);
            prop_assert!(c.frequency > 0.0);
        }
    }
}
