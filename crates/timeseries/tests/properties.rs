//! Property-based tests of the time-series layer.

use baywatch_stats::rng::{forall, Rng};
use baywatch_timeseries::acf::Autocorrelation;
use baywatch_timeseries::gmm::{fit_gmm, select_gmm, GmmConfig};
use baywatch_timeseries::periodogram::Periodogram;
use baywatch_timeseries::permutation::{
    permutation_filter, permutation_threshold, PermutationConfig,
};
use baywatch_timeseries::series::TimeSeries;
use baywatch_timeseries::symbolize::{match_fraction, ngram_histogram, symbolize};
use baywatch_timeseries::SpectralWorkspace;

/// `len` draws from `range`.
fn draws<T: baywatch_stats::rng::Uniform>(
    rng: &mut Rng,
    len: std::ops::Range<usize>,
    range: std::ops::Range<T>,
) -> Vec<T> {
    let len = rng.random_range(len);
    (0..len).map(|_| rng.random_range(range.clone())).collect()
}

/// 8..300 sorted timestamps spanning more than one second.
fn sorted_timestamps(rng: &mut Rng) -> Option<Vec<u64>> {
    let mut v = draws(rng, 8..300, 0u64..500_000);
    v.sort_unstable();
    (v.first() != v.last()).then_some(v)
}

/// Series shapes the early-reject exactness argument must hold on: clean
/// and jittered beacons, memoryless gaps, a handful of events far apart
/// (the placed rounds' largest row counts; a zero gap stacks two events in
/// one bin), a constant series (every bin an event: the plain transform)
/// and degenerate (n < 4) ones; the drawn gaps make n odd and even alike.
fn filter_series(rng: &mut Rng) -> TimeSeries {
    let from_gaps = |gaps: Vec<u64>| {
        let ts: Vec<u64> = gaps
            .iter()
            .scan(0u64, |t, g| {
                *t += g;
                Some(*t)
            })
            .collect();
        TimeSeries::from_timestamps(&ts, 1).unwrap()
    };
    match rng.random_range(0..6) {
        0 => {
            let period = rng.random_range(2u64..40);
            from_gaps(vec![period; rng.random_range(8..60)])
        }
        1 => {
            let period = rng.random_range(5u64..40);
            let jitter = draws(rng, 8..60, 0u64..4);
            from_gaps(jitter.into_iter().map(|j| period + j).collect())
        }
        2 => from_gaps(draws(rng, 8..120, 1u64..40)),
        3 => from_gaps(draws(rng, 8..20, 0u64..3_000)),
        4 => {
            let n = rng.random_range(4..200);
            let c = rng.random_range(1u32..5);
            TimeSeries::from_values(0, 1, vec![f64::from(c); n]).unwrap()
        }
        _ => {
            let v = draws(rng, 1..4, 0u32..4);
            TimeSeries::from_values(0, 1, v.into_iter().map(f64::from).collect()).unwrap()
        }
    }
}

/// The early-reject filter is exact: it rejects iff the observed
/// maximum is `<= p_T` of the full m-round run (ties reject), passes
/// carry the exact `p_T`, and the rounds it ran are the first rounds
/// of the full run, bit for bit.
#[test]
fn early_reject_is_exact() {
    forall(32, 1, |rng| {
        let series = filter_series(rng);
        let m = *rng.choose(&[1usize, 2, 19, 20, 21]).unwrap();
        let confidence = *rng.choose(&[0.5, 0.95, 1.0]).unwrap();
        let seed = rng.random_range(0u64..1_000);
        let cfg = PermutationConfig {
            permutations: m,
            confidence,
            seed,
        };
        let ws = SpectralWorkspace::new();
        let full = permutation_filter(&ws, &series, &cfg, f64::INFINITY).unwrap();
        let periodogram = Periodogram::compute_in(&ws, &series);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // The series' own maximum, and an exact tie with a shuffle maximum.
        for observed in [periodogram.max_power(), full.threshold] {
            let early = permutation_filter(&ws, &series, &cfg, observed).unwrap();
            assert_eq!(observed <= early.threshold, observed <= full.threshold);
            assert_eq!(
                periodogram.lines_above(early.threshold).is_empty(),
                periodogram.lines_above(full.threshold).is_empty()
            );
            if observed > full.threshold {
                assert_eq!(&early, &full);
            } else {
                assert!(early.threshold <= full.threshold);
            }
            // Same seed, same (1,2),(3,4)… pairing, each round the same
            // c draws of the one stream: the first r rounds of the
            // m-round run are an r-round run.
            let rounds = early.shuffled_maxima.len();
            assert!(rounds == m || rounds & 1 == 0);
            let prefix = permutation_filter(
                &ws,
                &series,
                &PermutationConfig {
                    permutations: rounds,
                    ..cfg
                },
                f64::INFINITY,
            )
            .unwrap();
            assert_eq!(bits(&early.shuffled_maxima), bits(&prefix.shuffled_maxima));
            // … and each of them is one of the full run's maxima.
            let mut rest = full.shuffled_maxima.iter();
            for v in &early.shuffled_maxima {
                assert!(rest.any(|f| f.to_bits() == v.to_bits()));
            }
        }
    });
}

/// ACF values are bounded by 1 in magnitude and ACF(0) = 1 for any
/// non-degenerate series.
#[test]
fn acf_bounds() {
    forall(32, 2, |rng| {
        let Some(ts) = sorted_timestamps(rng) else {
            return;
        };
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let acf = Autocorrelation::compute(&series);
        assert!((acf.value_at_lag(0).unwrap() - 1.0).abs() < 1e-6);
        for (lag, &v) in acf.values().iter().enumerate() {
            assert!(v.abs() <= 1.0 + 1e-6, "ACF({lag}) = {v}");
        }
    });
}

/// Periodogram power is non-negative; frequency × period ≡ 1.
#[test]
fn periodogram_sanity() {
    forall(32, 3, |rng| {
        let Some(ts) = sorted_timestamps(rng) else {
            return;
        };
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let pg = Periodogram::compute(&series);
        for line in pg.lines() {
            assert!(line.power >= 0.0);
            assert!((line.frequency * line.period - 1.0).abs() < 1e-9);
        }
    });
}

/// The permutation threshold is one of the shuffled maxima and the
/// maxima are sorted.
#[test]
fn permutation_threshold_well_formed() {
    forall(32, 4, |rng| {
        let Some(ts) = sorted_timestamps(rng) else {
            return;
        };
        let m = rng.random_range(1usize..30);
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let cfg = PermutationConfig {
            permutations: m,
            ..Default::default()
        };
        let thr = permutation_threshold(&series, &cfg).unwrap();
        assert_eq!(thr.shuffled_maxima.len(), m);
        assert!(thr.shuffled_maxima.windows(2).all(|w| w[0] <= w[1]));
        assert!(thr.shuffled_maxima.contains(&thr.threshold));
    });
}

/// GMM weights always sum to 1 and components are finite, for any data
/// and any component count that fits.
#[test]
fn gmm_weights_normalized() {
    forall(32, 5, |rng| {
        let data = draws(rng, 8..150, 0.1..10_000.0);
        let k = rng.random_range(1usize..5);
        let g = fit_gmm(&data, k, &GmmConfig::default()).unwrap();
        let sum: f64 = g.components().iter().map(|c| c.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
        for c in g.components() {
            assert!(c.mean.is_finite());
            assert!(c.std_dev > 0.0);
        }
        assert!(g.bic().is_finite());
    });
}

/// BIC model selection returns one BIC per candidate k and the chosen
/// model's BIC is the minimum.
#[test]
fn gmm_selection_minimizes_bic() {
    forall(32, 6, |rng| {
        let data = draws(rng, 16..120, 0.1..1000.0);
        let cfg = GmmConfig {
            max_components: 3,
            ..Default::default()
        };
        let (best, bics) = select_gmm(&data, &cfg).unwrap();
        assert!(!bics.is_empty());
        let min = bics.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((best.bic() - min).abs() < 1e-6);
    });
}

/// Symbolization is total (one symbol per interval) and consistent
/// with match_fraction.
#[test]
fn symbolize_consistency() {
    forall(32, 7, |rng| {
        let intervals = draws(rng, 0..300, 0.0..5_000.0);
        let period = rng.random_range(1.0..5_000.0);
        let tol = rng.random_range(0.0..0.5);
        let symbols = symbolize(&intervals, &[period], tol);
        assert_eq!(symbols.len(), intervals.len());
        let matches = symbols.iter().filter(|&&s| s == b'x').count();
        if !symbols.is_empty() {
            assert!(
                (match_fraction(&symbols) - matches as f64 / symbols.len() as f64).abs() < 1e-12
            );
        }
        // n-gram histogram total = len - n + 1 (when applicable).
        let hist = ngram_histogram(&symbols, 3);
        let total: usize = hist.values().sum();
        assert_eq!(total, symbols.len().saturating_sub(2));
    });
}
