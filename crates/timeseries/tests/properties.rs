//! Property-based tests of the time-series layer.

use baywatch_timeseries::acf::Autocorrelation;
use baywatch_timeseries::gmm::{fit_gmm, select_gmm, GmmConfig};
use baywatch_timeseries::periodogram::Periodogram;
use baywatch_timeseries::permutation::{
    permutation_filter, permutation_threshold, permutation_threshold_in, PermutationConfig,
};
use baywatch_timeseries::series::TimeSeries;
use baywatch_timeseries::symbolize::{match_fraction, ngram_histogram, symbolize};
use baywatch_timeseries::{ExecBudget, SpectralWorkspace};
use proptest::prelude::*;

fn sorted_timestamps() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..500_000, 8..300).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Series shapes the early-reject exactness argument must hold on: clean
/// and jittered beacons, memoryless gaps, a handful of events far apart
/// (the placed rounds' largest row counts; a zero gap stacks two events in
/// one bin), a constant series (every bin an event: the plain transform)
/// and degenerate (n < 4) ones; the drawn gaps make n odd and even alike.
fn filter_series() -> impl Strategy<Value = TimeSeries> {
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
    prop_oneof![
        (2u64..40, 8usize..60).prop_map(move |(period, count)| from_gaps(vec![period; count])),
        (5u64..40, prop::collection::vec(0u64..4, 8..60)).prop_map(move |(period, jitter)| {
            from_gaps(jitter.into_iter().map(|j| period + j).collect())
        }),
        prop::collection::vec(1u64..40, 8..120).prop_map(from_gaps),
        prop::collection::vec(0u64..3_000, 8..20).prop_map(from_gaps),
        (4usize..200, 1u32..5).prop_map(|(n, c)| TimeSeries::from_values(
            0,
            1,
            vec![f64::from(c); n]
        )
        .unwrap()),
        prop::collection::vec(0u32..4, 1..4).prop_map(|v| TimeSeries::from_values(
            0,
            1,
            v.into_iter().map(f64::from).collect()
        )
        .unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The early-reject filter is exact: it rejects iff the observed
    /// maximum is `<= p_T` of the full m-round run (ties reject), passes
    /// carry the exact `p_T`, and the rounds it ran are the first rounds
    /// of the full run, bit for bit.
    #[test]
    fn early_reject_is_exact(
        series in filter_series(),
        m in prop::sample::select(vec![1usize, 2, 19, 20, 21]),
        confidence in prop::sample::select(vec![0.5, 0.95, 1.0]),
        seed in 0u64..1_000,
    ) {
        let cfg = PermutationConfig { permutations: m, confidence, seed };
        let ws = SpectralWorkspace::new();
        let unlimited = ExecBudget::unlimited();
        let full = permutation_threshold_in(&ws, &series, &cfg).unwrap();
        let periodogram = Periodogram::compute_in(&ws, &series);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // The series' own maximum, and an exact tie with a shuffle maximum.
        for observed in [periodogram.max_power(), full.threshold] {
            let early = permutation_filter(&ws, &series, &cfg, observed, &unlimited).unwrap();
            prop_assert_eq!(observed <= early.threshold, observed <= full.threshold);
            prop_assert_eq!(
                periodogram.lines_above(early.threshold).is_empty(),
                periodogram.lines_above(full.threshold).is_empty()
            );
            if observed > full.threshold {
                prop_assert_eq!(&early, &full);
            } else {
                prop_assert!(early.threshold <= full.threshold);
            }
            // Same seed, same (1,2),(3,4)… pairing, each round the same
            // c draws of the one stream: the first r rounds of the
            // m-round run are an r-round run.
            let rounds = early.shuffled_maxima.len();
            prop_assert!(rounds == m || rounds & 1 == 0);
            let prefix = permutation_threshold_in(
                &ws,
                &series,
                &PermutationConfig { permutations: rounds, ..cfg },
            )
            .unwrap();
            prop_assert_eq!(bits(&early.shuffled_maxima), bits(&prefix.shuffled_maxima));
            // … and each of them is one of the full run's maxima.
            let mut rest = full.shuffled_maxima.iter();
            for v in &early.shuffled_maxima {
                prop_assert!(rest.any(|f| f.to_bits() == v.to_bits()));
            }
        }
    }

    /// ACF values are bounded by 1 in magnitude and ACF(0) = 1 for any
    /// non-degenerate series.
    #[test]
    fn acf_bounds(ts in sorted_timestamps()) {
        prop_assume!(ts.first() != ts.last());
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let acf = Autocorrelation::compute(&series);
        prop_assert!((acf.value_at_lag(0).unwrap() - 1.0).abs() < 1e-6);
        for (lag, &v) in acf.values().iter().enumerate() {
            prop_assert!(v.abs() <= 1.0 + 1e-6, "ACF({lag}) = {v}");
        }
    }

    /// Periodogram power is non-negative; frequency × period ≡ 1.
    #[test]
    fn periodogram_sanity(ts in sorted_timestamps()) {
        prop_assume!(ts.first() != ts.last());
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let pg = Periodogram::compute(&series);
        for line in pg.lines() {
            prop_assert!(line.power >= 0.0);
            prop_assert!((line.frequency * line.period - 1.0).abs() < 1e-9);
        }
    }

    /// The permutation threshold is one of the shuffled maxima and the
    /// maxima are sorted.
    #[test]
    fn permutation_threshold_well_formed(ts in sorted_timestamps(), m in 1usize..30) {
        prop_assume!(ts.first() != ts.last());
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let cfg = PermutationConfig { permutations: m, ..Default::default() };
        let thr = permutation_threshold(&series, &cfg).unwrap();
        prop_assert_eq!(thr.shuffled_maxima.len(), m);
        prop_assert!(thr.shuffled_maxima.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(thr.shuffled_maxima.contains(&thr.threshold));
    }

    /// GMM weights always sum to 1 and components are finite, for any data
    /// and any component count that fits.
    #[test]
    fn gmm_weights_normalized(
        data in prop::collection::vec(0.1..10_000.0f64, 8..150),
        k in 1usize..5,
    ) {
        prop_assume!(data.len() >= k);
        let g = fit_gmm(&data, k, &GmmConfig::default()).unwrap();
        let sum: f64 = g.components().iter().map(|c| c.weight).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
        for c in g.components() {
            prop_assert!(c.mean.is_finite());
            prop_assert!(c.std_dev > 0.0);
        }
        prop_assert!(g.bic().is_finite());
    }

    /// BIC model selection returns one BIC per candidate k and the chosen
    /// model's BIC is the minimum.
    #[test]
    fn gmm_selection_minimizes_bic(data in prop::collection::vec(0.1..1000.0f64, 16..120)) {
        let cfg = GmmConfig { max_components: 3, ..Default::default() };
        let (best, bics) = select_gmm(&data, &cfg).unwrap();
        prop_assert!(!bics.is_empty());
        let min = bics.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((best.bic() - min).abs() < 1e-6);
    }

    /// Symbolization is total (one symbol per interval) and consistent
    /// with match_fraction.
    #[test]
    fn symbolize_consistency(
        intervals in prop::collection::vec(0.0..5_000.0f64, 0..300),
        period in 1.0..5_000.0f64,
        tol in 0.0..0.5f64,
    ) {
        let symbols = symbolize(&intervals, &[period], tol);
        prop_assert_eq!(symbols.len(), intervals.len());
        let matches = symbols.iter().filter(|&&s| s == b'x').count();
        if !symbols.is_empty() {
            prop_assert!((match_fraction(&symbols) - matches as f64 / symbols.len() as f64).abs() < 1e-12);
        }
        // n-gram histogram total = len - n + 1 (when applicable).
        let hist = ngram_histogram(&symbols, 3);
        let total: usize = hist.values().sum();
        prop_assert_eq!(total, symbols.len().saturating_sub(2));
    }

    /// Rescaling twice equals rescaling once to the final scale.
    #[test]
    fn rescale_composes(ts in sorted_timestamps(), a in 2u64..10, b in 2u64..10) {
        prop_assume!(ts.first() != ts.last());
        let fine = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let two_step = fine.rescale(a).unwrap().rescale(a * b).unwrap();
        let one_step = fine.rescale(a * b).unwrap();
        // Bin boundaries agree because both anchor at the series start.
        let s2: f64 = two_step.values().iter().sum();
        let s1: f64 = one_step.values().iter().sum();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(one_step.scale(), two_step.scale());
    }
}
