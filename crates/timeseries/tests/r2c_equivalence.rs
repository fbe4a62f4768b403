//! Equivalence of the real-valued (r2c) spectral path against the legacy
//! full-complex reference, across the three FFT consumers of the
//! detection pipeline: periodogram, permutation maxima, and the ACF
//! round trip.
//!
//! # Tolerance justification
//!
//! Both modes zero-pad a series to the same power-of-two length, so they
//! evaluate a mathematically identical DFT; the packed half-length r2c
//! algorithm does it through a different (shorter) butterfly recipe plus
//! an `O(n)` Hermitian unpack, so individual output bins differ from the
//! full-length transform only by reordered floating-point rounding — a
//! few ULPs relative to the spectrum's dominant magnitude (`O(ε·log n)`
//! in theory). Exact bit-equality therefore cannot hold bin-for-bin and
//! is asserted only on the grid (bin, frequency, period) and on
//! degenerate inputs. The comparisons use a relative tolerance of
//! `1e-12 ×` the dominant magnitude — about four decimal orders above
//! ULP noise at the lengths tested, eight below signal scale, so a real
//! algebra error fails loudly while legitimate rounding passes.

use baywatch_timeseries::acf::Autocorrelation;
use baywatch_timeseries::periodogram::Periodogram;
use baywatch_timeseries::permutation::{permutation_threshold_in, PermutationConfig};
use baywatch_timeseries::series::TimeSeries;
use baywatch_timeseries::workspace::{SpectralMode, SpectralWorkspace};
use proptest::prelude::*;

/// Series values covering flat stretches, spikes, and arbitrary counts.
/// Lengths 1..=300 include n < 4, odd, even, prime, and power-of-two
/// series (every transform pads to the next power of two internally).
fn series_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..50.0f64, 1..=300)
}

fn workspaces() -> (SpectralWorkspace, SpectralWorkspace) {
    (
        SpectralWorkspace::with_mode(SpectralMode::ComplexFull),
        SpectralWorkspace::new(), // RealHalf default
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// r2c periodogram lines match the complex reference: identical grid
    /// (bin, frequency, period) and powers within FFT rounding.
    #[test]
    fn periodogram_modes_equivalent(values in series_values()) {
        let (legacy, packed) = workspaces();
        let a = Periodogram::from_samples_in(&legacy, &values, 1.0);
        let b = Periodogram::from_samples_in(&packed, &values, 1.0);
        prop_assert_eq!(a.lines().len(), b.lines().len());
        let scale = a.max_power().max(1e-30);
        for (x, y) in a.lines().iter().zip(b.lines()) {
            prop_assert_eq!(x.bin, y.bin);
            prop_assert_eq!(x.frequency.to_bits(), y.frequency.to_bits());
            prop_assert_eq!(x.period.to_bits(), y.period.to_bits());
            prop_assert!(
                (x.power - y.power).abs() <= 1e-12 * scale,
                "bin {}: {} vs {}", x.bin, x.power, y.power
            );
        }
        // Parseval accounting holds identically in both modes: over the
        // N padded bins Σ|X(k)|² = N·Σx², and the lines (power |X(k)|²/n)
        // leave out only the DC bin, |Σx|²/n for these uncentered values.
        let n = values.len() as f64;
        let sum: f64 = values.iter().sum();
        let ss: f64 = values.iter().map(|v| v * v).sum();
        let want = values.len().next_power_of_two() as f64 / n * ss - sum * sum / n;
        if a.lines().len() > 1 {
            prop_assert!((a.two_sided_energy() - want).abs() <= 1e-9 * ss.max(1.0));
            prop_assert!((b.two_sided_energy() - want).abs() <= 1e-9 * ss.max(1.0));
        }
    }

    /// Batched permutation maxima and the resulting threshold match the
    /// reference per-round complex loop; the shuffle RNG stream is shared, so
    /// lengths and ordering agree exactly.
    #[test]
    fn permutation_modes_equivalent(values in series_values(), m in 1usize..12) {
        let series = TimeSeries::from_values(0, 1, values).unwrap();
        let cfg = PermutationConfig { permutations: m, ..Default::default() };
        let (legacy, packed) = workspaces();
        let a = permutation_threshold_in(&legacy, &series, &cfg).unwrap();
        let b = permutation_threshold_in(&packed, &series, &cfg).unwrap();
        prop_assert_eq!(a.shuffled_maxima.len(), b.shuffled_maxima.len());
        let scale = a.shuffled_maxima.last().copied().unwrap_or(0.0).max(1e-30);
        for (x, y) in a.shuffled_maxima.iter().zip(&b.shuffled_maxima) {
            prop_assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
        }
        prop_assert!((a.threshold - b.threshold).abs() <= 1e-12 * scale);
    }

    /// The packed (r2c → |X|² → c2r) ACF round trip matches the complex
    /// round trip. Normalized ACF values are dimensionless and bounded by
    /// 1, so an absolute tolerance is the right comparison.
    #[test]
    fn acf_modes_equivalent(values in series_values()) {
        let (legacy, packed) = workspaces();
        let a = Autocorrelation::from_samples_in(&legacy, &values, 1.0);
        let b = Autocorrelation::from_samples_in(&packed, &values, 1.0);
        prop_assert_eq!(a.len(), b.len());
        for (lag, (x, y)) in a.values().iter().zip(b.values()) .enumerate() {
            prop_assert!((x - y).abs() <= 1e-9, "lag {lag}: {x} vs {y}");
        }
    }
}

/// Constant series: zero after centering in every mode — empty spectra,
/// all-zero permutation maxima, and the degenerate ACF, identically.
#[test]
fn constant_series_degenerate_in_both_modes() {
    for n in [1usize, 2, 3, 4, 17, 64] {
        let values = vec![3.0; n];
        let series = TimeSeries::from_values(0, 1, values.clone()).unwrap();
        let (legacy, packed) = workspaces();

        let a = Periodogram::from_samples_in(&legacy, &series.centered(), 1.0);
        let b = Periodogram::from_samples_in(&packed, &series.centered(), 1.0);
        assert_eq!(a.max_power(), 0.0, "n={n}");
        assert_eq!(b.max_power(), 0.0, "n={n}");

        let cfg = PermutationConfig {
            permutations: 5,
            ..Default::default()
        };
        let ta = permutation_threshold_in(&legacy, &series, &cfg).unwrap();
        let tb = permutation_threshold_in(&packed, &series, &cfg).unwrap();
        assert_eq!(ta.threshold, 0.0, "n={n}");
        assert_eq!(ta, tb, "n={n}");

        let aa = Autocorrelation::from_samples_in(&legacy, &series.centered(), 1.0);
        let ab = Autocorrelation::from_samples_in(&packed, &series.centered(), 1.0);
        assert_eq!(aa, ab, "n={n}");
        assert_eq!(aa.value_at_lag(0), Some(1.0));
    }
}

/// Tiny (n < 4) series short-circuit before any transform in both modes.
#[test]
fn tiny_series_equivalent() {
    for values in [vec![1.0], vec![1.0, 5.0], vec![1.0, 5.0, 2.0]] {
        let (legacy, packed) = workspaces();
        let a = Periodogram::from_samples_in(&legacy, &values, 1.0);
        let b = Periodogram::from_samples_in(&packed, &values, 1.0);
        assert!(a.lines().is_empty() && b.lines().is_empty());

        let series = TimeSeries::from_values(0, 1, values).unwrap();
        let cfg = PermutationConfig {
            permutations: 3,
            ..Default::default()
        };
        let ta = permutation_threshold_in(&legacy, &series, &cfg).unwrap();
        let tb = permutation_threshold_in(&packed, &series, &cfg).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(ta.shuffled_maxima, vec![0.0; 3]);
        // No plan is ever built for a degenerate length.
        assert_eq!(legacy.plans_built(), 0);
        assert_eq!(packed.plans_built(), 0);
    }
}
