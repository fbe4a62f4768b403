//! Periodogram (DFT power spectrum) analysis — Step 1 of the BAYWATCH
//! detection algorithm.
//!
//! The `n` bins of the mean-centered count series are zero-padded to
//! `N = n.next_power_of_two()` and transformed with an FFT (the rule every
//! transform of the [`workspace`](crate::workspace) follows), whose input
//! the workspace writes straight from the series' events. Zeros are the
//! centered series' mean, so padding adds no energy and no DC step: the
//! lines are the series' own discrete-time Fourier transform, sampled at
//! `k/N` cycles per bin instead of `k/n`. The power at bin `k` is
//! `|X(k)|² / n` — normalized by the *observed* length, so a line's height
//! does not depend on how much padding its series happened to need. Only
//! bins `1..=N/2` carry independent information for a real signal; bin `k`
//! maps to frequency `k / (N·dt)` Hz and period `N·dt / k` seconds, where
//! `dt` is the series' bin width. At `n = N` nothing is padded and the
//! spectrum is the plain length-`n` periodogram.
//!
//! A [`Periodogram`] keeps the `N/2` powers and nothing else per bin. A
//! [`SpectralLine`] — bin, frequency, period and power — is built only when
//! one is asked for: the candidates above a threshold
//! ([`lines_above`](Periodogram::lines_above)), the strongest line
//! ([`max_line`](Periodogram::max_line)), the bin nearest a frequency
//! (`nearest_line`, Step 1b), or a walk over
//! [`lines`](Periodogram::lines).
//!
//! # One-sided scaling convention
//!
//! Every line carries `power = |X(k)|² / n` — the *unfolded* per-bin
//! power, identical for interior bins and the Nyquist bin `k = N/2` (`N`
//! is even for every non-degenerate series). Interior bins have a
//! conjugate mirror at `N − k` that is *not* folded into the line, so the
//! one-sided sum [`total_energy`](Periodogram::total_energy) is roughly
//! *half* the two-sided one; the Nyquist bin and the (excluded, ≈0 after
//! mean centering) DC bin are self-conjugate and appear exactly once in
//! the full spectrum. Parseval over the `N` padded bins is
//! `Σ_k |X(k)|² = N·Σ_t x_t²`, so in line powers
//!
//! ```text
//! (N/n)·Σ_t x_t² = |X(0)|²/n + 2·Σ_{k=1}^{N/2−1} |X(k)|²/n + |X(N/2)|²/n
//!                = |X(0)|²/n + two_sided_energy()
//! ```
//!
//! with `X(0) = Σ_t x_t = 0` up to the rounding residue of mean
//! centering: sampling the same transform `N/n` times more densely counts
//! its energy `N/n` times over.
//! [`two_sided_energy`](Periodogram::two_sided_energy) folds the mirrors
//! back (doubling interior bins, counting Nyquist once);
//! `parseval_energy_under_padding` pins the identity. The per-line scaling
//! is deliberately uniform — the permutation threshold compares like
//! against like (shuffled maxima use the same grid and the same
//! convention), so folding a ×2 into interior lines would only rescale
//! both sides.

use crate::series::TimeSeries;
use crate::workspace::{with_thread_workspace, SpectralWorkspace};

/// A single spectral line of the periodogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralLine {
    /// DFT bin index on the padded grid (1-based within the half
    /// spectrum): the line sits at `bin / N` cycles per sample.
    pub bin: usize,
    /// Frequency in hertz.
    pub frequency: f64,
    /// Corresponding period in seconds (`1 / frequency`).
    pub period: f64,
    /// Power `|X(k)|² / n`, `n` the observed series length.
    pub power: f64,
}

/// The one-sided power spectrum of a [`TimeSeries`]: the `N/2` powers of
/// bins `1..=N/2`, from which a [`SpectralLine`] is built only when one is
/// asked for.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::TimeSeries;
/// use baywatch_timeseries::periodogram::Periodogram;
///
/// // 1 event every 8 s, observed for 505 s at 1 s bins (transformed at 512).
/// let timestamps: Vec<u64> = (0..64).map(|i| i * 8).collect();
/// let ts = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
/// let pg = Periodogram::compute(&ts);
/// // An impulse train puts equal power on its fundamental and on every
/// // harmonic: the strongest line is 8 s or an integer fraction of it.
/// let harmonic = 8.0 / pg.max_line().unwrap().period;
/// assert!(harmonic > 0.9 && (harmonic - harmonic.round()).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Periodogram {
    /// `|X(k)|²/n` at `powers[k − 1]`, `k = 1..=N/2`; empty below 4 bins.
    powers: Vec<f64>,
    dt: f64,
}

impl Periodogram {
    /// Computes the one-sided periodogram of the series (mean-centered
    /// before the FFT so the DC component is excluded), using the calling
    /// thread's shared [`SpectralWorkspace`].
    pub fn compute(series: &TimeSeries) -> Self {
        with_thread_workspace(|ws| Self::compute_in(ws, series))
    }

    /// Like [`Periodogram::compute`] with an explicit workspace, so callers
    /// that already hold one (the detector hot path) skip the thread-local
    /// lookup.
    /// The transform runs at `N = n.next_power_of_two()` in the
    /// workspace's recycled buffers, through its packed real-to-complex
    /// plan.
    pub fn compute_in(ws: &SpectralWorkspace, series: &TimeSeries) -> Self {
        let dt = series.scale() as f64;
        let n = series.len();
        if n < 4 {
            return Self {
                powers: Vec::new(),
                dt,
            };
        }
        let powers = ws.with_half_spectrum(series, |spectrum| {
            spectrum[1..]
                .iter()
                .map(|value| value.norm_sqr() / n as f64)
                .collect()
        });
        Self { powers, dt }
    }

    /// The line of bin `k` (`1..=N/2`).
    fn line(&self, k: usize) -> SpectralLine {
        let padded = 2 * self.powers.len();
        let frequency = k as f64 / (padded as f64 * self.dt);
        SpectralLine {
            bin: k,
            frequency,
            period: 1.0 / frequency,
            power: self.powers[k - 1],
        }
    }

    /// All spectral lines, ordered by increasing frequency, each built as
    /// it is reached.
    pub fn lines(&self) -> impl ExactSizeIterator<Item = SpectralLine> + '_ {
        (0..self.powers.len()).map(|i| self.line(i + 1))
    }

    /// Sample spacing in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The maximum power across all lines, or `0.0` for a degenerate
    /// spectrum. This is the `p_max` statistic of the permutation filter.
    pub fn max_power(&self) -> f64 {
        self.powers.iter().copied().fold(0.0, f64::max)
    }

    /// The spectral line with maximum power (the highest bin among equal
    /// powers), if the spectrum is non-empty.
    pub fn max_line(&self) -> Option<SpectralLine> {
        (1..=self.powers.len())
            .max_by(|&a, &b| self.powers[a - 1].total_cmp(&self.powers[b - 1]))
            .map(|k| self.line(k))
    }

    /// The line whose frequency is nearest `frequency` (the lowest bin
    /// among equally near ones), if the spectrum is non-empty.
    pub(crate) fn nearest_line(&self, frequency: f64) -> Option<SpectralLine> {
        self.lines().min_by(|a, b| {
            (a.frequency - frequency)
                .abs()
                .total_cmp(&(b.frequency - frequency).abs())
        })
    }

    /// Lines whose power strictly exceeds `threshold`, sorted by descending
    /// power — the candidate set handed to the pruning step.
    pub fn lines_above(&self, threshold: f64) -> Vec<SpectralLine> {
        let mut out: Vec<SpectralLine> = (1..=self.powers.len())
            .filter(|&k| self.powers[k - 1] > threshold)
            .map(|k| self.line(k))
            .collect();
        out.sort_by(|a, b| b.power.total_cmp(&a.power));
        out
    }

    /// Total spectral energy (sum of line powers, each counted once) —
    /// *roughly half* of [`Periodogram::two_sided_energy`]; see the module
    /// docs for the exact convention.
    pub fn total_energy(&self) -> f64 {
        self.powers.iter().sum()
    }

    /// The power of the Nyquist line `k = N/2`: the last line, since the
    /// padded length is even; `None` only for a degenerate (`n < 4`)
    /// spectrum.
    pub fn nyquist_power(&self) -> Option<f64> {
        self.powers.last().copied()
    }

    /// The energy of the *full* (two-sided) spectrum, excluding the DC
    /// bin: interior lines are folded back with their conjugate mirrors
    /// (×2) while the self-conjugate Nyquist line counts once. By Parseval
    /// this equals `(N/n)·Σ_t x_t²` of the mean-centered samples (up to
    /// FFT rounding and the centering residue in the excluded DC bin).
    pub fn two_sided_energy(&self) -> f64 {
        2.0 * self.total_energy() - self.nyquist_power().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Plan;
    use crate::series::corpus::centred;

    fn sine_series(n: usize, period_bins: f64, dt: u64) -> TimeSeries {
        let values: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period_bins).sin() + 1.0)
            .collect();
        TimeSeries::from_values(0, dt, values).unwrap()
    }

    #[test]
    fn pure_sine_peak_at_true_period() {
        let ts = sine_series(1024, 16.0, 1);
        let pg = Periodogram::compute(&ts);
        let peak = pg.max_line().unwrap();
        assert!((peak.period - 16.0).abs() < 0.3, "period = {}", peak.period);
    }

    #[test]
    fn period_respects_time_scale() {
        // Same shape, 60 s bins: period should be 16 * 60 = 960 s.
        let ts = sine_series(1024, 16.0, 60);
        let pg = Periodogram::compute(&ts);
        let peak = pg.max_line().unwrap();
        assert!(
            (peak.period - 960.0).abs() < 15.0,
            "period = {}",
            peak.period
        );
    }

    #[test]
    fn impulse_train_peak() {
        // Events every 10 s observed at 1 s bins for ~1000 s.
        let timestamps: Vec<u64> = (0..100).map(|i| i * 10).collect();
        let ts = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
        let pg = Periodogram::compute(&ts);
        let peak = pg.max_line().unwrap();
        // Impulse trains put energy at the fundamental and harmonics; the
        // fundamental (10 s) or a harmonic (5, 3.33, 2.5, 2) may carry the
        // max. All are divisors of 10.
        let ratio = 10.0 / peak.period;
        assert!(
            (ratio - ratio.round()).abs() < 0.05,
            "peak period {} is not a divisor of 10",
            peak.period
        );
    }

    #[test]
    fn short_series_yields_empty_spectrum() {
        let ts = TimeSeries::from_values(0, 1, vec![1.0, 0.0, 1.0]).unwrap();
        let pg = Periodogram::compute(&ts);
        assert_eq!(pg.lines().len(), 0);
        assert_eq!(pg.max_power(), 0.0);
        assert!(pg.max_line().is_none());
    }

    #[test]
    fn constant_series_has_no_power() {
        let ts = TimeSeries::from_values(0, 1, vec![3.0; 256]).unwrap();
        let pg = Periodogram::compute(&ts);
        assert!(pg.max_power() < 1e-18);
    }

    #[test]
    fn lines_above_sorted_descending() {
        let ts = sine_series(512, 8.0, 1);
        let pg = Periodogram::compute(&ts);
        let lines = pg.lines_above(0.0);
        for w in lines.windows(2) {
            assert!(w[0].power >= w[1].power);
        }
        assert_eq!(lines.len(), pg.lines().len());
    }

    #[test]
    fn lines_above_high_threshold_empty() {
        let ts = sine_series(512, 8.0, 1);
        let pg = Periodogram::compute(&ts);
        assert!(pg.lines_above(pg.max_power()).is_empty());
    }

    #[test]
    fn parseval_energy_under_padding() {
        // Exact accounting at padded and unpadded lengths: folding the
        // conjugate mirrors back (×2 interior, Nyquist once, DC ≈ 0 after
        // centering) recovers N/n times the centered sum of squares — the
        // same transform sampled N/n times more densely — to FFT rounding.
        for n in [1024usize, 1023, 100, 61, 5, 4] {
            let ts = sine_series(n, 32.0, 1);
            let pg = Periodogram::compute(&ts);
            let ss: f64 = centred(&ts).iter().map(|v| v * v).sum();
            let want = n.next_power_of_two() as f64 / n as f64 * ss;
            let got = pg.two_sided_energy();
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "n={n}: two-sided {got} vs (N/n)·Σx² {want}"
            );
            // The one-sided sum holds at least half the energy (interior
            // mirrors are the only discount) and never exceeds the total.
            let e = pg.total_energy();
            assert!(
                e >= 0.5 * want - 1e-9 && e <= want + 1e-9,
                "n={n}: e={e} want={want}"
            );
        }
    }

    #[test]
    fn power_of_two_lengths_are_the_unpadded_periodogram_bit_for_bit() {
        // At n = N nothing is padded: the lines must be exactly what the
        // even-length path computed before every transform ran at a power
        // of two — pack the centred pairs, one half-length FFT, Hermitian
        // unpack, |X(k)|²/n on the k/n grid — re-derived here from a fresh
        // plan.
        use crate::fft::{Complex, Direction};
        for n in [4usize, 8, 64, 256, 1024] {
            let values: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.61).sin() + 0.01 * (i % 7) as f64)
                .collect();
            let series = TimeSeries::from_values(0, 3, values).unwrap();
            let samples = centred(&series);
            let h = n / 2;
            let plan = Plan::new(h, Direction::Forward);
            let mut z = plan.load(samples.chunks_exact(2).map(|p| Complex::new(p[0], p[1])));
            plan.run(&mut z);
            let pg = Periodogram::compute(&series);
            assert_eq!(pg.lines().len(), h);
            for line in pg.lines() {
                let k = line.bin;
                let w = Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / n as f64);
                let (zk, zc) = (z[k % h], z[(h - k) % h].conj());
                let (s, wd) = (zk + zc, w * (zk - zc));
                let x = Complex::new(0.5 * (s.re + wd.im), 0.5 * (s.im - wd.re));
                let frequency = k as f64 / (n as f64 * 3.0);
                assert_eq!(line.power.to_bits(), (x.norm_sqr() / n as f64).to_bits());
                assert_eq!(line.frequency.to_bits(), frequency.to_bits());
                assert_eq!(line.period.to_bits(), (1.0 / frequency).to_bits());
            }
        }
    }

    #[test]
    fn nyquist_bin_exact_for_even_length() {
        // An alternating series concentrates all its energy in the
        // self-conjugate Nyquist bin; counting it twice (the pre-fix
        // mirror-folding mistake) would double the Parseval sum.
        let values: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 2.0 } else { 0.0 })
            .collect();
        let ts = TimeSeries::from_values(0, 1, values).unwrap();
        let pg = Periodogram::compute(&ts);
        let nyquist = pg.nyquist_power().expect("even n has a Nyquist line");
        assert_eq!(pg.lines().last().unwrap().bin, 32);
        // Centered series is ±1: Σx² = 64, all of it at Nyquist.
        assert!((nyquist - 64.0).abs() <= 1e-9 * 64.0, "nyquist = {nyquist}");
        assert!((pg.two_sided_energy() - 64.0).abs() <= 1e-9 * 64.0);
        assert_eq!(pg.max_line().unwrap().bin, 32);
    }

    #[test]
    fn every_spectrum_ends_at_a_nyquist_line() {
        // The padded length is even whatever the observed one is.
        for n in [4usize, 5, 63, 64, 65, 1000] {
            let pg = Periodogram::compute(&sine_series(n, 8.0, 1));
            let last = pg.lines().last().unwrap();
            assert_eq!(last.bin, n.next_power_of_two() / 2, "n = {n}");
            assert_eq!(pg.nyquist_power(), Some(last.power), "n = {n}");
            assert!((last.period - 2.0).abs() < 1e-12, "n = {n}");
        }
        // Degenerate spectra have no lines at all.
        let tiny = TimeSeries::from_values(0, 1, vec![1.0, 0.0]).unwrap();
        assert_eq!(Periodogram::compute(&tiny).nyquist_power(), None);
    }

    /// The one-sided powers `|X(k)|²/n`, `k = 1..=N/2`, of `series` by the
    /// dense oracle.
    fn oracle_powers(series: &TimeSeries) -> Vec<f64> {
        let n = series.len() as f64;
        Plan::dense_half_spectrum(&centred(series))[1..]
            .iter()
            .map(|x| x.norm_sqr() / n)
            .collect()
    }

    #[test]
    fn periodogram_matches_the_oracle() {
        // Random lengths 1..=300 — n < 4, odd, even, prime, powers of two
        // — and counts. The packed r2c transform evaluates the same padded
        // DFT as the oracle through a shorter butterfly recipe and an
        // `O(n)` unpack, so powers differ by reordered rounding only: a few
        // ULPs of the dominant magnitude (`O(ε·log n)`). The tolerance,
        // 1e-12 of the largest power, is four orders above that and eight
        // below signal scale. The grid is the same arithmetic: bitwise.
        use baywatch_stats::rng::forall;
        forall(32, 1, |rng| {
            let len: usize = rng.random_range(1..=300);
            let values = (0..len).map(|_| rng.random_range(0.0..50.0)).collect();
            let series = TimeSeries::from_values(0, 1, values).unwrap();
            let ws = SpectralWorkspace::new();
            let pg = Periodogram::compute_in(&ws, &series);
            if len < 4 {
                assert_eq!(pg.lines().len(), 0);
                assert_eq!(ws.plans_built() + ws.transforms_run(), 0);
                return;
            }
            let want = oracle_powers(&series);
            let padded = len.next_power_of_two();
            assert_eq!(pg.lines().len(), want.len());
            let scale = want.iter().copied().fold(1e-30, f64::max);
            for ((k, line), power) in (1..).zip(pg.lines()).zip(&want) {
                let frequency = k as f64 / padded as f64;
                assert_eq!(line.bin, k);
                assert_eq!(line.frequency.to_bits(), frequency.to_bits());
                assert_eq!(line.period.to_bits(), (1.0 / frequency).to_bits());
                assert!(
                    (line.power - power).abs() <= 1e-12 * scale,
                    "bin {k}: {} vs {power}",
                    line.power
                );
            }
            // Parseval over the N padded bins of the centred series.
            let ss: f64 = centred(&series).iter().map(|v| v * v).sum();
            let parseval = padded as f64 / len as f64 * ss;
            assert!((pg.two_sided_energy() - parseval).abs() <= 1e-9 * ss.max(1.0));
        });
    }

    #[test]
    fn constant_series_are_exactly_flat() {
        // `3 − 3` is 0 on every bin: no power at all, not rounding.
        for n in [4usize, 17, 64] {
            let ts = TimeSeries::from_values(0, 1, vec![3.0; n]).unwrap();
            assert_eq!(Periodogram::compute(&ts).max_power(), 0.0, "n={n}");
        }
    }

    #[test]
    fn frequency_period_inverse() {
        let ts = sine_series(256, 8.0, 1);
        let pg = Periodogram::compute(&ts);
        for l in pg.lines() {
            assert!((l.frequency * l.period - 1.0).abs() < 1e-12);
        }
    }
}
