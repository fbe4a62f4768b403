//! Periodogram (DFT power spectrum) analysis — Step 1 of the BAYWATCH
//! detection algorithm.
//!
//! The mean-centered count series is transformed with an FFT; the power at
//! frequency bin `k` is `|X(k)|² / N`. Only bins `1..=⌊N/2⌋` carry
//! independent information for a real signal; bin `k` maps to frequency
//! `k / (N·dt)` Hz and period `N·dt / k` seconds, where `dt` is the
//! series' bin width.
//!
//! # One-sided scaling convention
//!
//! Every line carries `power = |X(k)|² / N` — the *unfolded* per-bin
//! power, identical for interior bins and (even `N`) the Nyquist bin
//! `k = N/2`. Interior bins have a conjugate mirror at `N − k` that is
//! *not* folded into the line, so the one-sided sum
//! [`total_energy`](Periodogram::total_energy) is roughly *half* the
//! series' energy; the Nyquist bin and the (excluded, ≈0 after mean
//! centering) DC bin are self-conjugate and appear exactly once in the
//! full spectrum. The exact Parseval identity is therefore
//!
//! ```text
//! Σ_t x_t² = |X(0)|²/N + 2·Σ_{k=1}^{⌈N/2⌉−1} |X(k)|²/N + [N even]·|X(N/2)|²/N
//!          = |X(0)|²/N + two_sided_energy()
//! ```
//!
//! with `X(0) = Σ_t x_t = 0` up to the rounding residue of mean
//! centering. [`two_sided_energy`](Periodogram::two_sided_energy) folds
//! the mirrors back (doubling interior bins, counting Nyquist once);
//! `parseval_energy_matches_variance` pins the identity exactly. The
//! per-line scaling is deliberately uniform — the permutation threshold
//! compares like against like (shuffled maxima use the same convention),
//! so folding a ×2 into interior lines would only rescale both sides.

use crate::series::TimeSeries;
use crate::workspace::{with_thread_workspace, SpectralWorkspace};

/// A single spectral line of the periodogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralLine {
    /// DFT bin index (1-based within the half spectrum).
    pub bin: usize,
    /// Frequency in hertz.
    pub frequency: f64,
    /// Corresponding period in seconds (`1 / frequency`).
    pub period: f64,
    /// Power `|X(k)|² / N`.
    pub power: f64,
}

/// The one-sided power spectrum of a [`TimeSeries`].
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::TimeSeries;
/// use baywatch_timeseries::periodogram::Periodogram;
///
/// // 1 event every 8 s, observed for 512 s at 1 s bins.
/// let timestamps: Vec<u64> = (0..64).map(|i| i * 8).collect();
/// let ts = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
/// let pg = Periodogram::compute(&ts);
/// let peak = pg.max_line().unwrap();
/// assert!((peak.period - 8.0).abs() < 0.5, "period = {}", peak.period);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Periodogram {
    lines: Vec<SpectralLine>,
    n: usize,
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
    pub fn compute_in(ws: &SpectralWorkspace, series: &TimeSeries) -> Self {
        Self::from_samples_in(ws, &series.centered(), series.scale() as f64)
    }

    /// Computes the periodogram of arbitrary mean-centered samples with bin
    /// width `dt` seconds. Exposed for the permutation filter, which
    /// transforms shuffled copies of the same samples.
    pub fn from_samples(samples: &[f64], dt: f64) -> Self {
        with_thread_workspace(|ws| Self::from_samples_in(ws, samples, dt))
    }

    /// Like [`Periodogram::from_samples`] with an explicit workspace: the
    /// FFT plan comes from the workspace's cache and the transform runs in
    /// its recycled buffer. In the workspace's default
    /// [`RealHalf`](crate::workspace::SpectralMode::RealHalf) mode an
    /// even-length series runs through the packed real-to-complex plan —
    /// half the transform work; odd lengths and
    /// [`ComplexFull`](crate::workspace::SpectralMode::ComplexFull)
    /// workspaces run the legacy full complex transform, bit-for-bit.
    pub fn from_samples_in(ws: &SpectralWorkspace, samples: &[f64], dt: f64) -> Self {
        let n = samples.len();
        if n < 4 {
            return Self {
                lines: Vec::new(),
                n,
                dt,
            };
        }
        let half = n / 2;
        let lines = ws.with_half_spectrum(samples, |spectrum| {
            let mut lines = Vec::with_capacity(half);
            for (k, value) in spectrum.iter().enumerate().skip(1) {
                let power = value.norm_sqr() / n as f64;
                let frequency = k as f64 / (n as f64 * dt);
                lines.push(SpectralLine {
                    bin: k,
                    frequency,
                    period: 1.0 / frequency,
                    power,
                });
            }
            lines
        });
        Self { lines, n, dt }
    }

    /// All spectral lines, ordered by increasing frequency.
    pub fn lines(&self) -> &[SpectralLine] {
        &self.lines
    }

    /// Sample spacing in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The maximum power across all lines, or `0.0` for a degenerate
    /// spectrum. This is the `p_max` statistic of the permutation filter.
    pub fn max_power(&self) -> f64 {
        self.lines.iter().map(|l| l.power).fold(0.0, f64::max)
    }

    /// The spectral line with maximum power, if the spectrum is non-empty.
    pub fn max_line(&self) -> Option<SpectralLine> {
        self.lines
            .iter()
            .copied()
            .max_by(|a, b| a.power.total_cmp(&b.power))
    }

    /// Lines whose power strictly exceeds `threshold`, sorted by descending
    /// power — the candidate set handed to the pruning step.
    pub fn lines_above(&self, threshold: f64) -> Vec<SpectralLine> {
        let mut out: Vec<SpectralLine> = self
            .lines
            .iter()
            .copied()
            .filter(|l| l.power > threshold)
            .collect();
        out.sort_by(|a, b| b.power.total_cmp(&a.power));
        out
    }

    /// Total spectral energy (sum of line powers, each counted once); by
    /// Parseval's relation this tracks *roughly half* the variance of the
    /// centered series — see the module docs for the exact convention and
    /// [`Periodogram::two_sided_energy`] for the exact identity.
    pub fn total_energy(&self) -> f64 {
        self.lines.iter().map(|l| l.power).sum()
    }

    /// The power of the Nyquist line `k = n/2`: `Some` only for even `n`
    /// (odd-length spectra have no self-conjugate top bin), `None` for odd
    /// `n` or a degenerate (`n < 4`) spectrum.
    pub fn nyquist_power(&self) -> Option<f64> {
        if self.n.is_multiple_of(2) {
            self.lines.last().map(|l| l.power)
        } else {
            None
        }
    }

    /// The energy of the *full* (two-sided) spectrum, excluding the DC
    /// bin: interior lines are folded back with their conjugate mirrors
    /// (×2) while the self-conjugate Nyquist line (even `n` only) counts
    /// once. By Parseval this equals `Σ_t x_t²` of the mean-centered
    /// samples exactly (up to FFT rounding and the centering residue in
    /// the excluded DC bin).
    pub fn two_sided_energy(&self) -> f64 {
        let total: f64 = self.lines.iter().map(|l| l.power).sum();
        match self.nyquist_power() {
            Some(nyquist) => 2.0 * total - nyquist,
            None => 2.0 * total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;

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
        assert!(pg.lines().is_empty());
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
    fn parseval_energy_matches_variance() {
        // Exact accounting across even and odd lengths: folding the
        // conjugate mirrors back (×2 interior, Nyquist once, DC ≈ 0 after
        // centering) recovers the centered sum of squares to FFT rounding.
        // The old tolerance-based window (0.3·var .. var) hid the even-n
        // Nyquist/DC bookkeeping entirely.
        for n in [1024usize, 1023, 100, 61] {
            let ts = sine_series(n, 32.0, 1);
            let pg = Periodogram::compute(&ts);
            let ss: f64 = ts.centered().iter().map(|v| v * v).sum();
            let got = pg.two_sided_energy();
            assert!(
                (got - ss).abs() <= 1e-9 * ss.max(1.0),
                "n={n}: two-sided {got} vs Σx² {ss}"
            );
            // The one-sided sum holds at least half the energy (interior
            // mirrors are the only discount) and never exceeds the total.
            let e = pg.total_energy();
            assert!(
                e >= 0.5 * ss - 1e-9 && e <= ss + 1e-9,
                "n={n}: e={e} ss={ss}"
            );
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
    fn odd_length_has_no_nyquist_line() {
        let ts = sine_series(63, 8.0, 1);
        let pg = Periodogram::compute(&ts);
        assert_eq!(pg.nyquist_power(), None);
        assert_eq!(pg.lines().last().unwrap().bin, 31);
        // Degenerate spectra have no Nyquist line either.
        let tiny = TimeSeries::from_values(0, 1, vec![1.0, 0.0]).unwrap();
        assert_eq!(Periodogram::compute(&tiny).nyquist_power(), None);
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
