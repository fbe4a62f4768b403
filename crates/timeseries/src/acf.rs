//! Autocorrelation-based verification — Step 3 of the detection algorithm.
//!
//! Following Vlachos et al. (SDM 2005), periodogram candidates are *verified*
//! on the autocorrelation function: a genuine period `P` produces a *hill*
//! (local maximum) in the ACF at lag `P`, whereas spectral leakage and
//! permutation survivors do not. The ACF also refines the coarse periodogram
//! period (periodogram resolution degrades as `N·dt/k` for small `k`) by
//! hill-climbing to the nearest local maximum, and its height provides the
//! periodicity-strength score used by the ranking filter.
//!
//! A pair is `c` events in `n` bins, and after the whitelists `c ≪ n` is
//! the common case, so the ACF of the centred count series is built from
//! the events. With `T` the event total, `μ = T/n`, `S(τ)` the sum of
//! `c_t·c_{t+τ}` over event pairs `τ` bins apart, `A(τ) = Σ_{t<n−τ} c_t`
//! and `B(τ) = Σ_{t≥τ} c_t`,
//!
//! ```text
//! R(τ) = S(τ) − μ·(A(τ) + B(τ)) + (n − τ)·μ²
//! ```
//!
//! for every lag `0..n`, in `O(n + c²)`. Scaled by `n²` every term is an
//! integer for integer counts, so the one division is the normalisation by
//! `R(0)`. A series whose `c(c+1)/2` event pairs exceed the `N·log2 N` of
//! the zero-padded transform (`N` the power of two at or above `2n`) takes
//! the Wiener–Khinchin round trip instead — zero-pad, forward transform,
//! squared magnitude, inverse transform — through the workspace's packed
//! real plans, whose input the workspace writes from the same events.

use crate::series::TimeSeries;
use crate::workspace::{padded_len, with_thread_workspace, SpectralWorkspace};

/// The (biased, normalized) autocorrelation function of a series.
///
/// `value(0) == 1.0` by construction; lags run up to `n − 1`.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::TimeSeries;
/// use baywatch_timeseries::acf::Autocorrelation;
///
/// let timestamps: Vec<u64> = (0..100).map(|i| i * 10).collect();
/// let series = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
/// let acf = Autocorrelation::compute(&series);
/// // Strong correlation at the true lag of 10 s.
/// assert!(acf.value_at_lag(10).unwrap() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Autocorrelation {
    values: Vec<f64>,
    dt: f64,
}

impl Autocorrelation {
    /// Computes the normalized autocorrelation of the mean-centered series,
    /// using the calling thread's shared [`SpectralWorkspace`].
    pub fn compute(series: &TimeSeries) -> Self {
        with_thread_workspace(|ws| Self::compute_in(ws, series))
    }

    /// Like [`Autocorrelation::compute`] with an explicit workspace. A
    /// series with few enough events is correlated from them (module
    /// docs); any other takes the workspace's padded round trip.
    pub fn compute_in(ws: &SpectralWorkspace, series: &TimeSeries) -> Self {
        let n = series.len();
        let events = series.events();
        let values = if from_events_is_cheaper(n, events.len()) {
            event_autocorrelation(n, events)
        } else {
            ws.with_autocorrelation(series, |correlation| {
                let mut values = correlation[..n].to_vec();
                normalize(&mut values);
                values
            })
        };
        Self {
            values,
            dt: series.scale() as f64,
        }
    }

    /// ACF values indexed by lag (in bins).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample spacing in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of lags available.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the ACF holds no lags.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The ACF value at an integer lag (bins), if within range.
    pub fn value_at_lag(&self, lag: usize) -> Option<f64> {
        self.values.get(lag).copied()
    }

    /// The ACF value at a lag expressed in *seconds*, using the nearest bin.
    pub fn value_at_seconds(&self, seconds: f64) -> Option<f64> {
        if seconds < 0.0 {
            return None;
        }
        let lag = (seconds / self.dt).round() as usize;
        self.value_at_lag(lag)
    }

    /// Verifies a candidate period (seconds) on the ACF *hill* around its
    /// lag.
    ///
    /// Real-world jitter smears the correlation mass of a genuine period
    /// over neighbouring lags (a σ-jittered train spreads over roughly
    /// ±2σ bins), so testing a single lag under-measures periodicity
    /// strength. Instead the verifier scores the *windowed mass*: the sum
    /// of ACF values inside a window proportional to the lag, minus the
    /// local background level estimated from a surrounding annulus. Pure
    /// noise nets out to ≈ 0; a genuine hill retains its mass regardless
    /// of how the jitter distributed it.
    ///
    /// Returns the refined period (the raw-ACF argmax inside the best
    /// window) and the net hill score, or `None` when no hill near the
    /// candidate clears [`HillParams::min_score`].
    pub fn verify_candidate(&self, period_seconds: f64, params: &HillParams) -> Option<HillPeak> {
        self.verify_candidate_spread(period_seconds, 0.0, params)
    }

    /// Like [`Autocorrelation::verify_candidate`] but with an explicit
    /// jitter estimate (seconds). The hill window is widened to cover the
    /// spread — the detector passes the standard deviation of the
    /// intervals matching the candidate, so heavily jittered beacons keep
    /// their correlation mass inside the window.
    pub fn verify_candidate_spread(
        &self,
        period_seconds: f64,
        spread_seconds: f64,
        params: &HillParams,
    ) -> Option<HillPeak> {
        let n = self.values.len();
        if n < 3 {
            return None;
        }
        let lag0 = (period_seconds / self.dt).round() as isize;
        if lag0 < 1 || lag0 as usize >= n {
            return None;
        }
        let lag0 = lag0 as usize;

        // Window half-width: relative floor, widened by the jitter spread
        // (√2·σ covers the difference of two independent jitters), capped
        // at a third of the lag so the window never swallows neighbouring
        // harmonics.
        let w_for = |lag: usize| -> usize {
            let rel = window_of(lag, params.rel_window);
            let spread_bins =
                (spread_seconds * std::f64::consts::SQRT_2 / self.dt).round() as usize;
            rel.max(spread_bins).min((lag / 3).max(1))
        };

        // Search radius grows with the lag: periodogram resolution error is
        // proportional to P²/(N·dt), i.e. relative error grows with P.
        let radius = params
            .search_radius_bins
            .max((lag0 as f64 * params.rel_window).round() as usize);
        let lo = lag0.saturating_sub(radius).max(1);
        let hi = (lag0 + radius).min(n - 1);

        let (best_lag, best_score) = (lo..=hi)
            .map(|l| (l, self.hill_score(l, w_for(l))))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;

        if best_score < params.min_score {
            return None;
        }

        // Refine: centroid of the positive ACF mass inside the winning
        // window. An argmax would chase noise spikes when jitter smears
        // the hill; the centroid recovers the hill's centre of mass.
        let w = w_for(best_lag);
        let wlo = best_lag.saturating_sub(w).max(1);
        let whi = (best_lag + w).min(n - 1);
        let mut mass = 0.0;
        let mut weighted = 0.0;
        for l in wlo..=whi {
            let v = self.values[l].max(0.0);
            mass += v;
            weighted += v * l as f64;
        }
        let refined_lag = if mass > 0.0 {
            weighted / mass
        } else {
            best_lag as f64
        };

        Some(HillPeak {
            period: refined_lag * self.dt,
            score: best_score.min(1.0),
            lag: refined_lag.round() as usize,
        })
    }

    /// Scans `[min_lag, max_lag]` for the strongest hill — the
    /// ACF-first candidate source that complements the periodogram
    /// (Vlachos et al. combine both precisely because a perfect impulse
    /// train spreads periodogram energy across every harmonic while its
    /// ACF peaks unambiguously at the fundamental).
    ///
    /// Returns `None` when the range is empty or no hill clears
    /// [`HillParams::min_score`]. Runs in `O(max_lag)` using prefix sums.
    pub fn strongest_hill(
        &self,
        min_lag: usize,
        max_lag: usize,
        params: &HillParams,
    ) -> Option<HillPeak> {
        let n = self.values.len();
        let lo = min_lag.max(1);
        let hi = max_lag.min(n.saturating_sub(1));
        if lo > hi {
            return None;
        }
        let w_of = |lag: usize| window_of(lag, params.rel_window).min((lag / 3).max(1));
        // Prefix sums for O(1) window/annulus sums, over the lags the scan
        // reads: windows widen with the lag, so the last annulus ends at
        // `hi + 4·w(hi)`.
        let end = (hi + 4 * w_of(hi)).min(n - 1);
        let mut prefix = Vec::with_capacity(end + 2);
        prefix.push(0.0);
        for &v in &self.values[..=end] {
            prefix.push(prefix[prefix.len() - 1] + v);
        }
        let range_sum = |a: usize, b: usize| -> f64 {
            // inclusive [a, b], clamped to [1, n-1]
            let a = a.max(1).min(n - 1);
            let b = b.max(1).min(n - 1);
            if a > b {
                0.0
            } else {
                prefix[b + 1] - prefix[a]
            }
        };

        let mut best: Option<(usize, f64)> = None;
        for lag in lo..=hi {
            let w = w_of(lag);
            let wlo = lag.saturating_sub(w).max(1);
            let whi = (lag + w).min(n - 1);
            let window_sum = range_sum(wlo, whi);
            let window_len = (whi - wlo + 1) as f64;
            let alo = lag.saturating_sub(4 * w).max(1);
            let ahi = (lag + 4 * w).min(n - 1);
            let ann_sum = range_sum(alo, ahi) - window_sum;
            let ann_len = ((ahi - alo + 1) as f64 - window_len).max(0.0);
            let bg = if ann_len > 0.0 {
                ann_sum / ann_len
            } else {
                0.0
            };
            // √len normalization keeps the comparison fair across window
            // sizes: raw mass grows with the window, so wide (large-lag)
            // windows would otherwise win on accumulated noise alone.
            let score = (window_sum - bg * window_len) / window_len.sqrt();
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((lag, score));
            }
        }
        let (lag, _) = best?;
        // Gate and refine with the precise (mass-scored) verifier.
        self.verify_candidate(lag as f64 * self.dt, params)
    }

    /// Net windowed hill mass at `lag`: window sum minus the background
    /// level of the surrounding annulus.
    fn hill_score(&self, lag: usize, w: usize) -> f64 {
        let n = self.values.len();
        let wlo = lag.saturating_sub(w).max(1);
        let whi = (lag + w).min(n - 1);
        if wlo > whi {
            return f64::NEG_INFINITY;
        }
        let window_sum: f64 = self.values[wlo..=whi].iter().sum();
        let window_len = (whi - wlo + 1) as f64;

        // Annulus: lags within 4w of the lag, excluding the window itself.
        let alo = lag.saturating_sub(4 * w).max(1);
        let ahi = (lag + 4 * w).min(n - 1);
        let mut bg_sum = 0.0;
        let mut bg_count = 0usize;
        for l in alo..=ahi {
            if l < wlo || l > whi {
                bg_sum += self.values[l];
                bg_count += 1;
            }
        }
        let bg_mean = if bg_count > 0 {
            bg_sum / bg_count as f64
        } else {
            0.0
        };
        window_sum - bg_mean * window_len
    }
}

/// Whether Step 3 correlates the `events` non-zero bins of an `n`-bin
/// series pairwise: its `events·(events + 1)/2` event pairs, lag 0
/// included, cost no more than the `N·log2 N` of the transform the
/// workspace would pad it to (`N` the power of two at or above `2n`).
fn from_events_is_cheaper(n: usize, events: usize) -> bool {
    let padded = padded_len(2 * n);
    events * (events + 1) / 2 <= padded * padded.ilog2() as usize
}

/// The raw autocorrelation `n²·R(τ)` of the centred series of `n` bins
/// whose non-zero bins are `events` (position, count), in position order,
/// for every lag `τ < n` — normalized by its lag-0 value.
fn event_autocorrelation(n: usize, events: &[(usize, f64)]) -> Vec<f64> {
    // S(τ) first, in place.
    let mut values = vec![0.0; n];
    for (i, &(p, c)) in events.iter().enumerate() {
        for &(q, d) in &events[i..] {
            values[q - p] += c * d;
        }
    }
    // below[k] = Σ of the first k events' counts; A(τ) and B(τ) are read
    // off it at the number of events before `n − τ` and before `τ`.
    let below: Vec<f64> = std::iter::once(0.0)
        .chain(events.iter().scan(0.0, |sum, &(_, c)| {
            *sum += c;
            Some(*sum)
        }))
        .collect();
    let total = below[events.len()];
    let bins = n as f64;
    let (nn, nt, tt) = (bins * bins, bins * total, total * total);
    let (mut head, mut tail) = (0, events.len());
    for (tau, r) in values.iter_mut().enumerate() {
        while head < events.len() && events[head].0 < tau {
            head += 1;
        }
        while tail > 0 && events[tail - 1].0 >= n - tau {
            tail -= 1;
        }
        let (a, b) = (below[tail], total - below[head]);
        *r = nn * *r - nt * (a + b) + (n - tau) as f64 * tt;
    }
    normalize(&mut values);
    values
}

/// Divides a raw autocorrelation by its lag-0 value. A constant series
/// (zero after centring, `R(0) ≤ 0`) gets 1 at lag 0 and 0 elsewhere.
fn normalize(values: &mut [f64]) {
    let Some(&r0) = values.first() else {
        return;
    };
    if r0 <= 0.0 {
        values.fill(0.0);
        values[0] = 1.0;
    } else {
        for v in values.iter_mut() {
            *v /= r0;
        }
    }
}

/// Window half-width for a lag: at least 1 bin, `rel_window` of the lag.
fn window_of(lag: usize, rel_window: f64) -> usize {
    ((lag as f64 * rel_window).round() as usize).max(1)
}

/// Parameters of the ACF hill verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HillParams {
    /// Minimum search radius (bins) around the candidate lag; the actual
    /// radius grows with the lag (relative periodogram resolution).
    pub search_radius_bins: usize,
    /// Window half-width as a fraction of the lag (jitter tolerance).
    pub rel_window: f64,
    /// Minimum net hill score for a credible periodicity.
    pub min_score: f64,
}

impl Default for HillParams {
    fn default() -> Self {
        Self {
            search_radius_bins: 5,
            rel_window: 0.06,
            min_score: 0.1,
        }
    }
}

/// A verified ACF hill: the refined period and its strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HillPeak {
    /// Refined period in seconds.
    pub period: f64,
    /// ACF value at the peak (periodicity-strength score in `[−1, 1]`).
    pub score: f64,
    /// Peak lag in bins.
    pub lag: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Plan;
    use crate::series::corpus::centred;
    use baywatch_stats::rng::Rng;

    fn beacon_series(n_events: u64, period: u64) -> TimeSeries {
        let timestamps: Vec<u64> = (0..n_events).map(|i| i * period).collect();
        TimeSeries::from_timestamps(&timestamps, 1).unwrap()
    }

    /// The normalized ACF of `series` by the dense oracle's round trip.
    fn dense_acf(series: &TimeSeries) -> Vec<f64> {
        let mut dense = Plan::dense_autocorrelation(&centred(series));
        dense.truncate(series.len());
        normalize(&mut dense);
        dense
    }

    /// Asserts `compute_in` — from the events or through the packed
    /// round trip — agrees with the dense oracle on every lag, to 1e-12 of
    /// `R(0)`, and returns whether the rule sent `series` to the event
    /// path.
    fn assert_events_match_dense(series: &TimeSeries) -> bool {
        let ws = SpectralWorkspace::new();
        let dense = dense_acf(series);
        let got = Autocorrelation::compute_in(&ws, series);
        let from_events = ws.transforms_run() == 0;
        assert_eq!(got.len(), series.len());
        for (lag, (g, d)) in got.values().iter().zip(&dense).enumerate() {
            assert!(
                (g - d).abs() <= 1e-12,
                "n = {} lag {lag}: {g} vs {d}",
                series.len()
            );
        }
        from_events
    }

    #[test]
    fn event_path_matches_the_dense_round_trip() {
        use baywatch_stats::rng::forall;
        let mut sides = [0usize; 2];
        forall(200, 0xAC5, |rng| {
            let n = rng.random_range(1..4000);
            // Density from one event in the span to every bin, so both
            // sides of the crossover come up.
            let density = 10f64.powf(rng.random_range(-3.5..0.0));
            let fractional = rng.random_range(0..4) == 0;
            let max_count = rng.random_range(1..5);
            let values = (0..n)
                .map(|_| {
                    if rng.random_range(0.0..1.0) >= density {
                        0.0
                    } else if fractional {
                        rng.random_range(0.05..3.0)
                    } else {
                        rng.random_range(1..=max_count) as f64
                    }
                })
                .collect();
            let series = TimeSeries::from_values(0, 1, values).unwrap();
            sides[usize::from(assert_events_match_dense(&series))] += 1;
        });
        assert!(sides.iter().all(|&s| s >= 20), "dense / events: {sides:?}");
    }

    #[test]
    fn acf_matches_the_oracle_on_dense_counts() {
        // Every bin a fractional count in [0, 50), lengths 1..=300: short
        // series from the events, long ones through the packed round trip.
        // Normalized ACF values are bounded by 1, so the tolerance is
        // absolute.
        use baywatch_stats::rng::forall;
        forall(32, 3, |rng| {
            let len = rng.random_range(1..=300);
            let values = (0..len).map(|_| rng.random_range(0.0..50.0)).collect();
            let series = TimeSeries::from_values(0, 1, values).unwrap();
            let got = Autocorrelation::compute(&series);
            let want = dense_acf(&series);
            assert_eq!(got.len(), want.len());
            for (lag, (x, y)) in got.values().iter().zip(&want).enumerate() {
                assert!((x - y).abs() <= 1e-9, "lag {lag}: {x} vs {y}");
            }
        });
    }

    #[test]
    fn event_path_matches_on_the_exactness_corpus_and_edge_shapes() {
        use crate::series::corpus::{exactness_corpus, sparse_series};
        let mut corpus = exactness_corpus();
        corpus.extend([
            sparse_series(37, 1, 3),    // counts > 1, dense side
            sparse_series(3000, 20, 3), // counts > 1, events side
            TimeSeries::from_timestamps(&[5, 5, 5, 9, 9, 40], 1).unwrap(), // duplicates
            TimeSeries::from_values(0, 1, vec![0.0, 0.0, 7.0, 0.0]).unwrap(), // one event
            TimeSeries::from_timestamps(&[42], 1).unwrap(), // one bin
            TimeSeries::from_values(0, 1, vec![2.0; 3]).unwrap(), // constant: R(0) = 0
            TimeSeries::from_values(0, 1, vec![2.5; 8]).unwrap(), // constant, fractional
            TimeSeries::from_values(0, 1, vec![0.5, 0.0, 1.25, 0.0, 0.0, 2.75]).unwrap(),
        ]);
        let on_events: Vec<bool> = corpus.iter().map(assert_events_match_dense).collect();
        assert!(on_events.contains(&true) && on_events.contains(&false));
        for constant in &corpus[corpus.len() - 3..corpus.len() - 1] {
            let acf = Autocorrelation::compute(constant);
            assert_eq!(acf.value_at_lag(0), Some(1.0));
            assert!(acf.values()[1..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn the_crossover_rule_sits_at_n_log_n_event_pairs() {
        // n = 36 000 pads to N = 2¹⁷: N·log2 N = 2 228 224 pairs, and
        // 2 110·2 111/2 = 2 227 105 fits where 2 111·2 112/2 does not.
        assert!(from_events_is_cheaper(36_000, 2_110));
        assert!(!from_events_is_cheaper(36_000, 2_111));
        // n = 1 000 pads to 2¹¹: 22 528 pairs, the line between 211 and
        // 212 events — and `compute_in` takes the path the rule names.
        assert!(from_events_is_cheaper(1_000, 211));
        assert!(!from_events_is_cheaper(1_000, 212));
        for (events, transforms) in [(211, 0), (212, 2)] {
            let mut values = vec![0.0; 1_000];
            for v in values.iter_mut().take(events) {
                *v = 1.0;
            }
            let series = TimeSeries::from_values(0, 1, values).unwrap();
            let ws = SpectralWorkspace::new();
            Autocorrelation::compute_in(&ws, &series);
            assert_eq!(ws.transforms_run(), transforms, "{events} events");
        }
    }

    #[test]
    fn explicit_workspace_matches_thread_local() {
        let series = beacon_series(60, 11);
        let ws = crate::workspace::SpectralWorkspace::new();
        let a = Autocorrelation::compute_in(&ws, &series);
        let b = Autocorrelation::compute(&series);
        assert_eq!(a, b);
    }

    #[test]
    fn lag_zero_is_one() {
        let acf = Autocorrelation::compute(&beacon_series(50, 7));
        assert!((acf.value_at_lag(0).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn periodic_signal_peaks_at_period() {
        let acf = Autocorrelation::compute(&beacon_series(100, 12));
        let at_period = acf.value_at_lag(12).unwrap();
        let off_period = acf.value_at_lag(6).unwrap();
        assert!(at_period > 0.5, "ACF(12) = {at_period}");
        assert!(at_period > off_period + 0.3);
    }

    #[test]
    fn value_at_seconds_uses_scale() {
        // Beacon every 120 s at 60 s bins -> lag 2 bins.
        let timestamps: Vec<u64> = (0..80).map(|i| i * 120).collect();
        let series = TimeSeries::from_timestamps(&timestamps, 60).unwrap();
        let acf = Autocorrelation::compute(&series);
        let v = acf.value_at_seconds(120.0).unwrap();
        assert_eq!(v, acf.value_at_lag(2).unwrap());
        assert!(acf.value_at_seconds(-5.0).is_none());
    }

    #[test]
    fn verify_accepts_true_period() {
        let acf = Autocorrelation::compute(&beacon_series(120, 20));
        let peak = acf
            .verify_candidate(20.0, &HillParams::default())
            .expect("true period must verify");
        assert!((peak.period - 20.0).abs() < 2.0);
        assert!(peak.score > 0.5);
    }

    #[test]
    fn verify_refines_slightly_wrong_candidate() {
        // Periodogram resolution gives 19.6 when the truth is 20.
        let acf = Autocorrelation::compute(&beacon_series(120, 20));
        let peak = acf.verify_candidate(19.0, &HillParams::default()).unwrap();
        assert_eq!(peak.lag, 20);
    }

    #[test]
    fn verify_rejects_period_of_random_noise() {
        let mut rng = Rng::seed_from_u64(99);
        let mut t = 0u64;
        let mut timestamps = Vec::new();
        for _ in 0..300 {
            t += rng.random_range(1..60);
            timestamps.push(t);
        }
        let series = TimeSeries::from_timestamps(&timestamps, 1).unwrap();
        let acf = Autocorrelation::compute(&series);
        // Random arrivals: no hill with a meaningful score at an arbitrary lag.
        let peak = acf.verify_candidate(500.0, &HillParams::default());
        assert!(
            peak.is_none() || peak.unwrap().score < 0.3,
            "noise should not verify strongly"
        );
    }

    #[test]
    fn verify_out_of_range_lag_is_none() {
        let acf = Autocorrelation::compute(&beacon_series(30, 5));
        assert!(acf.verify_candidate(1e9, &HillParams::default()).is_none());
        assert!(acf.verify_candidate(0.0, &HillParams::default()).is_none());
    }

    #[test]
    fn constant_series_degenerate_acf() {
        let series = TimeSeries::from_values(0, 1, vec![2.0; 64]).unwrap();
        let acf = Autocorrelation::compute(&series);
        assert_eq!(acf.value_at_lag(0), Some(1.0));
        assert_eq!(acf.value_at_lag(5), Some(0.0));
        assert!(acf.verify_candidate(5.0, &HillParams::default()).is_none());
    }

    #[test]
    fn a_zero_bin_series_has_an_empty_acf() {
        let acf =
            Autocorrelation::compute(&TimeSeries::from_timestamps_capped(&[7], 1, 0).unwrap());
        assert!(acf.is_empty());
        assert_eq!(acf.len(), 0);
    }

    #[test]
    fn acf_bounded_by_one() {
        let acf = Autocorrelation::compute(&beacon_series(200, 9));
        for (lag, &v) in acf.values().iter().enumerate() {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v), "ACF({lag}) = {v}");
        }
    }

    #[test]
    fn strongest_hill_finds_planted_period() {
        let acf = Autocorrelation::compute(&beacon_series(150, 45));
        let hill = acf
            .strongest_hill(2, 2000, &HillParams::default())
            .expect("planted hill");
        assert!((hill.period - 45.0).abs() < 5.0, "period = {}", hill.period);
        assert!(hill.score > 0.3);
    }

    #[test]
    fn strongest_hill_none_on_constant_series() {
        let series = TimeSeries::from_values(0, 1, vec![1.0; 256]).unwrap();
        let acf = Autocorrelation::compute(&series);
        assert!(acf.strongest_hill(2, 200, &HillParams::default()).is_none());
    }

    #[test]
    fn strongest_hill_empty_range_is_none() {
        let acf = Autocorrelation::compute(&beacon_series(50, 10));
        assert!(acf
            .strongest_hill(100, 50, &HillParams::default())
            .is_none());
        assert!(acf.strongest_hill(0, 0, &HillParams::default()).is_none());
    }

    #[test]
    fn min_score_floor_is_respected() {
        let acf = Autocorrelation::compute(&beacon_series(120, 20));
        let strict = HillParams {
            min_score: 10.0, // unreachable: windowed mass is bounded by ~1-2
            ..Default::default()
        };
        assert!(acf.verify_candidate(20.0, &strict).is_none());
    }
}
