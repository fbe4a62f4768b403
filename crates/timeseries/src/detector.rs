//! The end-to-end periodicity detector: Step 1 (periodogram + permutation
//! threshold) → Step 2 (pruning) → Step 3 (ACF verification), whose output
//! is the pair's ⟨AS, CP⟩.
//!
//! This is the "time series analysis" phase of the BAYWATCH architecture
//! (Fig. 3 of the paper), applied to one communication pair at a time.

use std::sync::Arc;

use baywatch_obs::{Buckets, Clock, Counter, Histogram, MetricsRegistry};

use crate::acf::{Autocorrelation, HillParams};
use crate::budget::{BudgetSpec, ExecBudget};
use crate::periodogram::Periodogram;
use crate::permutation::{permutation_filter, PermutationConfig};
use crate::prune::{min_plausible_period, prune_candidates, PruneConfig, PruneDecision};
use crate::series::{intervals_of, TimeSeries};
use crate::workspace::{with_thread_workspace, SpectralWorkspace};
use crate::TimeSeriesError;

/// Configuration of the full detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Bin width (seconds) used when constructing the count series
    /// (1 s at the finest granularity, per §VII-A).
    pub time_scale: u64,
    /// Minimum number of events required to attempt detection.
    pub min_events: usize,
    /// Upper bound on series length in bins (cost guard for very long
    /// spans; series are cut while binning, not rejected).
    pub max_bins: usize,
    /// Permutation-filter settings (Step 1).
    pub permutation: PermutationConfig,
    /// Pruning settings (Step 2).
    pub prune: PruneConfig,
    /// ACF hill-verification settings (Step 3).
    pub hill: HillParams,
    /// Cap on the number of candidates carried from Step 1 into pruning
    /// (strongest-power first).
    pub max_candidates: usize,
    /// Per-pair work budget (`max_ops` units). The
    /// default is unlimited; when armed, a pair that exceeds it aborts
    /// with [`TimeSeriesError::BudgetExhausted`] at the next kernel
    /// checkpoint instead of stalling a worker.
    pub budget: BudgetSpec,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            time_scale: 1,
            min_events: 8,
            max_bins: 1 << 20,
            permutation: PermutationConfig::default(),
            prune: PruneConfig::default(),
            hill: HillParams::default(),
            max_candidates: 16,
            budget: BudgetSpec::UNLIMITED,
        }
    }
}

/// A verified candidate period — the `CandidatePeriod` record of the
/// paper's beaconing-detection MapReduce job (§VII-D).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePeriod {
    /// Frequency in hertz.
    pub frequency: f64,
    /// Period in seconds (ACF-refined).
    pub period: f64,
    /// Periodogram power of the originating spectral line.
    pub power: f64,
    /// ACF score at the verified hill (periodicity strength, `[−1, 1]`).
    pub acf_score: f64,
    /// The t-test p-value from pruning, when the test ran.
    pub p_value: Option<f64>,
}

/// The outcome of running the detector on one communication pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionReport {
    /// Verified candidate periods, strongest ACF score first.
    pub candidates: Vec<CandidatePeriod>,
    /// The permutation power threshold `p_T` used in Step 1. On a pair
    /// rejected at Step 1 (`raw_candidates == 0`) the shuffle rounds stop
    /// as soon as the verdict is certain, and this is a lower bound on
    /// `p_T` that no spectral line exceeds — see
    /// [`PermutationThreshold::threshold`](crate::permutation::PermutationThreshold::threshold).
    pub power_threshold: f64,
    /// Number of spectral lines that exceeded `p_T` before pruning. Zero
    /// means the pair left Step 1 with no candidate: no ACF or pruning ran
    /// and `prune_decisions` is empty.
    pub raw_candidates: usize,
    /// Pruning decisions for each raw candidate (diagnostics / Fig. 6).
    pub prune_decisions: Vec<PruneDecision>,
    /// Inter-arrival intervals of the pair (seconds).
    pub intervals: Vec<f64>,
}

impl DetectionReport {
    /// Whether at least one verified periodic component was found.
    pub fn is_periodic(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// The strongest verified candidate (highest ACF score), if any.
    pub fn best(&self) -> Option<&CandidatePeriod> {
        self.candidates.first()
    }

    /// The dominant periods (seconds) — verified candidates, deduplicated
    /// within `tolerance` relative difference.
    pub fn dominant_periods(&self, tolerance: f64) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for c in &self.candidates {
            if !out
                .iter()
                .any(|&p| (p - c.period).abs() <= tolerance * p.max(c.period))
            {
                out.push(c.period);
            }
        }
        out
    }
}

/// The BAYWATCH periodicity detector.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::detector::{DetectorConfig, PeriodicityDetector};
///
/// let detector = PeriodicityDetector::new(DetectorConfig::default());
///
/// // 90 beacons, one every 300 s (5 min), with no jitter.
/// let ts: Vec<u64> = (0..90).map(|i| 1_000 + i * 300).collect();
/// let report = detector.detect(&ts).unwrap();
/// assert!(report.is_periodic());
///
/// // Irregular human-like traffic is not flagged.
/// let human: Vec<u64> = vec![0, 13, 15, 470, 471, 509, 3_600, 3_754, 9_000, 9_100, 15_000];
/// let report = detector.detect(&human).unwrap();
/// assert!(!report.is_periodic());
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicityDetector {
    config: DetectorConfig,
    obs: Option<DetectorObs>,
}

impl PeriodicityDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config, obs: None }
    }

    /// Attaches observability handles; every detection run then records
    /// per-pair counters and stage timings. See [`DetectorObs`].
    #[must_use]
    pub fn with_obs(mut self, obs: DetectorObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs the full Step 1 → Step 2 → Step 3 pipeline on sorted event
    /// timestamps (seconds).
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::TooFewEvents`] if fewer than
    ///   [`DetectorConfig::min_events`] timestamps are supplied,
    /// * [`TimeSeriesError::UnsortedTimestamps`] for unsorted input,
    /// * [`TimeSeriesError::ZeroSpan`] when all events share one timestamp,
    /// * configuration errors from the sub-steps.
    pub fn detect(&self, timestamps: &[u64]) -> Result<DetectionReport, TimeSeriesError> {
        with_thread_workspace(|ws| self.detect_in(ws, timestamps))
    }

    /// Like [`PeriodicityDetector::detect`] with an explicit
    /// [`SpectralWorkspace`], so batch callers (the beaconing-detection
    /// MapReduce job) recycle one set of transform buffers across every
    /// pair a worker thread processes.
    ///
    /// # Errors
    ///
    /// Same as [`PeriodicityDetector::detect`].
    pub fn detect_in(
        &self,
        ws: &SpectralWorkspace,
        timestamps: &[u64],
    ) -> Result<DetectionReport, TimeSeriesError> {
        self.detect_budgeted_in(ws, timestamps, &self.config.budget.start())
    }

    /// Like [`PeriodicityDetector::detect`] under an explicit, already
    /// armed [`ExecBudget`], whose [`ops_used`](ExecBudget::ops_used) the
    /// caller can read afterwards. [`DetectorConfig::budget`] is ignored in
    /// favour of the counter. Work-unit charges approximate the FFT cost in
    /// observed bins `n` (not padded ones): one unit per series bin for the
    /// periodogram and the ACF, `n` per permutation round, one per ACF lag
    /// scanned.
    /// With an unlimited budget no checkpoint ever fires and the output —
    /// including every RNG stream — is byte-identical to the unbudgeted
    /// path.
    ///
    /// # Errors
    ///
    /// Same as [`PeriodicityDetector::detect`], plus
    /// [`TimeSeriesError::BudgetExhausted`] when the budget runs out.
    pub fn detect_budgeted(
        &self,
        timestamps: &[u64],
        budget: &ExecBudget,
    ) -> Result<DetectionReport, TimeSeriesError> {
        with_thread_workspace(|ws| self.detect_budgeted_in(ws, timestamps, budget))
    }

    /// Validates and bins the timestamps, runs the core, and accounts the
    /// outcome here — outside the core — so `?`-propagated budget
    /// exhaustion is still counted. All three FFT consumers — the
    /// periodogram, the m permutation rounds and the ACF — share the
    /// workspace's buffers and the process's plan tables.
    fn detect_budgeted_in(
        &self,
        ws: &SpectralWorkspace,
        timestamps: &[u64],
        budget: &ExecBudget,
    ) -> Result<DetectionReport, TimeSeriesError> {
        if timestamps.len() < self.config.min_events {
            return Err(TimeSeriesError::TooFewEvents {
                required: self.config.min_events,
                actual: timestamps.len(),
            });
        }
        let intervals = intervals_of(timestamps)?;
        if timestamps.last() == timestamps.first() {
            return Err(TimeSeriesError::ZeroSpan);
        }

        let series = TimeSeries::from_timestamps_capped(
            timestamps,
            self.config.time_scale,
            self.config.max_bins,
        )?;
        let result = self.detect_series_core(ws, &series, intervals, budget);
        if let Some(obs) = &self.obs {
            obs.pairs_analyzed.inc();
            obs.series_bins.observe(series.len() as u64);
            obs.series_events.observe(series.events().len() as u64);
            match &result {
                Ok(report) => {
                    if report.raw_candidates == 0 {
                        obs.permutation_rejected.inc();
                    }
                    obs.raw_candidates.add(report.raw_candidates as u64);
                    obs.prune_survivors.add(
                        report
                            .prune_decisions
                            .iter()
                            .filter(|d| d.survived())
                            .count() as u64,
                    );
                    obs.acf_verified.add(report.candidates.len() as u64);
                    if report.is_periodic() {
                        obs.pairs_periodic.inc();
                    }
                }
                Err(TimeSeriesError::BudgetExhausted) => obs.budget_exhausted.inc(),
                Err(_) => {}
            }
        }
        result
    }

    /// The Step 1 → 2 → 3 core on a binned series with its interval list.
    fn detect_series_core(
        &self,
        ws: &SpectralWorkspace,
        series: &TimeSeries,
        intervals: Vec<f64>,
        budget: &ExecBudget,
    ) -> Result<DetectionReport, TimeSeriesError> {
        // Degenerate-input guard: drop non-finite intervals (NaN/∞ from
        // upstream arithmetic on corrupted timestamps) so every comparator
        // and statistic below operates on finite values. A pair reduced to
        // garbage yields "non-periodic", never a panic.
        let intervals: Vec<f64> = intervals.into_iter().filter(|i| i.is_finite()).collect();

        // ---- Step 1: periodogram + permutation threshold. ----
        budget.checkpoint(series.len() as u64)?;
        let t0 = self.obs.as_ref().map(|o| o.clock.now_nanos());
        let periodogram = Periodogram::compute_in(ws, series);
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.periodogram_nanos
                .observe(obs.clock.now_nanos().saturating_sub(t0));
        }
        let t0 = self.obs.as_ref().map(|o| o.clock.now_nanos());
        let filtered = permutation_filter(
            ws,
            series,
            &self.config.permutation,
            periodogram.max_power(),
            budget,
        );
        // Observed before `?`: a budget that runs out inside the rounds
        // still spent that time in this stage, not in "other".
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.permutation_nanos
                .observe(obs.clock.now_nanos().saturating_sub(t0));
        }
        let threshold = filtered?;
        if let Some(obs) = &self.obs {
            obs.permutation_rounds
                .add(threshold.shuffled_maxima.len() as u64);
        }
        let mut raw = periodogram.lines_above(threshold.threshold);
        let overflow = if raw.len() > self.config.max_candidates {
            raw.split_off(self.config.max_candidates)
        } else {
            Vec::new()
        };
        let min_interval = intervals
            .iter()
            .copied()
            .filter(|&i| i > 0.0)
            .fold(f64::INFINITY, f64::min);

        // ---- Step 1a: harmonic-crowding guard. ----
        // A clean impulse train whose period does not divide the transform
        // length (the generic case on the power-of-two grid) leaks
        // comparable power into dozens of harmonic side-bins, and the
        // strongest-k cut can then consist *entirely* of higher-harmonic
        // lines. Each of those is later — correctly — pruned as below the
        // minimum observed interval, leaving the pair undetected even
        // though its fundamental cleared the permutation threshold. When
        // the cut dropped lines and kept no physically plausible period
        // (Step 2's own floor, `min_plausible_period`), retain the
        // strongest dropped line that is plausible; Step 2 pruning and
        // Step 3 ACF verification still gate it.
        if !overflow.is_empty() && min_interval.is_finite() {
            let floor = min_plausible_period(min_interval, &self.config.prune);
            if !raw.iter().any(|l| l.period >= floor) {
                if let Some(&fundamental) = overflow.iter().find(|l| l.period >= floor) {
                    raw.push(fundamental);
                }
            }
        }

        // No candidate survived the permutation filter: Steps 1b and 1c
        // only refine a non-empty set, so the pair is non-periodic and
        // nothing downstream (ACF, pruning) could change that.
        if raw.is_empty() {
            return Ok(DetectionReport {
                power_threshold: threshold.threshold,
                intervals,
                ..Default::default()
            });
        }

        let span = series.span_seconds() as f64;
        budget.checkpoint(series.len() as u64)?;
        let t0 = self.obs.as_ref().map(|o| o.clock.now_nanos());
        let acf = Autocorrelation::compute_in(ws, series);
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.acf_nanos
                .observe(obs.clock.now_nanos().saturating_sub(t0));
        }

        // ---- Step 1b: ACF-first candidate (Vlachos complementarity). ----
        // A near-perfect impulse train spreads periodogram energy over all
        // harmonics, so the fundamental can miss the top-k cut; its ACF
        // peaks unambiguously at the fundamental. Only consulted when the
        // permutation filter already confirmed non-random structure, so
        // false-positive control is unchanged.
        let scale = series.scale() as f64;
        let min_lag = if min_interval.is_finite() {
            ((min_interval / scale).floor() as usize).max(2)
        } else {
            2
        };
        let max_lag = (series.len() as f64 / self.config.prune.min_cycles) as usize;
        if let Some(hill) =
            acf.strongest_hill_budgeted(min_lag, max_lag, &self.config.hill, budget)?
        {
            let already = raw
                .iter()
                .any(|l| (l.period - hill.period).abs() <= scale.max(0.02 * hill.period));
            if !already {
                let frequency = 1.0 / hill.period;
                // Attribute the periodogram power of the nearest bin.
                let power = periodogram.nearest_line(frequency).map_or(0.0, |l| l.power);
                raw.push(crate::periodogram::SpectralLine {
                    bin: 0,
                    frequency,
                    period: hill.period,
                    power,
                });
            }
        }

        // ---- Step 1c: regularity fallback candidate. ----
        // Renewal traffic whose intervals cluster tightly but multimodally
        // (e.g. a beacon observed through a DNS cache: intervals alternate
        // between 5·P and 6·P) spreads its spectral and ACF mass across
        // nearby modes. When spectral structure exists and the interval
        // list is tight (CV < 0.35, i.e. genuinely quasi-periodic), the
        // interval median is a sound period hypothesis;
        // pruning and (spread-widened) ACF verification still gate it.
        if intervals.len() >= 4 {
            let mut sorted = intervals.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let mean = intervals.iter().sum::<f64>() / intervals.len() as f64;
            let cv = if mean > 0.0 {
                (intervals
                    .iter()
                    .map(|i| (i - mean) * (i - mean))
                    .sum::<f64>()
                    / intervals.len() as f64)
                    .sqrt()
                    / mean
            } else {
                f64::INFINITY
            };
            if median > 0.0 && cv < 0.35 {
                let scale = series.scale() as f64;
                let already = raw
                    .iter()
                    .any(|l| (l.period - median).abs() <= scale.max(0.05 * median));
                if !already {
                    raw.push(crate::periodogram::SpectralLine {
                        bin: 0,
                        frequency: 1.0 / median,
                        period: median,
                        power: periodogram.max_power(),
                    });
                }
            }
        }

        // ---- Step 2: pruning. ----
        let prune_decisions = prune_candidates(&raw, &intervals, span, &self.config.prune)?;

        // ---- Step 3: ACF verification. ----
        let mut candidates: Vec<CandidatePeriod> = Vec::new();
        for d in prune_decisions.iter().filter(|d| d.survived()) {
            // Estimate the jitter spread from the intervals matching this
            // candidate so the ACF hill window covers the smeared mass.
            let matched: Vec<f64> = intervals
                .iter()
                .copied()
                .filter(|&i| {
                    (i - d.line.period).abs() <= self.config.prune.match_band * d.line.period
                })
                .collect();
            let spread = if matched.len() >= 2 {
                let mean = matched.iter().sum::<f64>() / matched.len() as f64;
                (matched.iter().map(|i| (i - mean) * (i - mean)).sum::<f64>()
                    / (matched.len() - 1) as f64)
                    .sqrt()
            } else {
                0.0
            };
            if let Some(peak) =
                acf.verify_candidate_spread(d.line.period, spread, &self.config.hill)
            {
                // Deduplicate hills: two spectral lines may climb to the
                // same ACF peak.
                if candidates
                    .iter()
                    .any(|c| (c.period - peak.period).abs() < series.scale() as f64 * 0.5)
                {
                    continue;
                }
                candidates.push(CandidatePeriod {
                    frequency: 1.0 / peak.period,
                    period: peak.period,
                    power: d.line.power,
                    acf_score: peak.score,
                    p_value: d.p_value,
                });
            }
        }
        candidates.sort_by(|a, b| b.acf_score.total_cmp(&a.acf_score));

        Ok(DetectionReport {
            candidates,
            power_threshold: threshold.threshold,
            raw_candidates: raw.len(),
            prune_decisions,
            intervals,
        })
    }
}

impl Default for PeriodicityDetector {
    fn default() -> Self {
        Self::new(DetectorConfig::default())
    }
}

/// Observability handles for the detector, registered once against a
/// [`MetricsRegistry`] and shared (cheap atomic clones) by every worker
/// thread running the detector.
///
/// Two tiers, mirroring the registry's split:
///
/// * **Deterministic** counters and value histograms (`detector.*` names)
///   are pure functions of the analyzed data — order-independent sums that
///   stay byte-identical across runs and thread schedules.
/// * **Timing** histograms (`detector.*.nanos`) read the injected
///   [`Clock`] and live in the registry's quarantined timings section,
///   never in golden output.
#[derive(Debug, Clone)]
pub struct DetectorObs {
    clock: Arc<dyn Clock>,
    pairs_analyzed: Counter,
    pairs_periodic: Counter,
    budget_exhausted: Counter,
    permutation_rejected: Counter,
    permutation_rounds: Counter,
    raw_candidates: Counter,
    prune_survivors: Counter,
    acf_verified: Counter,
    series_events: Histogram,
    series_bins: Histogram,
    periodogram_nanos: Histogram,
    permutation_nanos: Histogram,
    acf_nanos: Histogram,
}

impl DetectorObs {
    /// Registers the detector's metric families in `registry` and returns
    /// the handle bundle. Stage timings are read from `clock`.
    #[expect(
        clippy::expect_used,
        reason = "bucket bounds are compile-time literal constants; failure is a programming error, not an input condition"
    )]
    pub fn new(registry: &MetricsRegistry, clock: Arc<dyn Clock>) -> Self {
        let bins = Buckets::exponential(64, 4, 10).expect("static bucket layout is valid");
        let events = Buckets::exponential(8, 2, 14).expect("static bucket layout is valid");
        let nanos = Buckets::exponential(1_000, 4, 12).expect("static bucket layout is valid");
        Self {
            clock,
            pairs_analyzed: registry.counter("detector.pairs_analyzed"),
            pairs_periodic: registry.counter("detector.pairs_periodic"),
            budget_exhausted: registry.counter("detector.budget_exhausted"),
            permutation_rejected: registry.counter("detector.permutation.rejected"),
            permutation_rounds: registry.counter("detector.permutation.rounds"),
            raw_candidates: registry.counter("detector.periodogram.raw_candidates"),
            prune_survivors: registry.counter("detector.prune.survivors"),
            acf_verified: registry.counter("detector.acf.verified"),
            series_events: registry.histogram("detector.series_events", &events),
            series_bins: registry.histogram("detector.series_bins", &bins),
            periodogram_nanos: registry.timing("detector.periodogram.nanos", &nanos),
            permutation_nanos: registry.timing("detector.permutation.nanos", &nanos),
            acf_nanos: registry.timing("detector.acf.nanos", &nanos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baywatch_stats::rng::Rng;

    fn detector() -> PeriodicityDetector {
        PeriodicityDetector::default()
    }

    fn jittered_beacon(n: u64, period: f64, sigma: f64, seed: u64) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n as usize);
        let mut t = 10_000.0f64;
        for _ in 0..n {
            out.push(t.round() as u64);
            let jitter: f64 = if sigma > 0.0 {
                // Box-Muller standard normal scaled by sigma.
                let u1: f64 = rng.random_range(f64::EPSILON..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            } else {
                0.0
            };
            t += (period + jitter).max(1.0);
        }
        out
    }

    /// 250 arrivals with uniform 1–239 s gaps: no periodic structure.
    fn memoryless(seed: u64) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = 0u64;
        (0..250)
            .map(|_| {
                t += rng.random_range(1..240);
                t
            })
            .collect()
    }

    #[test]
    fn clean_beacon_detected() {
        let ts = jittered_beacon(120, 60.0, 0.0, 1);
        let r = detector().detect(&ts).unwrap();
        assert!(r.is_periodic());
        let best = r.best().unwrap();
        assert!((best.period - 60.0).abs() < 2.0, "period = {}", best.period);
        assert!(best.acf_score > 0.5);
    }

    #[test]
    fn jittered_beacon_detected() {
        // σ = 3 s on a 60 s period — well inside the paper's robustness zone.
        let ts = jittered_beacon(150, 60.0, 3.0, 2);
        let r = detector().detect(&ts).unwrap();
        assert!(r.is_periodic());
        assert!((r.best().unwrap().period - 60.0).abs() < 5.0);
    }

    #[test]
    fn beacon_with_missing_events_detected() {
        // Drop 25% of beacons.
        let mut rng = Rng::seed_from_u64(3);
        let ts: Vec<u64> = jittered_beacon(200, 45.0, 1.0, 3)
            .into_iter()
            .filter(|_| rng.random_range(0.0..1.0) > 0.25)
            .collect();
        let r = detector().detect(&ts).unwrap();
        assert!(r.is_periodic());
        // The fundamental (45 s) should still be recoverable.
        let found = r.candidates.iter().any(|c| (c.period - 45.0).abs() < 5.0);
        assert!(found, "candidates: {:?}", r.candidates);
    }

    #[test]
    fn random_traffic_not_periodic() {
        let r = detector().detect(&memoryless(4)).unwrap();
        assert!(
            !r.is_periodic() || r.best().unwrap().acf_score < 0.25,
            "random traffic verified with {:?}",
            r.best()
        );
    }

    #[test]
    fn too_few_events_rejected() {
        let err = detector().detect(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, TimeSeriesError::TooFewEvents { .. }));
    }

    #[test]
    fn zero_span_rejected() {
        let err = detector().detect(&[5; 20]).unwrap_err();
        assert!(matches!(err, TimeSeriesError::ZeroSpan));
    }

    #[test]
    fn unsorted_rejected() {
        let err = detector()
            .detect(&[1, 5, 3, 9, 11, 20, 22, 30])
            .unwrap_err();
        assert!(matches!(err, TimeSeriesError::UnsortedTimestamps { .. }));
    }

    #[test]
    fn dominant_periods_deduplicate() {
        let report = DetectionReport {
            candidates: vec![
                CandidatePeriod {
                    frequency: 1.0 / 60.0,
                    period: 60.0,
                    power: 5.0,
                    acf_score: 0.9,
                    p_value: None,
                },
                CandidatePeriod {
                    frequency: 1.0 / 60.5,
                    period: 60.5,
                    power: 4.0,
                    acf_score: 0.8,
                    p_value: None,
                },
                CandidatePeriod {
                    frequency: 1.0 / 300.0,
                    period: 300.0,
                    power: 3.0,
                    acf_score: 0.7,
                    p_value: None,
                },
            ],
            power_threshold: 0.0,
            raw_candidates: 3,
            prune_decisions: vec![],
            intervals: vec![],
        };
        let periods = report.dominant_periods(0.05);
        assert_eq!(periods, vec![60.0, 300.0]);
    }

    #[test]
    fn coarse_time_scale_detects_slow_beacons() {
        // A 1-hour beacon over 10 days, analyzed at 60 s bins: the series is
        // 14,400 bins instead of 864,000.
        let ts: Vec<u64> = (0..240).map(|i| i * 3600).collect();
        let cfg = DetectorConfig {
            time_scale: 60,
            ..Default::default()
        };
        let r = PeriodicityDetector::new(cfg).detect(&ts).unwrap();
        assert!(r.is_periodic());
        assert!(
            (r.best().unwrap().period - 3600.0).abs() < 120.0,
            "period = {}",
            r.best().unwrap().period
        );
    }

    #[test]
    fn candidates_sorted_by_acf_score() {
        let ts = jittered_beacon(200, 30.0, 0.5, 7);
        let r = detector().detect(&ts).unwrap();
        for w in r.candidates.windows(2) {
            assert!(w[0].acf_score >= w[1].acf_score);
        }
    }

    #[test]
    fn rescaled_series_still_detects() {
        // 30 s bins — a coarse `time_scale` like the one a weekly or
        // monthly tier's engine runs at (§VII-B) — still recover a 120 s
        // beacon.
        let ts: Vec<u64> = (0..200).map(|i| i * 120).collect();
        let cfg = DetectorConfig {
            time_scale: 30,
            ..Default::default()
        };
        let r = PeriodicityDetector::new(cfg).detect(&ts).unwrap();
        assert!(r.is_periodic());
        assert!((r.best().unwrap().period - 120.0).abs() < 30.0);
    }

    #[test]
    fn config_accessor() {
        let d = detector();
        assert_eq!(d.config().time_scale, 1);
    }

    #[test]
    fn explicit_workspace_matches_thread_local() {
        let ts = jittered_beacon(150, 83.0, 0.0, 6);
        let ws = crate::workspace::SpectralWorkspace::new();
        let a = detector().detect_in(&ws, &ts).unwrap();
        let b = detector().detect(&ts).unwrap();
        assert_eq!(a, b);
        // Plan tables warm after one pair: a second pair of the same
        // padded length builds no new plans.
        let built = ws.plans_built();
        let shorter = &ts[..140];
        detector().detect_in(&ws, shorter).unwrap();
        assert_eq!(ws.plans_built(), built);
    }

    #[test]
    fn fundamental_survives_harmonic_crowding() {
        // A clean train spreads power over ~P/2 comparable harmonics; with a
        // tiny top-k cut the kept lines can all be harmonics below the
        // minimum interval (each correctly pruned), which silently dropped
        // the fundamental before the harmonic-crowding guard existed.
        let cfg = DetectorConfig {
            max_candidates: 2,
            ..Default::default()
        };
        for period in [83u64, 60, 47] {
            let ts: Vec<u64> = (0..120).map(|i| 1_000_000 + i * period).collect();
            let r = PeriodicityDetector::new(cfg.clone()).detect(&ts).unwrap();
            let p = period as f64;
            assert!(
                r.candidates.iter().any(|c| (c.period - p).abs() <= 0.1 * p),
                "period {period} lost with max_candidates=2: {:?}",
                r.candidates
            );
        }
    }

    #[test]
    fn acf_first_candidate_rescues_perfect_impulse_train() {
        // A jitter-free impulse train with many harmonics: the fundamental
        // can miss the top-k periodogram cut, but the ACF-first candidate
        // must recover it even with heavy injected noise.
        let mut rng = Rng::seed_from_u64(42);
        let mut ts: Vec<u64> = (0..240u64).map(|i| 1_000_000 + i * 300).collect();
        let end = *ts.last().unwrap();
        for _ in 0..180 {
            ts.push(rng.random_range(1_000_000..end));
        }
        ts.sort_unstable();
        let r = detector().detect(&ts).unwrap();
        assert!(
            r.candidates.iter().any(|c| (c.period - 300.0).abs() < 15.0),
            "fundamental lost: {:?}",
            r.candidates
        );
    }

    #[test]
    fn regularity_fallback_handles_bimodal_renewal() {
        // Cache-style renewal: intervals alternate 300 and 360 s. No single
        // spectral line or ACF lag dominates, but the traffic is plainly
        // regular; the median-interval fallback must flag it.
        let mut ts = Vec::with_capacity(200);
        let mut t = 0u64;
        for i in 0..200 {
            ts.push(t);
            t += if i % 7 < 4 { 300 } else { 360 };
        }
        let r = detector().detect(&ts).unwrap();
        assert!(r.is_periodic(), "bimodal renewal not flagged");
        let best = r.best().unwrap();
        assert!(
            best.period >= 290.0 && best.period <= 370.0,
            "period = {}",
            best.period
        );
    }

    #[test]
    fn empty_input_rejected_with_typed_error() {
        let err = detector().detect(&[]).unwrap_err();
        assert!(matches!(err, TimeSeriesError::TooFewEvents { .. }));
    }

    #[test]
    fn single_event_rejected_with_typed_error() {
        let err = detector().detect(&[42]).unwrap_err();
        assert!(matches!(err, TimeSeriesError::TooFewEvents { .. }));
    }

    #[test]
    fn duplicate_timestamps_do_not_panic() {
        // Sorted input with runs of duplicates (zero intervals) must flow
        // through the whole pipeline without panicking.
        let mut ts = Vec::new();
        for i in 0..40u64 {
            ts.push(1_000 + i * 60);
            ts.push(1_000 + i * 60); // duplicate of every event
        }
        let r = detector().detect(&ts).unwrap();
        for c in &r.candidates {
            assert!(c.period.is_finite() && c.acf_score.is_finite());
        }
    }

    #[test]
    fn constant_bin_series_is_non_periodic_not_a_panic() {
        // One event in every single bin: a constant count series has an
        // empty (DC-removed) spectrum — nothing to detect, nothing to fear.
        let ts: Vec<u64> = (0..64).collect();
        let r = detector().detect(&ts).unwrap();
        assert!(r.power_threshold.is_finite() || r.candidates.is_empty());
        for c in &r.candidates {
            assert!(c.period.is_finite());
        }
    }

    #[test]
    fn a_line_at_two_to_the_62_leaves_the_beacon_detectable() {
        // The series is the beacon's events and a 2²⁰-bin cut: the far
        // line costs one interval, not 2⁶² bins.
        let mut ts: Vec<u64> = (0..20).map(|i| 1_000 + i * 60).collect();
        ts.push(1 << 62);
        let r = detector().detect(&ts).unwrap();
        assert_eq!(r.intervals.len(), 20);
        for c in &r.candidates {
            assert!(c.period.is_finite() && c.acf_score.is_finite());
        }
    }

    #[test]
    fn non_finite_intervals_sanitized() {
        // The core must neither panic on nor emit non-finite values from
        // an interval list polluted with NaN/∞.
        let ts: Vec<u64> = (0..120).map(|i| 1_000 + i * 60).collect();
        let series = TimeSeries::from_timestamps(&ts, 1).unwrap();
        let mut intervals = intervals_of(&ts).unwrap();
        intervals.push(f64::NAN);
        intervals.push(f64::INFINITY);
        intervals.push(f64::NEG_INFINITY);
        let ws = crate::workspace::SpectralWorkspace::new();
        let r = detector()
            .detect_series_core(&ws, &series, intervals, &ExecBudget::unlimited())
            .unwrap();
        assert!(r.is_periodic());
        for c in &r.candidates {
            assert!(c.period.is_finite());
            assert!(c.acf_score.is_finite());
            assert!(c.frequency.is_finite());
            assert!(c.power.is_finite());
        }
        assert!(r.intervals.iter().all(|i| i.is_finite()));
    }

    #[test]
    fn outputs_are_nan_free_on_normal_traffic() {
        for seed in 0..4 {
            let ts = jittered_beacon(100, 45.0, 2.0, seed);
            let r = detector().detect(&ts).unwrap();
            assert!(r.power_threshold.is_finite());
            for c in &r.candidates {
                assert!(c.period.is_finite());
                assert!(c.frequency.is_finite());
                assert!(c.power.is_finite());
                assert!(c.acf_score.is_finite());
                if let Some(p) = c.p_value {
                    assert!(p.is_finite());
                }
            }
        }
    }

    #[test]
    fn unlimited_budget_is_byte_identical_to_plain_path() {
        let ts = jittered_beacon(150, 60.0, 3.0, 9);
        let d = detector();
        let plain = d.detect(&ts).unwrap();
        let budgeted = d.detect_budgeted(&ts, &ExecBudget::unlimited()).unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn armed_ops_budget_times_out_pathological_series() {
        // A few hundred events spread over a huge span: the binned series
        // is enormous and each permutation round charges its full length,
        // so a small ops ceiling trips deterministically in Step 1.
        let ts: Vec<u64> = (0..300).map(|i| i * 2_333).collect();
        let cfg = DetectorConfig {
            budget: BudgetSpec {
                max_ops: Some(1_000_000),
            },
            ..Default::default()
        };
        let err = PeriodicityDetector::new(cfg).detect(&ts).unwrap_err();
        assert_eq!(err, TimeSeriesError::BudgetExhausted);

        // A normal beacon sails under the same ceiling.
        let ok_ts = jittered_beacon(120, 60.0, 0.0, 13);
        let cfg = DetectorConfig {
            budget: BudgetSpec {
                max_ops: Some(1_000_000),
            },
            ..Default::default()
        };
        let r = PeriodicityDetector::new(cfg).detect(&ok_ts).unwrap();
        assert!(r.is_periodic());
    }

    #[test]
    fn fallback_does_not_fire_on_wide_renewals() {
        // Uniform intervals in [1, 900]: CV ≈ 0.58 — not quasi-periodic,
        // must not be flagged via the fallback.
        let mut rng = Rng::seed_from_u64(7);
        let mut ts = Vec::new();
        let mut t = 0u64;
        for _ in 0..200 {
            ts.push(t);
            t += rng.random_range(1..900);
        }
        let r = detector().detect(&ts).unwrap();
        assert!(
            !r.is_periodic() || r.best().unwrap().acf_score < 0.3,
            "wide renewal flagged strongly: {:?}",
            r.best()
        );
    }

    #[test]
    fn obs_records_pair_counters_and_quarantines_timings() {
        use baywatch_obs::ManualClock;

        let registry = MetricsRegistry::new();
        let clock = Arc::new(ManualClock::new());
        let det = detector().with_obs(DetectorObs::new(&registry, clock));

        let beacon = jittered_beacon(120, 60.0, 0.0, 1);
        assert!(det.detect(&beacon).unwrap().is_periodic());
        let human: Vec<u64> = vec![0, 13, 15, 470, 471, 509, 3_600, 3_754, 9_000, 9_100, 15_000];
        assert!(!det.detect(&human).unwrap().is_periodic());

        let snap = registry.snapshot();
        assert_eq!(snap.counters["detector.pairs_analyzed"], 2);
        assert_eq!(snap.counters["detector.pairs_periodic"], 1);
        assert_eq!(snap.counters["detector.budget_exhausted"], 0);
        assert!(snap.counters["detector.periodogram.raw_candidates"] >= 1);
        assert_eq!(snap.histograms["detector.series_bins"].total, 2);
        // Non-zero bins: 120 beacon events and 11 browsing ones, no two
        // in one second.
        assert_eq!(snap.histograms["detector.series_events"].sum, 120 + 11);
        // The beacon ran all 20 shuffle rounds; the ACF only ran for pairs
        // that left Step 1 with a candidate.
        let rejected = snap.counters["detector.permutation.rejected"];
        assert!(snap.counters["detector.permutation.rounds"] >= 20 + 2);
        assert_eq!(snap.timings["detector.acf.nanos"].total, 2 - rejected);
        // Stage timings exist but stay out of the deterministic export.
        assert_eq!(snap.timings["detector.periodogram.nanos"].total, 2);
        assert!(!snap.to_json().contains("nanos"));
    }

    #[test]
    fn permutation_timing_covers_rounds_the_budget_cut_short() {
        // Enough ops for the periodogram and three rounds: the fourth
        // checkpoint fails inside the filter, after one packed transform.
        // That time belongs to the permutation stage all the same.
        let registry = MetricsRegistry::new();
        let clock = Arc::new(baywatch_obs::ManualClock::new());
        let det = detector().with_obs(DetectorObs::new(&registry, clock));
        let ts = jittered_beacon(120, 60.0, 0.0, 1);
        let n = TimeSeries::from_timestamps(&ts, 1).unwrap().len() as u64;
        let budget = ExecBudget::new(Some(n + 3 * n));
        assert_eq!(
            det.detect_budgeted(&ts, &budget),
            Err(TimeSeriesError::BudgetExhausted)
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["detector.budget_exhausted"], 1);
        assert_eq!(snap.timings["detector.periodogram.nanos"].total, 1);
        assert_eq!(snap.timings["detector.permutation.nanos"].total, 1);
        assert_eq!(snap.counters["detector.permutation.rounds"], 0);
        assert_eq!(snap.timings["detector.acf.nanos"].total, 0);
    }

    #[test]
    fn rejected_pair_stops_after_step_one_and_charges_the_rounds_it_ran() {
        let registry = MetricsRegistry::new();
        let clock = Arc::new(baywatch_obs::ManualClock::new());
        let det = detector().with_obs(DetectorObs::new(&registry, clock));
        let ts = memoryless(4);
        let n = TimeSeries::from_timestamps(&ts, 1).unwrap().len() as u64;

        let budget = ExecBudget::new(Some(u64::MAX));
        let report = det.detect_budgeted(&ts, &budget).unwrap();
        assert_eq!(report.raw_candidates, 0);
        assert!(!report.is_periodic());
        assert!(report.prune_decisions.is_empty());
        assert_eq!(report.intervals.len(), ts.len() - 1);

        let snap = registry.snapshot();
        let rounds = snap.counters["detector.permutation.rounds"];
        assert!((2..20).contains(&rounds), "rounds = {rounds}");
        assert_eq!(snap.counters["detector.permutation.rejected"], 1);
        assert_eq!(snap.timings["detector.acf.nanos"].total, 0);
        // One periodogram plus the rounds actually run — no ACF.
        assert_eq!(budget.ops_used(), n + rounds * n);

        // That charge is also the exact ceiling the pair fits under, and
        // neither an armed nor an unlimited budget changes the report.
        let exact = ExecBudget::new(Some(n + rounds * n));
        assert_eq!(det.detect_budgeted(&ts, &exact).unwrap(), report);
        let short = ExecBudget::new(Some(n + rounds * n - 1));
        assert_eq!(
            det.detect_budgeted(&ts, &short),
            Err(TimeSeriesError::BudgetExhausted)
        );
        let unlimited = det.detect_budgeted(&ts, &ExecBudget::unlimited()).unwrap();
        assert_eq!(unlimited, report);
        assert_eq!(det.detect(&ts).unwrap(), report);
    }

    #[test]
    fn accepted_pair_charges_steps_one_to_three_and_nothing_after() {
        let registry = MetricsRegistry::new();
        let clock = Arc::new(baywatch_obs::ManualClock::new());
        let det = detector().with_obs(DetectorObs::new(&registry, clock));
        let ts = jittered_beacon(120, 60.0, 0.0, 1);
        let n = TimeSeries::from_timestamps(&ts, 1).unwrap().len() as u64;

        let budget = ExecBudget::new(Some(u64::MAX));
        let report = det.detect_budgeted(&ts, &budget).unwrap();
        assert!(report.is_periodic());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["detector.permutation.rounds"], 20);
        // The hill scan covers lags from the 60 s minimum interval up to
        // `n / min_cycles`, both ends included.
        let max_lag = (n as f64 / det.config().prune.min_cycles) as u64;
        let lags = max_lag - 60 + 1;
        // The periodogram, 20 rounds, the ACF and its hill scan: the
        // record ⟨AS, CP⟩ is complete after Step 3 and nothing else runs.
        let charged = n + 20 * n + n + lags;
        assert_eq!(budget.ops_used(), charged);

        let exact = ExecBudget::new(Some(charged));
        assert_eq!(det.detect_budgeted(&ts, &exact).unwrap(), report);
        let short = ExecBudget::new(Some(charged - 1));
        assert_eq!(
            det.detect_budgeted(&ts, &short),
            Err(TimeSeriesError::BudgetExhausted)
        );
        assert_eq!(det.detect(&ts).unwrap(), report);
    }

    #[test]
    fn obs_counts_budget_exhaustion() {
        let registry = MetricsRegistry::new();
        let clock = Arc::new(baywatch_obs::ManualClock::new());
        let det = detector().with_obs(DetectorObs::new(&registry, clock));

        let ts = jittered_beacon(200, 60.0, 3.0, 3);
        let starved = ExecBudget::new(Some(1));
        assert!(matches!(
            det.detect_budgeted(&ts, &starved),
            Err(TimeSeriesError::BudgetExhausted)
        ));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["detector.budget_exhausted"], 1);
        assert_eq!(snap.counters["detector.pairs_periodic"], 0);
    }
}
