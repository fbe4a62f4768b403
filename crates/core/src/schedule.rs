//! Multi-scale iterative operation (§X of the paper).
//!
//! BAYWATCH runs at three cadences simultaneously:
//!
//! * **daily** at fine granularity — catches minute-level beaconing,
//! * **weekly** over merged daily summaries at a coarser scale — catches
//!   hour-level periodicity without reprocessing raw logs,
//! * **monthly** at the coarsest scale — catches 24-hour beacons that a
//!   single day can never show (a 24 h period needs ≥ `min_cycles` days of
//!   observation).
//!
//! The scheduler is the consumer of the rescaling/merging job (§VII-B):
//! each day's raw logs are summarized once; weekly and monthly tiers merge
//! and re-bin those summaries instead of touching raw data again.

use std::collections::BTreeMap;

use baywatch_mapreduce::{FaultPolicy, MapReduce};
use baywatch_timeseries::detector::{DetectorConfig, PeriodicityDetector};
use baywatch_timeseries::{BudgetSpec, CandidatePeriod};

use crate::activity::ActivitySummary;
use crate::jobs;
use crate::pair::CommunicationPair;
use crate::record::LogRecord;
use crate::CoreError;

/// Tick/window arithmetic for the streaming engine (`core::stream`).
///
/// Time is divided into fixed-width **ticks** of `tick_seconds`; the
/// sliding detection window always covers the most recent `window_ticks`
/// whole ticks, *including* the current one. All boundary conventions are
/// half-open on ticks and **closed on the window's lower edge**:
///
/// * tick `k` covers `[k * tick_seconds, (k + 1) * tick_seconds)`;
/// * while tick `t` is current, the window is
///   `[window_start(t), (t + 1) * tick_seconds)` with
///   `window_start(t) = (t + 1 - window_ticks) * tick_seconds`
///   (saturating at 0);
/// * an event whose timestamp equals `window_start(t)` **is in the
///   window** — this is the off-by-one this type exists to pin down:
///   [`TimestampRing::retain_from`](baywatch_timeseries::TimestampRing::retain_from)
///   drops strictly-older entries only, so both sides agree that the
///   edge event survives a window shift.
///
/// With `window_ticks == 1` the window is exactly the current tick: each
/// shift discards everything from prior ticks but never the edge event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Width of one tick in seconds (must be positive).
    pub tick_seconds: u64,
    /// How many ticks the sliding window covers, current tick included
    /// (must be positive).
    pub window_ticks: u64,
}

impl ScheduleSpec {
    /// Validates and constructs a spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when either field is zero.
    pub fn new(tick_seconds: u64, window_ticks: u64) -> Result<Self, CoreError> {
        if tick_seconds == 0 {
            return Err(CoreError::InvalidConfig {
                name: "tick_seconds",
                constraint: "must be positive",
            });
        }
        if window_ticks == 0 {
            return Err(CoreError::InvalidConfig {
                name: "window_ticks",
                constraint: "must be positive",
            });
        }
        Ok(Self {
            tick_seconds,
            window_ticks,
        })
    }

    /// The tick index containing `timestamp`.
    pub fn tick_of(&self, timestamp: u64) -> u64 {
        timestamp / self.tick_seconds
    }

    /// First timestamp of tick `tick` (saturating at `u64::MAX`).
    pub fn tick_start(&self, tick: u64) -> u64 {
        tick.saturating_mul(self.tick_seconds)
    }

    /// Inclusive lower edge of the window while `current_tick` is the
    /// newest tick: the start of tick `current_tick + 1 - window_ticks`,
    /// saturating at time zero when fewer than `window_ticks` ticks have
    /// elapsed.
    pub fn window_start(&self, current_tick: u64) -> u64 {
        self.tick_start(self.first_window_tick(current_tick))
    }

    /// First tick still inside the window while `current_tick` is the
    /// newest tick (saturating at both ends of `u64`).
    pub(crate) fn first_window_tick(&self, current_tick: u64) -> u64 {
        current_tick
            .saturating_add(1)
            .saturating_sub(self.window_ticks)
    }

    /// Exclusive upper edge of the window while `current_tick` is the
    /// newest tick (the end of that tick).
    pub fn window_end(&self, current_tick: u64) -> u64 {
        self.tick_start(current_tick.saturating_add(1))
    }

    /// Whether `timestamp` falls inside the window of `current_tick`:
    /// `window_start(current_tick) <= timestamp < window_end(current_tick)`.
    /// The lower comparison is `>=` — the edge event is **in**.
    pub fn in_window(&self, current_tick: u64, timestamp: u64) -> bool {
        timestamp >= self.window_start(current_tick) && timestamp < self.window_end(current_tick)
    }
}

/// One analysis tier of the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Human-readable name ("daily", "weekly", "monthly").
    pub name: &'static str,
    /// How many days of summaries the tier aggregates.
    pub window_days: usize,
    /// Time scale (seconds) the tier analyzes at.
    pub scale: u64,
    /// Per-pair execution budget for this tier's detection runs
    /// (unlimited by default). Coarser tiers aggregate longer series, so
    /// operators can cap them independently; pairs that exhaust the
    /// budget are counted in
    /// [`MultiScaleScheduler::timed_out_pairs`], not detected.
    pub pair_budget: BudgetSpec,
}

/// The paper's three standard tiers.
pub fn standard_tiers() -> Vec<Tier> {
    vec![
        Tier {
            name: "daily",
            window_days: 1,
            scale: 1,
            pair_budget: BudgetSpec::UNLIMITED,
        },
        Tier {
            name: "weekly",
            window_days: 7,
            scale: 60,
            pair_budget: BudgetSpec::UNLIMITED,
        },
        Tier {
            name: "monthly",
            window_days: 30,
            scale: 3600,
            pair_budget: BudgetSpec::UNLIMITED,
        },
    ]
}

/// A detection produced by some tier.
#[derive(Debug, Clone)]
pub struct TierDetection {
    /// Tier that produced the finding.
    pub tier: &'static str,
    /// The communication pair.
    pub pair: CommunicationPair,
    /// The verified candidate periods, strongest first (never empty).
    pub candidates: Vec<CandidatePeriod>,
}

impl TierDetection {
    /// The strongest candidate period.
    pub fn best(&self) -> Option<&CandidatePeriod> {
        self.candidates.first()
    }
}

/// Multi-scale scheduler: feed it one day of records at a time; it keeps
/// per-pair daily summaries, merges them into the coarser tiers when their
/// windows complete, and runs the detector at every tier.
#[derive(Debug)]
pub struct MultiScaleScheduler {
    tiers: Vec<Tier>,
    detector_config: DetectorConfig,
    engine: MapReduce,
    /// Ring of the last N days of summaries (N = max window).
    history: Vec<Vec<ActivitySummary>>,
    days_ingested: usize,
    /// Pairs whose detection exhausted a tier's per-pair budget, summed
    /// across all tiers and days.
    timed_out_pairs: usize,
}

impl MultiScaleScheduler {
    /// Creates a scheduler with the given tiers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `tiers` is empty or any
    /// tier has a zero window or scale.
    pub fn new(
        tiers: Vec<Tier>,
        detector_config: DetectorConfig,
        engine: MapReduce,
    ) -> Result<Self, CoreError> {
        if tiers.is_empty() {
            return Err(CoreError::InvalidConfig {
                name: "tiers",
                constraint: "must be non-empty",
            });
        }
        for t in &tiers {
            if t.window_days == 0 || t.scale == 0 {
                return Err(CoreError::InvalidConfig {
                    name: "tier",
                    constraint: "window_days and scale must be positive",
                });
            }
        }
        Ok(Self {
            tiers,
            detector_config,
            engine,
            history: Vec::new(),
            days_ingested: 0,
            timed_out_pairs: 0,
        })
    }

    /// Convenience: standard tiers with default configs.
    #[expect(
        clippy::expect_used,
        reason = "standard_tiers() is a fixed known-valid constant configuration; rejection is a programming error, not an input condition"
    )]
    pub fn standard() -> Self {
        Self::new(
            standard_tiers(),
            DetectorConfig::default(),
            MapReduce::default(),
        )
        .expect("standard tiers are valid")
    }

    /// Number of days ingested so far.
    pub fn days_ingested(&self) -> usize {
        self.days_ingested
    }

    /// Pairs cut off by a tier's per-pair execution budget so far
    /// (degraded-mode accounting; zero when every tier is unlimited).
    pub fn timed_out_pairs(&self) -> usize {
        self.timed_out_pairs
    }

    /// Ingests one day of raw records and runs every tier whose window
    /// completes on this day. Returns all detections (periodic pairs),
    /// tagged with the tier that found them.
    pub fn ingest_day(&mut self, records: Vec<LogRecord>) -> Vec<TierDetection> {
        // Summarize the day once at the finest granularity.
        let policy = FaultPolicy::default();
        let (day_summaries, _faults) =
            jobs::extract_summaries(&self.engine, &records, |_: &str| false, 1, None, &policy);
        self.history.push(day_summaries);
        self.days_ingested += 1;

        // `new()` rejects empty tier lists; fall back to a one-day window
        // instead of panicking if that invariant ever regresses.
        let max_window = self.tiers.iter().map(|t| t.window_days).max().unwrap_or(1);
        while self.history.len() > max_window {
            self.history.remove(0);
        }

        let mut out = Vec::new();
        let mut timed_out = 0usize;
        for tier in &self.tiers {
            // A tier fires when its window completes (every `window_days`).
            if !self.days_ingested.is_multiple_of(tier.window_days) {
                continue;
            }
            if self.history.len() < tier.window_days {
                continue;
            }
            let window: Vec<ActivitySummary> = self.history
                [self.history.len() - tier.window_days..]
                .iter()
                .flatten()
                .cloned()
                .collect();
            // Merge per-pair across days and re-bin to the tier's scale.
            let (merged, _faults) =
                jobs::rescale_and_merge(&self.engine, &window, tier.scale, None, &policy);

            // Run the detector at the tier's scale.
            let detector_config = DetectorConfig {
                time_scale: tier.scale,
                ..self.detector_config.clone()
            };
            let detector = PeriodicityDetector::new(detector_config);
            let (rows, _faults) = jobs::detect_beaconing(
                &self.engine,
                &merged,
                &detector,
                tier.pair_budget,
                None,
                &policy,
            );
            for row in rows {
                match row {
                    jobs::DetectRow::Hit((summary, candidates)) => out.push(TierDetection {
                        tier: tier.name,
                        pair: summary.pair,
                        candidates,
                    }),
                    jobs::DetectRow::TimedOut(_) => timed_out += 1,
                    jobs::DetectRow::Quiet(_) => {}
                }
            }
        }
        self.timed_out_pairs += timed_out;
        out
    }

    /// Ingests many days and collects every detection, deduplicated by
    /// (tier, pair) keeping the strongest ACF score.
    pub fn ingest_days<I>(&mut self, days: I) -> Vec<TierDetection>
    where
        I: IntoIterator<Item = Vec<LogRecord>>,
    {
        // Keyed by (tier, pair), which is exactly the output order: a
        // BTreeMap makes `into_values` already sorted, so the final sort
        // below is a no-op safeguard rather than the thing producing order.
        let mut best: BTreeMap<(&'static str, CommunicationPair), TierDetection> = BTreeMap::new();
        for day in days {
            for det in self.ingest_day(day) {
                let key = (det.tier, det.pair.clone());
                let better = best
                    .get(&key)
                    .map(|old| {
                        det.best().map(|c| c.acf_score).unwrap_or(0.0)
                            > old.best().map(|c| c.acf_score).unwrap_or(0.0)
                    })
                    .unwrap_or(true);
                if better {
                    best.insert(key, det);
                }
            }
        }
        let mut out: Vec<TierDetection> = best.into_values().collect();
        out.sort_by(|a, b| a.tier.cmp(b.tier).then(a.pair.cmp(&b.pair)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    /// Beacon every `period` seconds across `days` days.
    fn beacon_days(source: &str, domain: &str, period: u64, days: usize) -> Vec<Vec<LogRecord>> {
        let mut out = Vec::new();
        for d in 0..days {
            let day_start = d as u64 * DAY;
            let mut records = Vec::new();
            let mut t = day_start + (period - (day_start % period)) % period;
            while t < day_start + DAY {
                records.push(LogRecord::new(t, source, domain, "x"));
                t += period;
            }
            out.push(records);
        }
        out
    }

    #[test]
    fn daily_tier_catches_fast_beacon() {
        let mut sched = MultiScaleScheduler::standard();
        let days = beacon_days("h", "fast.com", 120, 1);
        let detections = sched.ingest_days(days);
        assert!(detections
            .iter()
            .any(|d| d.tier == "daily" && d.pair.destination == "fast.com"));
    }

    #[test]
    fn twenty_four_hour_beacon_needs_the_monthly_tier() {
        // One beacon per day: invisible daily (1 event), invisible weekly
        // (7 events < min_events 8 at best), caught monthly.
        let mut sched = MultiScaleScheduler::standard();
        let days = beacon_days("h", "slow.com", 86_400, 30);
        let detections = sched.ingest_days(days);
        let tiers: Vec<&str> = detections
            .iter()
            .filter(|d| d.pair.destination == "slow.com")
            .map(|d| d.tier)
            .collect();
        assert!(
            tiers.contains(&"monthly"),
            "monthly tier should catch the 24 h beacon, got {tiers:?}"
        );
        assert!(
            !tiers.contains(&"daily"),
            "a single daily event cannot be periodic"
        );
    }

    #[test]
    fn hourly_beacon_visible_weekly() {
        // 6-hour beacon: 4 events/day (below min_events), 28 events/week.
        let mut sched = MultiScaleScheduler::standard();
        let days = beacon_days("h", "sixhour.com", 6 * 3600, 7);
        let detections = sched.ingest_days(days);
        let found_weekly = detections
            .iter()
            .any(|d| d.tier == "weekly" && d.pair.destination == "sixhour.com");
        assert!(found_weekly, "detections: {detections:?}");
    }

    #[test]
    fn weekly_tier_fires_every_seventh_day() {
        let mut sched = MultiScaleScheduler::standard();
        for d in 0..6 {
            let day = beacon_days("h", "x.com", 6 * 3600, 1).remove(0);
            let day: Vec<LogRecord> = day
                .into_iter()
                .map(|mut r| {
                    r.timestamp += d as u64 * DAY;
                    r
                })
                .collect();
            let dets = sched.ingest_day(day);
            assert!(
                !dets.iter().any(|x| x.tier == "weekly"),
                "weekly fired early on day {d}"
            );
        }
        let day7 = beacon_days("h", "x.com", 6 * 3600, 1)
            .remove(0)
            .into_iter()
            .map(|mut r| {
                r.timestamp += 6 * DAY;
                r
            })
            .collect();
        let dets = sched.ingest_day(day7);
        assert!(dets.iter().any(|x| x.tier == "weekly"));
    }

    #[test]
    fn invalid_tiers_rejected() {
        assert!(
            MultiScaleScheduler::new(vec![], DetectorConfig::default(), MapReduce::default())
                .is_err()
        );
        assert!(MultiScaleScheduler::new(
            vec![Tier {
                name: "bad",
                window_days: 0,
                scale: 1,
                pair_budget: BudgetSpec::UNLIMITED,
            }],
            DetectorConfig::default(),
            MapReduce::default()
        )
        .is_err());
    }

    #[test]
    fn exhausted_tier_budget_times_out_pairs_instead_of_detecting() {
        let starved = Tier {
            name: "daily",
            window_days: 1,
            scale: 1,
            pair_budget: BudgetSpec {
                max_ops: Some(1),
                ..Default::default()
            },
        };
        let mut sched = MultiScaleScheduler::new(
            vec![starved],
            DetectorConfig::default(),
            MapReduce::default(),
        )
        .unwrap();
        let detections = sched.ingest_days(beacon_days("h", "fast.com", 120, 1));
        assert!(detections.is_empty(), "starved tier must not detect");
        assert!(sched.timed_out_pairs() > 0);

        // The same day under an unlimited budget detects normally and
        // reports no timeouts.
        let mut unlimited = MultiScaleScheduler::standard();
        let detections = unlimited.ingest_days(beacon_days("h", "fast.com", 120, 1));
        assert!(detections.iter().any(|d| d.pair.destination == "fast.com"));
        assert_eq!(unlimited.timed_out_pairs(), 0);
    }

    #[test]
    fn history_is_bounded() {
        let mut sched = MultiScaleScheduler::standard();
        for day in beacon_days("h", "y.com", 3600, 40) {
            sched.ingest_day(day);
        }
        assert_eq!(sched.days_ingested(), 40);
        assert!(sched.history.len() <= 30);
    }

    #[test]
    fn schedule_spec_rejects_zero_fields() {
        assert!(ScheduleSpec::new(0, 4).is_err());
        assert!(ScheduleSpec::new(60, 0).is_err());
        assert!(ScheduleSpec::new(60, 4).is_ok());
    }

    #[test]
    fn window_edge_event_is_inside() {
        // The latent off-by-one this guards: an event landing exactly on
        // the window's lower edge must be IN the window, on both the
        // ScheduleSpec side and the ring-retention side.
        let spec = ScheduleSpec::new(60, 4).unwrap();
        // Current tick 10 → window covers ticks 7..=10 → [420, 660).
        assert_eq!(spec.window_start(10), 420);
        assert_eq!(spec.window_end(10), 660);
        assert!(spec.in_window(10, 420), "edge event must be in-window");
        assert!(!spec.in_window(10, 419));
        assert!(spec.in_window(10, 659));
        assert!(!spec.in_window(10, 660));

        let mut ring = baywatch_timeseries::TimestampRing::new(16);
        ring.append_batch(&[(419, 1), (420, 1), (500, 1)]);
        ring.retain_from(spec.window_start(10));
        assert_eq!(
            ring.timestamps(),
            vec![420, 500],
            "ring retention must agree with in_window on the edge"
        );
    }

    #[test]
    fn one_tick_window_is_exactly_the_current_tick() {
        let spec = ScheduleSpec::new(60, 1).unwrap();
        assert_eq!(spec.window_start(5), 300);
        assert_eq!(spec.window_end(5), 360);
        assert!(spec.in_window(5, 300));
        assert!(!spec.in_window(5, 299));
        assert!(!spec.in_window(5, 360));
    }

    #[test]
    fn early_ticks_saturate_at_time_zero() {
        let spec = ScheduleSpec::new(60, 8).unwrap();
        // Fewer than window_ticks ticks have elapsed: window starts at 0.
        assert_eq!(spec.window_start(3), 0);
        assert!(spec.in_window(3, 0));
        assert!(spec.in_window(3, 239));
        assert!(!spec.in_window(3, 240));
    }

    #[test]
    fn tick_of_matches_tick_start() {
        let spec = ScheduleSpec::new(90, 2).unwrap();
        for t in [0, 89, 90, 179, 180, 12345] {
            let k = spec.tick_of(t);
            assert!(spec.tick_start(k) <= t);
            assert!(t < spec.tick_start(k + 1));
        }
    }

    #[test]
    fn ingest_days_dedups_per_tier_pair() {
        let mut sched = MultiScaleScheduler::standard();
        let detections = sched.ingest_days(beacon_days("h", "z.com", 300, 3));
        let daily: Vec<_> = detections
            .iter()
            .filter(|d| d.tier == "daily" && d.pair.destination == "z.com")
            .collect();
        assert_eq!(daily.len(), 1, "expected one deduplicated daily finding");
    }
}
