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
//!
//! A tier is a [`Baywatch`] at the tier's time scale over the merged daily
//! summaries of its window. It runs the batch funnel — whitelists,
//! detection, token filter, novelty, ranking — and each firing returns the
//! [`AnalysisReport`] that [`Baywatch::analyze`] would return over the
//! concatenated raw records of those days, as long as no pair's raw
//! timestamp appears on two days (extraction dedupes within a day).

use std::collections::{BTreeSet, VecDeque};

use baywatch_mapreduce::FaultReport;

use crate::activity::ActivitySummary;
use crate::pipeline::{AnalysisReport, Baywatch, BaywatchConfig, Extracted};
use crate::popularity::PopularityStats;
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

/// One analysis tier of the scheduler: a [`Baywatch`] at the tier's time
/// scale over the merged daily summaries of its window.
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Human-readable name ("daily", "weekly", "monthly").
    pub name: &'static str,
    /// How many days of summaries the tier aggregates.
    pub window_days: usize,
    /// Time scale (seconds) the tier analyzes at: its engine's
    /// `detector.time_scale`.
    pub scale: u64,
}

/// The paper's three standard tiers.
pub fn standard_tiers() -> Vec<Tier> {
    vec![
        Tier {
            name: "daily",
            window_days: 1,
            scale: 1,
        },
        Tier {
            name: "weekly",
            window_days: 7,
            scale: 60,
        },
        Tier {
            name: "monthly",
            window_days: 30,
            scale: 3600,
        },
    ]
}

/// One ingested day as the tiers read it, its raw records gone.
#[derive(Debug)]
struct Day {
    /// Raw events.
    events: usize,
    /// Distinct `(destination, source)` pairs, listed destinations
    /// included: popularity over several days is their union.
    pairs: Vec<(String, String)>,
    /// Scale-1 summaries of the pairs filter 1 keeps.
    summaries: Vec<ActivitySummary>,
    /// What extraction dropped.
    faults: FaultReport,
}

/// Multi-scale scheduler: feed it one day of records at a time. Each day
/// is summarised once; when a tier's window completes, the tier's
/// [`Baywatch`] runs filters 2–7 over the merged summaries of its days.
#[derive(Debug)]
pub struct MultiScaleScheduler {
    /// Every tier with its engine, which holds the tier's novelty memory
    /// and metrics.
    tiers: Vec<(Tier, Baywatch)>,
    /// The last `max(window_days)` days, oldest first.
    history: VecDeque<Day>,
    days_ingested: usize,
}

impl MultiScaleScheduler {
    /// Creates a scheduler running `config` at every tier, with the tier's
    /// `scale` as `detector.time_scale`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `tiers` is empty or any
    /// tier has a zero window or scale.
    ///
    /// # Panics
    ///
    /// Panics where [`Baywatch::new`] does: `config.lm_order == 0` or
    /// `config.local_tau` out of `(0, 1]`.
    pub fn new(tiers: Vec<Tier>, config: BaywatchConfig) -> Result<Self, CoreError> {
        if tiers.is_empty() || tiers.iter().any(|t| t.window_days == 0 || t.scale == 0) {
            return Err(CoreError::InvalidConfig {
                name: "tiers",
                constraint: "must be non-empty, each with a positive window_days and scale",
            });
        }
        let tiers = tiers
            .into_iter()
            .map(|tier| {
                let mut config = config.clone();
                config.detector.time_scale = tier.scale;
                (tier, Baywatch::new(config))
            })
            .collect();
        Ok(Self {
            tiers,
            history: VecDeque::new(),
            days_ingested: 0,
        })
    }

    /// Number of days ingested so far.
    pub fn days_ingested(&self) -> usize {
        self.days_ingested
    }

    /// Ingests one day of raw records and runs every tier whose window
    /// completes on this day (every `window_days` days). Returns one report
    /// per tier that fired, in tier order.
    pub fn ingest_day(&mut self, records: Vec<LogRecord>) -> Vec<(&'static str, AnalysisReport)> {
        // The first tier's engine summarises every day; `new` keeps one.
        let day = summarise(&self.tiers[0].1, records);
        self.history.push_back(day);
        self.days_ingested += 1;
        let max_window = self.tiers.iter().map(|(t, _)| t.window_days).max();
        while self.history.len() > max_window.unwrap_or(1) {
            self.history.pop_front();
        }

        let mut reports = Vec::new();
        for (tier, baywatch) in &mut self.tiers {
            // The ring holds at least `window_days` days once one is due.
            if !self.days_ingested.is_multiple_of(tier.window_days) {
                continue;
            }
            let days = self.history.range(self.history.len() - tier.window_days..);
            let mut popularity = PopularityStats::from_pairs(
                days.clone()
                    .flat_map(|day| day.pairs.iter().map(|(d, s)| (d.as_str(), s.as_str()))),
            );
            let listed_pairs = baywatch.list(&mut popularity);
            let summaries: Vec<&ActivitySummary> =
                days.clone().flat_map(|day| &day.summaries).collect();
            let (summaries, mut faults) = baywatch.rescale_and_merge(&summaries);
            for day in days.clone() {
                faults.absorb(&day.faults);
            }
            let window = Extracted {
                events: days.map(|day| day.events).sum(),
                popularity,
                listed_pairs,
                summaries,
                faults,
            };
            reports.push((tier.name, baywatch.analyze_summaries(window)));
        }
        reports
    }
}

/// The batch front half over one day at scale 1, through `engine`:
/// popularity and filter 1 over the day's distinct pairs, then extraction
/// of the pairs filter 1 keeps.
fn summarise(engine: &Baywatch, records: Vec<LogRecord>) -> Day {
    let distinct: BTreeSet<(&str, &str)> = records
        .iter()
        .map(|r| (r.domain.as_str(), r.source.as_str()))
        .collect();
    let mut popularity = PopularityStats::from_pairs(distinct.iter().copied());
    engine.list(&mut popularity);
    let (summaries, faults) = engine.extract(&records, &popularity, 1);
    Day {
        events: records.len(),
        pairs: distinct
            .into_iter()
            .map(|(d, s)| (d.to_owned(), s.to_owned()))
            .collect(),
        summaries,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    /// Day `day` of a beacon every `period` seconds from `source` to
    /// `domain`, plus a few irregular visits from a bystander host: two
    /// sources keep the beacon's popularity at 1/2.
    fn beacon_day(day: u64, source: &str, domain: &str, period: u64) -> Vec<LogRecord> {
        let start = day * DAY;
        let mut records = Vec::new();
        let mut t = start + (period - start % period) % period;
        while t < start + DAY {
            records.push(LogRecord::new(t, source, domain, "a1b2c3"));
            t += period;
        }
        for i in 0..3 {
            let offset = (day * 7_919 + i * 104_729) * 2_654_435_761 % DAY;
            records.push(LogRecord::new(
                start + offset,
                "bystander",
                "news-portal.org",
                "index",
            ));
        }
        records
    }

    fn beacon_days(source: &str, domain: &str, period: u64, days: u64) -> Vec<Vec<LogRecord>> {
        (0..days)
            .map(|day| beacon_day(day, source, domain, period))
            .collect()
    }

    /// Standard tiers under the test-relaxed local whitelist: the test
    /// populations are two hosts, so the paper's τ_P = 1% would whitelist
    /// every destination.
    fn scheduler(tiers: Vec<Tier>) -> MultiScaleScheduler {
        MultiScaleScheduler::new(
            tiers,
            BaywatchConfig {
                local_tau: 0.9,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Every report of every day, in order.
    fn run(
        sched: &mut MultiScaleScheduler,
        days: Vec<Vec<LogRecord>>,
    ) -> Vec<(&'static str, AnalysisReport)> {
        days.into_iter()
            .flat_map(|day| sched.ingest_day(day))
            .collect()
    }

    fn ranks(report: &AnalysisReport, domain: &str) -> bool {
        report
            .ranked
            .iter()
            .any(|c| c.case.pair.destination == domain)
    }

    fn reports(report: &AnalysisReport, domain: &str) -> bool {
        report
            .reported()
            .iter()
            .any(|c| c.case.pair.destination == domain)
    }

    #[test]
    fn daily_tier_catches_fast_beacon() {
        let mut sched = scheduler(standard_tiers());
        let fired = run(&mut sched, beacon_days("h", "fast-c2.test", 120, 1));
        assert_eq!(fired.len(), 1);
        let (tier, report) = &fired[0];
        assert_eq!(*tier, "daily");
        assert!(reports(report, "fast-c2.test"), "{:?}", report.stats);
    }

    #[test]
    fn twenty_four_hour_beacon_needs_the_monthly_tier() {
        // One beacon per day: invisible daily (1 event), invisible weekly
        // (7 events < min_events 8 at best), reported monthly.
        let mut sched = scheduler(standard_tiers());
        let fired = run(&mut sched, beacon_days("h", "slow-c2.test", DAY, 30));
        let monthly: Vec<_> = fired.iter().filter(|(t, _)| *t == "monthly").collect();
        assert_eq!(monthly.len(), 1, "the monthly tier fires on day 30");
        assert!(
            reports(&monthly[0].1, "slow-c2.test"),
            "monthly tier should report the 24 h beacon: {:?}",
            monthly[0].1.stats
        );
        for (tier, report) in &fired {
            if *tier != "monthly" {
                assert!(!ranks(report, "slow-c2.test"), "{tier} ranked it");
            }
        }
    }

    #[test]
    fn six_hour_beacon_visible_weekly() {
        // 4 events a day (below min_events), 28 a week.
        let mut sched = scheduler(standard_tiers());
        let fired = run(&mut sched, beacon_days("h", "sixhour-c2.test", 6 * 3600, 7));
        assert!(
            fired
                .iter()
                .any(|(t, r)| *t == "weekly" && ranks(r, "sixhour-c2.test")),
            "fired: {:?}",
            fired.iter().map(|(t, r)| (t, r.stats)).collect::<Vec<_>>()
        );
        assert!(fired
            .iter()
            .all(|(t, r)| *t == "weekly" || !ranks(r, "sixhour-c2.test")));
    }

    #[test]
    fn weekly_tier_fires_every_seventh_day() {
        let mut sched = scheduler(standard_tiers());
        for (d, day) in beacon_days("h", "x-c2.test", 6 * 3600, 7)
            .into_iter()
            .enumerate()
        {
            let tiers: Vec<&str> = sched.ingest_day(day).iter().map(|(t, _)| *t).collect();
            let expected: &[&str] = if d == 6 {
                &["daily", "weekly"]
            } else {
                &["daily"]
            };
            assert_eq!(tiers, expected, "day {d}");
        }
    }

    #[test]
    fn invalid_tiers_rejected() {
        assert!(MultiScaleScheduler::new(vec![], BaywatchConfig::default()).is_err());
        for (window_days, scale) in [(0, 1), (1, 0)] {
            let tier = Tier {
                name: "bad",
                window_days,
                scale,
            };
            assert!(MultiScaleScheduler::new(vec![tier], BaywatchConfig::default()).is_err());
        }
    }

    #[test]
    fn history_is_bounded() {
        let mut sched = scheduler(standard_tiers());
        for day in beacon_days("h", "y-c2.test", 3600, 31) {
            sched.ingest_day(day);
        }
        assert_eq!(sched.days_ingested(), 31);
        assert_eq!(sched.history.len(), 30);
    }

    #[test]
    fn daily_tier_reports_a_pair_once() {
        let mut sched = scheduler(standard_tiers());
        for (d, day) in beacon_days("h", "z-c2.test", 300, 3)
            .into_iter()
            .enumerate()
        {
            let fired = sched.ingest_day(day);
            let (_, daily) = &fired[0];
            if d == 0 {
                assert!(reports(daily, "z-c2.test"));
            } else {
                assert_eq!(daily.stats.periodic, 1, "day {d}");
                assert_eq!(daily.stats.after_novelty, 0, "day {d}");
            }
        }
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
}
