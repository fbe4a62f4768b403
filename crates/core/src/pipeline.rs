//! The end-to-end BAYWATCH engine: all eight filters wired together
//! (Fig. 3 of the paper).

use std::convert::Infallible;
use std::sync::Arc;

use baywatch_langmodel::DomainScorer;
use baywatch_mapreduce::{
    CheckpointStore, CheckpointedRun, FaultPlan, FaultReport, JobConfig, MapReduce,
};
use baywatch_obs::{Buckets, Clock, MetricsRegistry, MetricsSnapshot, MonotonicClock, StageTracer};
use baywatch_timeseries::detector::{DetectorConfig, DetectorObs, PeriodicityDetector};

use crate::activity::ActivitySummary;
use crate::checkpoint::{self, CheckpointOutcome, CheckpointSpec};
use crate::funnel::{Funnel, Hits};
use crate::io::ReadOutcome;
use crate::jobs;
use crate::novelty::NoveltyStore;
use crate::popularity::PopularityStats;
use crate::rank::{RankConfig, RankedCase};
use crate::record::LogRecord;
use crate::tokens::TokenFilter;
use crate::whitelist::GlobalWhitelist;

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct BaywatchConfig {
    /// Periodicity-detector settings. Its `time_scale` (seconds; paper: 1)
    /// is also the scale extraction summarises a window at.
    pub detector: DetectorConfig,
    /// Local-whitelist population threshold τ_P (paper: 0.01).
    pub local_tau: f64,
    /// URL-token filter.
    pub token_filter: TokenFilter,
    /// Ranking weights and report percentile.
    pub rank: RankConfig,
    /// MapReduce engine settings.
    pub mapreduce: JobConfig,
    /// n-gram order of the domain language model (paper: 3).
    pub lm_order: usize,
    /// Whether to load the built-in global whitelist (can be disabled for
    /// synthetic experiments with no real domains).
    pub use_builtin_whitelist: bool,
}

impl Default for BaywatchConfig {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::default(),
            local_tau: 0.01,
            token_filter: TokenFilter::default(),
            rank: RankConfig::default(),
            mapreduce: JobConfig::default(),
            lm_order: 3,
            use_builtin_whitelist: true,
        }
    }
}

/// Per-filter survivor counts — the data-flow numbers of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Raw input events.
    pub events: usize,
    /// Distinct communication pairs: those extracted plus those to a
    /// destination filter 1 lists, whose lines extraction skips.
    pub pairs: usize,
    /// Pairs surviving the global whitelist (filter 1).
    pub after_global_whitelist: usize,
    /// Pairs surviving the local whitelist (filter 2).
    pub after_local_whitelist: usize,
    /// Pairs with verified periodic behaviour (filter 3).
    pub periodic: usize,
    /// Cases surviving the URL-token filter (filter 4).
    pub after_token_filter: usize,
    /// Cases surviving novelty analysis (filter 5).
    pub after_novelty: usize,
    /// Cases above the ranking percentile (filters 6–7).
    pub reported: usize,
    /// Input lines that failed to parse during ingest (lenient mode); zero
    /// when the window was handed over as already-parsed records.
    pub malformed_lines: usize,
    /// Events dropped by fault-tolerant execution (poison records plus
    /// values lost with quarantined pairs during extraction).
    pub skipped_events: usize,
    /// Communication pairs quarantined after their map/reduce tasks kept
    /// panicking (degraded mode: each costs one pair, not the run).
    pub quarantined_pairs: usize,
}

/// The outcome of analyzing one window.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Survivor counts per filter.
    pub stats: FilterStats,
    /// Every scored case (after filters 1–6), ranked best-first.
    pub ranked: Vec<RankedCase>,
    /// Index cutoff into `ranked`: entries below it are above the report
    /// percentile (filter 7).
    pub report_cutoff: usize,
    /// Popularity statistics of the window (useful to callers).
    pub popularity_total_sources: usize,
    /// Aggregate fault-tolerance report across every MapReduce job in the
    /// window (bisections, quarantines, panic samples). Clean when no
    /// task panicked.
    pub faults: FaultReport,
    /// Sampled ingest errors when the window came from
    /// [`Baywatch::analyze_outcome`] (bounded; `stats.malformed_lines` is
    /// the exact count).
    pub malformed_samples: Vec<String>,
    /// Checkpoint machinery outcome for runs started through
    /// [`Baywatch::analyze_checkpointed`]; `None` otherwise. These are
    /// process facts (resumed/re-executed work), not data facts, and never
    /// appear in the deterministic JSON export.
    pub checkpoint: Option<CheckpointOutcome>,
}

impl AnalysisReport {
    /// The cases above the reporting threshold.
    pub fn reported(&self) -> &[RankedCase] {
        &self.ranked[..self.report_cutoff]
    }
}

/// The BAYWATCH engine. Holds state that persists across windows (the
/// novelty store and the trained language model).
#[derive(Debug)]
pub struct Baywatch {
    config: BaywatchConfig,
    engine: MapReduce,
    detector: PeriodicityDetector,
    funnel: Funnel,
    novelty: NoveltyStore,
    fault_plan: Option<Arc<FaultPlan>>,
    metrics: Arc<MetricsRegistry>,
    tracer: StageTracer,
}

impl Baywatch {
    /// Creates an engine: trains the domain language model on the embedded
    /// corpus and loads the global whitelist. Stage spans are timed with a
    /// [`MonotonicClock`]; use [`Baywatch::with_clock`] to inject a manual
    /// clock for reproducible traces.
    ///
    /// # Panics
    ///
    /// Panics if `config.lm_order == 0`, `config.local_tau` is out of
    /// `(0, 1]` or `config.detector.time_scale == 0`.
    pub fn new(config: BaywatchConfig) -> Self {
        Self::with_clock(config, Arc::new(MonotonicClock::new()))
    }

    /// Like [`Baywatch::new`] with an injected [`Clock`] driving the stage
    /// tracer and detector timings. With a
    /// [`ManualClock`](baywatch_obs::ManualClock) every recorded duration
    /// is reproducible, which the golden-run suite relies on.
    pub fn with_clock(config: BaywatchConfig, clock: Arc<dyn Clock>) -> Self {
        assert!(
            config.detector.time_scale > 0,
            "detector.time_scale must be positive"
        );
        let metrics = Arc::new(MetricsRegistry::new());
        let tracer = StageTracer::new(clock.clone());
        let engine = MapReduce::new(config.mapreduce).with_metrics(metrics.clone());
        let detector = PeriodicityDetector::new(config.detector.clone())
            .with_obs(DetectorObs::new(&metrics, clock));
        Self {
            funnel: Funnel::new(&config),
            config,
            engine,
            detector,
            novelty: NoveltyStore::new(),
            fault_plan: None,
            metrics,
            tracer,
        }
    }

    /// The engine's metrics registry (counters, value histograms, stage
    /// timings). Shared with the MapReduce engine and the detector.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The stage tracer; completed spans accumulate until
    /// [`StageTracer::drain`] (called at the end of every
    /// [`Baywatch::analyze`], which folds them into `span.*` timing
    /// histograms).
    pub fn tracer(&self) -> &StageTracer {
        &self.tracer
    }

    /// Arms a deterministic fault-injection plan: every MapReduce job run
    /// by subsequent [`Baywatch::analyze`] calls routes its map/reduce
    /// checkpoints through `plan`. Test-harness machinery; analysis still
    /// completes (degraded) when the plan fires.
    pub fn arm_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Disarms any armed fault-injection plan.
    pub fn disarm_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// The active configuration.
    pub fn config(&self) -> &BaywatchConfig {
        &self.config
    }

    /// Mutable access to the global whitelist (e.g. to add
    /// organization-specific entries).
    pub fn global_whitelist_mut(&mut self) -> &mut GlobalWhitelist {
        &mut self.funnel.global_whitelist
    }

    /// The novelty store (persists across [`Baywatch::analyze`] calls —
    /// daily operation reports each pair once).
    pub fn novelty(&self) -> &NoveltyStore {
        &self.novelty
    }

    /// The trained domain scorer.
    pub fn scorer(&self) -> &DomainScorer {
        &self.funnel.scorer
    }

    /// Analyzes one window of pre-parsed log lines: like
    /// [`Baywatch::analyze`], but carries the lenient-ingest tallies
    /// (malformed-line count and error samples) from the [`ReadOutcome`]
    /// into the report so degraded input stays visible downstream.
    pub fn analyze_outcome(&mut self, outcome: ReadOutcome) -> AnalysisReport {
        let malformed_lines = outcome.malformed_lines;
        let malformed_samples: Vec<String> = outcome.errors.iter().map(|e| e.to_string()).collect();
        let mut report = self.analyze(outcome.records);
        report.stats.malformed_lines = malformed_lines;
        report.malformed_samples = malformed_samples;
        report
    }

    /// Analyzes one window of records through filters 1–7.
    ///
    /// Popularity and filter 1's verdicts are one pass over the window, and
    /// each MapReduce job — extraction of the pairs filter 1 keeps,
    /// detection — is one `MapReduce::run`: a poison record or pair is
    /// quarantined (recorded in `stats.skipped_events` /
    /// `stats.quarantined_pairs` and the aggregate `faults` report) and the
    /// analysis completes on the surviving pairs instead of panicking. A
    /// listed pair is never reduced, so no reduce fault reaches it.
    ///
    /// Filter 8 (bootstrap classification) is separate — see
    /// [`crate::investigate`] — because it needs manual labels.
    pub fn analyze(&mut self, records: Vec<LogRecord>) -> AnalysisReport {
        // Without a checkpoint the detection step touches no file, so the
        // analysis cannot fail — and the type says so.
        let Ok(report) = self.analyze_with(|this| this.extract_window(records), Self::detect);
        report
    }

    /// The back half of [`Baywatch::analyze`], filters 2–7, over a window
    /// already summarised: a multi-scale tier's merged days.
    pub(crate) fn analyze_summaries(&mut self, window: Extracted) -> AnalysisReport {
        let Ok(report) = self.analyze_with(|_| window, Self::detect);
        report
    }

    /// Analyzes one window like [`Baywatch::analyze`], but runs the
    /// detection phase (filter 3 — by far the dominant cost at enterprise
    /// scale) through a durable checkpoint under `spec.dir`:
    ///
    /// * detection is sharded ([`CheckpointSpec::shard_size`] pairs per
    ///   shard, heaviest pairs first) and every completed shard is
    ///   persisted atomically (rows, fault report, metric deltas) together
    ///   with a versioned run manifest,
    /// * with [`CheckpointSpec::resume`], shards recorded in a compatible
    ///   manifest are restored instead of re-executed — the resumed run's
    ///   report is **byte-identical** to an uninterrupted one (corrupt or
    ///   mismatched state degrades to re-execution, never failure),
    /// * pairs the engine quarantined (poison) are recorded in the
    ///   manifest's dead-letter queue with their summaries, the evidence to
    ///   reproduce them offline.
    ///
    /// Detection is a function of the input alone, so this reports the
    /// same funnel and ranked list as [`Baywatch::analyze`].
    ///
    /// Errors only on checkpoint-directory I/O failures (unwritable dir,
    /// disk full); analysis faults are still *degradation*, not errors.
    pub fn analyze_checkpointed(
        &mut self,
        records: Vec<LogRecord>,
        spec: &CheckpointSpec,
    ) -> std::io::Result<AnalysisReport> {
        let window = |this: &Self| this.extract_window(records);
        self.analyze_with(window, |this, pairs, stats, faults| {
            this.detect_checkpointed(pairs, stats, faults, spec)
                .map(|(hits, outcome)| (hits, Some(outcome)))
        })
    }

    /// One window through the whole funnel: `window` is its front half,
    /// `detect` is filter 3 — plain or checkpointed — and the only step
    /// that can fail.
    fn analyze_with<E>(
        &mut self,
        window: impl FnOnce(&Self) -> Extracted,
        detect: impl FnOnce(
            &Self,
            Vec<ActivitySummary>,
            &mut FilterStats,
            &mut FaultReport,
        ) -> Result<(Hits, Option<CheckpointOutcome>), E>,
    ) -> Result<AnalysisReport, E> {
        let tracer = self.tracer.clone();
        let window_span = tracer.span("analyze");
        let Extracted {
            events,
            popularity,
            listed_pairs,
            mut summaries,
            faults: extract_faults,
        } = window(self);
        let mut stats = FilterStats {
            events,
            ..Default::default()
        };
        let mut faults = FaultReport::default();
        self.metrics
            .counter("pipeline.events")
            .add(stats.events as u64);
        stats.pairs = summaries.len() + listed_pairs;
        stats.skipped_events = extract_faults.skipped_records();
        stats.quarantined_pairs += extract_faults.quarantined_keys;
        faults.absorb(&extract_faults);
        self.metrics
            .counter("pipeline.pairs")
            .add(stats.pairs as u64);
        self.stage_counters(
            "01_extract",
            stats.pairs,
            &[
                ("skipped_events", stats.skipped_events),
                ("quarantined", extract_faults.quarantined_keys),
            ],
        );

        // ---- Filter 1: global whitelist, applied in the extraction map. ----
        stats.after_global_whitelist = summaries.len();
        self.admit_drop("02_global_whitelist", stats.pairs, summaries.len());

        // ---- Filter 2: local whitelist (popularity τ_P). ----
        let funnel = &self.funnel;
        let input = summaries.len();
        {
            let _span = tracer.span("whitelist.local");
            summaries.retain(|s| {
                !funnel.locally_whitelisted(popularity.popularity(&s.pair.destination))
            });
        }
        stats.after_local_whitelist = summaries.len();
        self.admit_drop("03_local_whitelist", input, summaries.len());

        // ---- Filter 3: periodicity detection (§IV, §VII-D). ----
        // The detector is built once per pipeline; inside the job at most
        // `mapreduce.threads` workers route their FFTs through thread-local
        // spectral workspaces (buffers recycled across the worker's pairs),
        // and every plan comes from the process-wide tables.
        let input = summaries.len();
        let quarantined_before = stats.quarantined_pairs;
        let (detections, checkpoint_outcome) = {
            let _span = tracer.span("detect");
            detect(self, summaries, &mut stats, &mut faults)?
        };
        stats.periodic = detections.len();
        let quarantined = stats.quarantined_pairs - quarantined_before;
        let dropped = input.saturating_sub(stats.periodic + quarantined);
        self.stage_counters(
            "04_periodicity",
            stats.periodic,
            &[("dropped", dropped), ("quarantined", quarantined)],
        );

        // ---- Filters 4–7: token filter, novelty, LM score, ranking. ----
        let novelty = &mut self.novelty;
        let (after_token_filter, after_novelty, ranked, report_cutoff) = funnel.rank(
            detections,
            |destination| popularity.popularity(destination),
            |pair| novelty.observe(pair).is_novel(),
            Some(&tracer),
        );
        stats.after_token_filter = after_token_filter;
        stats.after_novelty = after_novelty;
        stats.reported = report_cutoff;
        self.admit_drop("05_token_filter", stats.periodic, after_token_filter);
        self.admit_drop("06_novelty", after_token_filter, after_novelty);
        self.stage_counters(
            "07_lm_rank",
            stats.reported,
            &[("below_cutoff", ranked.len().saturating_sub(report_cutoff))],
        );

        // Fold completed stage spans into `span.*` timing histograms
        // (quarantined out of the deterministic export).
        drop(window_span);
        #[expect(
            clippy::expect_used,
            reason = "bucket bounds are compile-time literal constants; failure is a programming error, not an input condition"
        )]
        let span_buckets =
            Buckets::exponential(1_000, 4, 14).expect("static bucket layout is valid");
        for record in tracer.drain() {
            self.metrics
                .timing(&format!("span.{}", record.path), &span_buckets)
                .observe(record.duration_nanos);
        }

        Ok(AnalysisReport {
            stats,
            ranked,
            report_cutoff,
            popularity_total_sources: popularity.total_sources(),
            faults,
            malformed_samples: Vec::new(),
            checkpoint: checkpoint_outcome,
        })
    }

    /// The front half of [`Baywatch::analyze`]: popularity and filter 1 in
    /// one pass, then extraction at the detector's time scale. The raw
    /// records are freed here, before detection's working set is built.
    fn extract_window(&self, records: Vec<LogRecord>) -> Extracted {
        let mut popularity = {
            let _span = self.tracer.span("popularity");
            PopularityStats::from_records(&records)
        };
        let listed_pairs = {
            let _span = self.tracer.span("whitelist.global");
            self.list(&mut popularity)
        };
        let (summaries, faults) = {
            let _span = self.tracer.span("extract");
            self.extract(&records, &popularity, self.config.detector.time_scale)
        };
        Extracted {
            events: records.len(),
            popularity,
            listed_pairs,
            summaries,
            faults,
        }
    }

    /// Filter 1 over `popularity`, one verdict per distinct destination;
    /// returns the number of distinct pairs to listed destinations.
    pub(crate) fn list(&self, popularity: &mut PopularityStats) -> usize {
        popularity.list(|d| self.funnel.globally_whitelisted(d))
    }

    /// Data extraction (§VII-A) at `scale` of the lines to destinations
    /// `popularity` does not list.
    pub(crate) fn extract(
        &self,
        records: &[LogRecord],
        popularity: &PopularityStats,
        scale: u64,
    ) -> (Vec<ActivitySummary>, FaultReport) {
        jobs::extract_summaries(
            &self.engine,
            records,
            |d: &str| popularity.is_listed(d),
            scale,
            self.fault_plan.as_deref(),
        )
    }

    /// Rescaling & merging (§VII-B) of `summaries` to the detector's time
    /// scale, one summary per pair.
    pub(crate) fn rescale_and_merge(
        &self,
        summaries: &[&ActivitySummary],
    ) -> (Vec<ActivitySummary>, FaultReport) {
        jobs::rescale_and_merge(
            &self.engine,
            summaries,
            self.config.detector.time_scale,
            self.fault_plan.as_deref(),
        )
    }

    /// Records `stage.<stage>.admitted` plus the given extra counters.
    fn stage_counters(&self, stage: &str, admitted: usize, extras: &[(&str, usize)]) {
        self.metrics
            .counter(&format!("stage.{stage}.admitted"))
            .add(admitted as u64);
        for (name, value) in extras {
            self.metrics
                .counter(&format!("stage.{stage}.{name}"))
                .add(*value as u64);
        }
    }

    /// Records admitted/dropped counters for a simple filter stage.
    fn admit_drop(&self, stage: &str, input: usize, admitted: usize) {
        self.stage_counters(
            stage,
            admitted,
            &[("dropped", input.saturating_sub(admitted))],
        );
    }

    /// Filter 3 without a checkpoint: one detection job over every
    /// summary. It cannot fail.
    fn detect(
        &self,
        summaries: Vec<ActivitySummary>,
        stats: &mut FilterStats,
        faults: &mut FaultReport,
    ) -> Result<(Hits, Option<CheckpointOutcome>), Infallible> {
        let job = jobs::detect_beaconing(
            &self.engine,
            &summaries,
            &self.detector,
            self.fault_plan.as_deref(),
        );
        Ok((absorb(job, stats, faults), None))
    }

    /// Runs the detection job through the durable checkpoint machinery
    /// (see [`Baywatch::analyze_checkpointed`] for the contract).
    fn detect_checkpointed(
        &self,
        summaries: Vec<ActivitySummary>,
        stats: &mut FilterStats,
        faults: &mut FaultReport,
        spec: &CheckpointSpec,
    ) -> std::io::Result<(Hits, CheckpointOutcome)> {
        let plan = self.fault_plan.as_deref();
        let shards = checkpoint::plan_shards(summaries, spec.shard_size);
        let store = CheckpointStore::create(&spec.dir)?;
        let rng_seed = self.config.detector.permutation.seed;
        let run = CheckpointedRun {
            store: &store,
            fingerprint: checkpoint::run_fingerprint(rng_seed, &shards),
            rng_seed,
            resume: spec.resume,
            io_faults: plan,
            abort_after_shards: spec.abort_after_shards,
        };
        let outcome =
            jobs::detect_beaconing_checkpointed(&self.engine, &shards, &self.detector, plan, &run)?;
        let hits = absorb((outcome.outputs, outcome.faults), stats, faults);

        let dlq_entries = outcome.manifest.dlq.len();
        // Final-disposition DLQ counter: recorded once here — after the
        // shard sweep, outside any per-shard delta capture window — so a
        // resumed run and an uninterrupted run export identical values.
        // Registered only when the queue saw entries, so a clean
        // checkpointed run exports byte-identically to a plain one.
        if dlq_entries > 0 {
            self.metrics.counter("dlq.entries").add(dlq_entries as u64);
        }

        Ok((
            hits,
            CheckpointOutcome {
                resumed_shards: outcome.resumed_shards,
                executed_shards: outcome.executed_shards,
                total_shards: outcome.manifest.total_shards,
                load_warnings: outcome.load_warnings,
                write_warnings: outcome.write_warnings,
                interrupted: outcome.interrupted,
                dlq_entries,
            },
        ))
    }
}

/// A window once extraction has run: what filters 2–7 read.
pub(crate) struct Extracted {
    /// Raw events in the window.
    pub(crate) events: usize,
    /// The window's popularity, with filter 1's verdicts.
    pub(crate) popularity: PopularityStats,
    /// Distinct pairs to the destinations filter 1 lists.
    pub(crate) listed_pairs: usize,
    /// One summary per pair filter 1 keeps, at the detector's time scale.
    pub(crate) summaries: Vec<ActivitySummary>,
    /// What the jobs that built `summaries` dropped.
    pub(crate) faults: FaultReport,
}

/// Folds one detection job's rows and fault counts into the window's
/// funnel and fault report; returns the verified hits.
fn absorb(
    (rows, job_faults): (Vec<jobs::DetectRow>, FaultReport),
    stats: &mut FilterStats,
    faults: &mut FaultReport,
) -> Hits {
    stats.quarantined_pairs += job_faults.quarantined_keys + job_faults.quarantined_inputs;
    faults.absorb(&job_faults);
    rows.into_iter()
        .filter_map(|row| match row {
            jobs::DetectRow::Hit(hit) => Some(hit),
            jobs::DetectRow::Quiet(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(records: &mut Vec<LogRecord>, source: &str, domain: &str, period: u64, n: u64) {
        for i in 0..n {
            records.push(LogRecord::new(
                10_000 + i * period,
                source,
                domain,
                format!("{:x}", i * 2654435761 % 0xFFFFFF),
            ));
        }
    }

    fn human(records: &mut Vec<LogRecord>, source: &str, domain: &str, n: u64, seed: u64) {
        let mut t = 10_000u64;
        for i in 0..n {
            t += 1 + (seed * 7919 + i * i * 104_729) % 900;
            records.push(LogRecord::new(t, source, domain, "index"));
        }
    }

    /// Test config with the local whitelist effectively disabled: the test
    /// populations are tiny (a dozen hosts), so the paper's τ_P = 1% would
    /// whitelist every destination.
    fn quiet_config() -> BaywatchConfig {
        BaywatchConfig {
            local_tau: 0.9,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "detector.time_scale must be positive")]
    fn zero_time_scale_is_rejected_not_an_empty_window() {
        let mut config = quiet_config();
        config.detector.time_scale = 0;
        let _ = Baywatch::new(config);
    }

    #[test]
    fn detects_injected_beacon_and_ranks_it_first() {
        let mut records = Vec::new();
        beacon(&mut records, "victim", "qzkxwvbnmtr.com", 60, 120);
        for h in 0..12 {
            human(
                &mut records,
                &format!("host{h}"),
                &format!("site{h}.example.org"),
                40,
                h,
            );
        }
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze(records);
        assert!(report.stats.periodic >= 1);
        assert!(!report.ranked.is_empty());
        assert_eq!(report.ranked[0].case.pair.destination, "qzkxwvbnmtr.com");
        assert!(report.report_cutoff >= 1);
    }

    #[test]
    fn global_whitelist_removes_popular_destinations() {
        let mut records = Vec::new();
        beacon(&mut records, "host", "google.com", 60, 100); // whitelisted
        beacon(&mut records, "host", "qzkxwv.com", 60, 100);
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze(records.clone());
        assert_eq!(report.stats.pairs, 2);
        assert_eq!(report.stats.after_global_whitelist, 1);
        assert!(report
            .ranked
            .iter()
            .all(|c| c.case.pair.destination != "google.com"));

        // An organisation's own entry takes the other pair out as well.
        engine.global_whitelist_mut().insert("qzkxwv.com");
        let report = engine.analyze(records);
        assert_eq!(report.stats.pairs, 2);
        assert_eq!(report.stats.after_global_whitelist, 0);
    }

    #[test]
    fn local_whitelist_removes_org_wide_destinations() {
        let mut records = Vec::new();
        // 50 hosts all beacon to the same intranet updater: popularity 1.0.
        for h in 0..50 {
            beacon(
                &mut records,
                &format!("host{h}"),
                "intranet-update.corp",
                300,
                30,
            );
        }
        // One host beacons somewhere rare.
        beacon(&mut records, "victim", "rare-dest.biz", 60, 100);
        // 51 sources total: the updater has popularity 50/51, the rare
        // destination 1/51 ≈ 0.02, so τ_P = 5% separates them.
        let mut engine = Baywatch::new(BaywatchConfig {
            local_tau: 0.05,
            ..Default::default()
        });
        let report = engine.analyze(records);
        assert_eq!(report.stats.after_local_whitelist, 1);
        assert!(report
            .ranked
            .iter()
            .all(|c| c.case.pair.destination == "rare-dest.biz"));
    }

    #[test]
    fn token_filter_drops_update_checkers() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(LogRecord::new(
                10_000 + i * 600,
                "host",
                "updates.some-vendor.io",
                "update",
            ));
        }
        beacon(&mut records, "victim", "qzkxwv.net", 60, 100);
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze(records);
        assert!(report.stats.periodic >= 2);
        assert_eq!(report.stats.after_token_filter, 1);
        assert_eq!(report.ranked[0].case.pair.destination, "qzkxwv.net");
    }

    #[test]
    fn novelty_suppresses_repeat_reports_across_windows() {
        let mk = || {
            let mut records = Vec::new();
            beacon(&mut records, "victim", "qzkxwv.org", 60, 100);
            // A second source keeps the destination's popularity at 0.5 so
            // the (test-relaxed) local whitelist does not swallow it.
            human(&mut records, "bystander", "other-site.net", 30, 7);
            records
        };
        let mut engine = Baywatch::new(quiet_config());
        let first = engine.analyze(mk());
        assert_eq!(first.stats.after_novelty, 1);
        let second = engine.analyze(mk());
        assert_eq!(second.stats.after_novelty, 0);
        assert!(second.ranked.is_empty());
    }

    #[test]
    fn irregular_traffic_produces_no_cases() {
        let mut records = Vec::new();
        for h in 0..10 {
            human(
                &mut records,
                &format!("h{h}"),
                &format!("d{h}.example.net"),
                60,
                h + 100,
            );
        }
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze(records);
        assert_eq!(
            report.stats.periodic, 0,
            "irregular traffic must not verify"
        );
        assert!(report.ranked.is_empty());
    }

    #[test]
    fn stats_are_monotone_decreasing() {
        let mut records = Vec::new();
        beacon(&mut records, "v1", "qzkxwv.com", 60, 100);
        beacon(&mut records, "v2", "update-svc.example.com", 1800, 40);
        for h in 0..8 {
            human(&mut records, &format!("h{h}"), "rare-site.org", 50, h);
        }
        let mut engine = Baywatch::new(quiet_config());
        let r = engine.analyze(records);
        let s = r.stats;
        assert!(s.pairs <= s.events);
        assert!(s.after_global_whitelist <= s.pairs);
        assert!(s.after_local_whitelist <= s.after_global_whitelist);
        assert!(s.periodic <= s.after_local_whitelist);
        assert!(s.after_token_filter <= s.periodic);
        assert!(s.after_novelty <= s.after_token_filter);
        assert!(s.reported <= s.after_novelty);
    }

    #[test]
    fn clean_run_reports_no_faults() {
        let mut records = Vec::new();
        beacon(&mut records, "victim", "qzkxwv.com", 60, 100);
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze(records);
        assert!(report.faults.is_clean());
        assert_eq!(report.stats.quarantined_pairs, 0);
        assert_eq!(report.stats.skipped_events, 0);
        assert_eq!(report.stats.malformed_lines, 0);
    }

    #[test]
    fn armed_fault_plan_degrades_instead_of_panicking() {
        use crate::pair::CommunicationPair;
        let mk = || {
            let mut records = Vec::new();
            beacon(&mut records, "victim", "qzkxwv.com", 60, 100);
            beacon(&mut records, "other", "poison.example.net", 45, 50);
            records
        };
        let poison = format!(
            "{:?}",
            CommunicationPair::new("other", "poison.example.net")
        );
        let plan = Arc::new(FaultPlan::new().poison_key(&poison));
        let mut engine = Baywatch::new(quiet_config());
        engine.arm_fault_plan(Arc::clone(&plan));
        let report = engine.analyze(mk());
        assert!(plan.injected_faults() > 0);
        assert!(report.stats.quarantined_pairs >= 1);
        assert!(!report.faults.is_clean());
        assert!(report
            .ranked
            .iter()
            .any(|c| c.case.pair.destination == "qzkxwv.com"));
        assert!(report
            .ranked
            .iter()
            .all(|c| c.case.pair.destination != "poison.example.net"));

        // Disarmed, the same window runs clean again.
        engine.disarm_fault_plan();
        let clean = Baywatch::new(quiet_config()).analyze(mk());
        assert!(clean.faults.is_clean());
    }

    #[test]
    fn reduce_faults_cannot_reach_a_pair_filter_1_lists() {
        use crate::pair::CommunicationPair;
        let mut records = Vec::new();
        beacon(&mut records, "victim", "qzkxwv.com", 60, 100);
        beacon(&mut records, "host", "google.com", 60, 50);
        beacon(&mut records, "other", "google.com", 45, 20);
        let clean = Baywatch::new(quiet_config()).analyze(records.clone());
        assert_eq!(
            (clean.stats.pairs, clean.stats.after_global_whitelist),
            (3, 1)
        );

        // A poison key on a listed pair, and a poison line to it.
        let key = format!("{:?}", CommunicationPair::new("host", "google.com"));
        let line = format!("{:?}", records[100]);
        let plan = Arc::new(FaultPlan::new().poison_key(&key).poison_input(&line));
        let mut engine = Baywatch::new(quiet_config());
        engine.arm_fault_plan(Arc::clone(&plan));
        let report = engine.analyze(records);

        // The pair is never reduced: filter 1 drops it, nothing quarantines
        // it, and the funnel counts it as in a clean run.
        assert_eq!(report.stats.pairs, clean.stats.pairs);
        assert_eq!(report.stats.after_global_whitelist, 1);
        assert_eq!(report.stats.quarantined_pairs, 0);
        assert_eq!(report.faults.quarantined_keys, 0);
        // The map still sees the line first, skips it and says so.
        assert_eq!(report.faults.quarantined_inputs, 1);
        assert_eq!(report.stats.skipped_events, 1);
        assert!(plan.injected_faults() > 0);
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counters["stage.01_extract.admitted"], 3);
        assert_eq!(snap.counters["stage.01_extract.quarantined"], 0);
        assert_eq!(snap.counters["stage.01_extract.skipped_events"], 1);
        assert_eq!(snap.counters["stage.02_global_whitelist.dropped"], 2);
        assert_eq!(report.ranked, clean.ranked);
    }

    #[test]
    fn analyze_outcome_carries_malformed_tallies() {
        let mut records = Vec::new();
        beacon(&mut records, "victim", "qzkxwv.com", 60, 100);
        // A second source keeps qzkxwv.com's popularity below the local
        // whitelist threshold.
        human(&mut records, "bystander", "other-site.net", 30, 7);
        let mut data = Vec::new();
        crate::io::write_records(&mut data, &records).unwrap();
        data.extend_from_slice(b"garbled nonsense line\n");
        data.extend_from_slice(b"another bad one\n");
        let outcome = crate::io::read_records(data.as_slice()).unwrap();
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze_outcome(outcome);
        assert_eq!(report.stats.malformed_lines, 2);
        assert_eq!(report.malformed_samples.len(), 2);
        assert_eq!(report.stats.events, 130);
        assert!(report
            .ranked
            .iter()
            .any(|c| c.case.pair.destination == "qzkxwv.com"));
    }

    #[test]
    fn reported_slice_matches_cutoff() {
        let mut records = Vec::new();
        for i in 0..6 {
            beacon(
                &mut records,
                &format!("v{i}"),
                &format!("qz{i}kxwv.com"),
                60 + i * 30,
                80,
            );
        }
        let mut engine = Baywatch::new(quiet_config());
        let report = engine.analyze(records);
        assert_eq!(report.reported().len(), report.report_cutoff);
        assert!(report.report_cutoff <= report.ranked.len());
    }

    #[test]
    fn analyze_populates_stage_metrics() {
        use baywatch_obs::ManualClock;

        let mut records = Vec::new();
        beacon(&mut records, "victim", "qzkxwvbnmtr.com", 60, 120);
        for h in 0..6 {
            human(
                &mut records,
                &format!("host{h}"),
                &format!("site{h}.example.org"),
                40,
                h,
            );
        }
        let mut engine = Baywatch::with_clock(quiet_config(), Arc::new(ManualClock::new()));
        let report = engine.analyze(records);

        let snap = engine.metrics_snapshot();
        assert_eq!(
            snap.counters["pipeline.events"] as usize,
            report.stats.events
        );
        assert_eq!(snap.counters["pipeline.pairs"] as usize, report.stats.pairs);
        assert_eq!(
            snap.counters["stage.04_periodicity.admitted"] as usize,
            report.stats.periodic
        );
        assert_eq!(
            snap.counters["stage.07_lm_rank.admitted"] as usize,
            report.stats.reported
        );
        assert!(snap.counters["detector.pairs_analyzed"] >= 1);
        assert!(snap.counters["mapreduce.jobs"] >= 2);

        // Spans were drained into `span.*` timing histograms, which the
        // deterministic export must not contain.
        assert!(snap.timings.keys().any(|k| k == "span.analyze"));
        assert!(snap.timings.keys().any(|k| k == "span.analyze.detect"));
        let golden = snap.to_json();
        assert!(!golden.contains("span."));
        assert!(!golden.contains("timings"));
        assert!(golden.contains("stage.02_global_whitelist.admitted"));
    }
}
