//! The pipeline phases expressed as MapReduce jobs (§VII of the paper).
//!
//! Each phase is a modularized job so long windows can be re-analyzed
//! without reprocessing raw logs:
//!
//! * **Data extraction** (§VII-A): `⟨k, l⟩ → ⟨H(s,d), (s,d,ts)⟩` then
//!   reduce to per-pair [`ActivitySummary`]s — the shuffle carries keys and
//!   values *borrowed* from the window's records (a private `PairKey` and
//!   `(timestamp, url token)`), so a log line costs no `String` and a pair
//!   is owned once, in the reducer,
//! * **Rescaling & merging** (§VII-B): coarsen summaries and merge
//!   per-pair histories,
//! * **Beaconing detection** (§VII-D): run the periodicity detector per
//!   pair in the reduce step; summaries are shuffled by reference and
//!   cloned only into a [`DetectRow::Hit`].
//!
//! (Destination popularity, §VII-C, lives in [`crate::popularity`]; ranking,
//! §VII-E, in [`crate::rank`].)
//!
//! Every job runs on the fault-tolerant engine
//! ([`MapReduce::run_fault_tolerant`]): a panicking mapper or reducer is
//! retried, bisected, and quarantined instead of tearing down the window,
//! and each `*_ft` variant returns a [`FaultReport`] alongside its results
//! so the pipeline can record what was dropped. The plain-named wrappers
//! keep the original infallible signatures for callers that don't need the
//! report. An optional [`FaultPlan`] threads the deterministic
//! fault-injection checkpoints through each phase for the robustness tests.

use baywatch_mapreduce::{
    CheckpointedRun, DlqEntry, DlqReason, FaultPlan, FaultPolicy, FaultReport, MapReduce,
    ShardedOutcome,
};
use baywatch_timeseries::detector::{DetectionReport, PeriodicityDetector};
use baywatch_timeseries::workspace::with_thread_workspace;
use baywatch_timeseries::{BudgetSpec, TimeSeriesError};

use crate::activity::ActivitySummary;
use crate::pair::CommunicationPair;
use crate::record::LogRecord;

/// Data-extraction job: raw records → one [`ActivitySummary`] per
/// communication pair at time scale `scale`.
///
/// MAP emits each record's `(timestamp, url token)` keyed by `(s, d)`, all
/// borrowed from `records`; REDUCE sorts each group's timestamps and
/// produces the summary. Output order is deterministic (partition, then
/// pair).
pub fn extract_summaries(
    engine: &MapReduce,
    records: Vec<LogRecord>,
    scale: u64,
) -> Vec<ActivitySummary> {
    extract_summaries_ft(engine, records, scale, None).0
}

/// Fault-tolerant data extraction: like [`extract_summaries`], but survives
/// panicking tasks (poison records are quarantined, poison pairs dropped)
/// and reports what was lost. `plan` arms deterministic fault-injection
/// checkpoints; pass `None` outside the harness.
pub fn extract_summaries_ft(
    engine: &MapReduce,
    records: Vec<LogRecord>,
    scale: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<ActivitySummary>, FaultReport) {
    extract_summaries_ft_with_policy(engine, records, scale, plan, &FaultPolicy::default())
}

/// Like [`extract_summaries_ft`] with an explicit fault policy, so the
/// pipeline can arm per-task straggler deadlines
/// ([`FaultPolicy::task_deadline`]) on the extraction phase.
pub fn extract_summaries_ft_with_policy(
    engine: &MapReduce,
    records: Vec<LogRecord>,
    scale: u64,
    plan: Option<&FaultPlan>,
    policy: &FaultPolicy,
) -> (Vec<ActivitySummary>, FaultReport) {
    engine.run_fault_tolerant_with_policy(
        records.iter().collect(),
        |&record: &&LogRecord, emit| {
            if let Some(plan) = plan {
                plan.map_checkpoint(record);
            }
            let key = PairKey {
                source: &record.source,
                destination: &record.domain,
            };
            emit(key, (record.timestamp, record.url_token.as_str()));
        },
        move |key: &PairKey<'_>, events: &[(u64, &str)]| {
            if let Some(plan) = plan {
                plan.reduce_checkpoint(key);
            }
            let pair = CommunicationPair::new(key.source, key.destination);
            // Groups are non-empty by construction and `scale` is validated
            // upstream, but a degenerate group is skipped, not fatal.
            match ActivitySummary::from_events(pair, events, scale) {
                Ok(summary) => vec![summary],
                Err(_) => Vec::new(),
            }
        },
        policy,
    )
}

/// Shuffle key of the data-extraction job: a [`CommunicationPair`] borrowed
/// from the window's records.
///
/// The engine partitions by `Hash`, orders reduce groups by `Ord` and
/// samples quarantined keys (and matches [`FaultPlan`] poison keys) by
/// `Debug`. All three agree with `CommunicationPair` — same field order
/// for the derives, same struct name for `Debug` — so summary order and
/// fault reports are those of the owned key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PairKey<'a> {
    source: &'a str,
    destination: &'a str,
}

impl std::fmt::Debug for PairKey<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommunicationPair")
            .field("source", &self.source)
            .field("destination", &self.destination)
            .finish()
    }
}

/// Rescaling & merging job: coarsens every summary to `new_scale` and
/// merges summaries of the same pair (e.g. daily summaries into a weekly
/// one).
///
/// Summaries whose scale does not divide `new_scale` are passed through a
/// timestamp-level rebuild instead of failing, so mixed-scale input is
/// tolerated.
pub fn rescale_and_merge(
    engine: &MapReduce,
    summaries: Vec<ActivitySummary>,
    new_scale: u64,
) -> Vec<ActivitySummary> {
    rescale_and_merge_ft(engine, summaries, new_scale, None).0
}

/// Fault-tolerant rescaling & merging: like [`rescale_and_merge`], but a
/// summary that cannot be rescaled *or* rebuilt is dropped (not fatal), a
/// summary that cannot be merged is skipped from its group, and panicking
/// tasks are quarantined per the engine's policy.
pub fn rescale_and_merge_ft(
    engine: &MapReduce,
    summaries: Vec<ActivitySummary>,
    new_scale: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<ActivitySummary>, FaultReport) {
    engine.run_fault_tolerant(
        summaries,
        move |summary: &ActivitySummary, emit| {
            if let Some(plan) = plan {
                plan.map_checkpoint(&summary.pair);
            }
            let rescaled = match summary.rescale(new_scale) {
                Ok(s) => Some(s),
                Err(_) => {
                    // Mixed scales: rebuild from quantized timestamps.
                    let events: Vec<(u64, &str)> =
                        summary.timestamps().into_iter().map(|t| (t, "")).collect();
                    ActivitySummary::from_events(summary.pair.clone(), &events, new_scale)
                        .ok()
                        .map(|mut rebuilt| {
                            rebuilt.url_tokens = summary.url_tokens.clone();
                            rebuilt
                        })
                }
            };
            if let Some(rescaled) = rescaled {
                emit(rescaled.pair.clone(), rescaled);
            }
        },
        |pair, group: &[ActivitySummary]| {
            if let Some(plan) = plan {
                plan.reduce_checkpoint(pair);
            }
            let mut acc: Option<ActivitySummary> = None;
            for s in group {
                acc = match acc {
                    None => Some(s.clone()),
                    // Same pair and scale by construction; a summary that
                    // still refuses to merge is skipped, not fatal.
                    Some(a) => Some(a.merge(s).unwrap_or(a)),
                };
            }
            acc.into_iter().collect()
        },
    )
}

/// Beaconing-detection job: runs the periodicity detector on each summary
/// in parallel; yields `(summary, report)` for pairs with at least one
/// verified candidate period (the paper's `⟨AS, CP⟩` output).
///
/// Each reduce invocation runs through its worker thread's
/// [`SpectralWorkspace`](baywatch_timeseries::workspace::SpectralWorkspace),
/// so FFT plans are built once per thread per window and reused across
/// every pair and every permutation round that thread processes.
pub fn detect_beaconing(
    engine: &MapReduce,
    summaries: Vec<ActivitySummary>,
    detector: &PeriodicityDetector,
) -> Vec<(ActivitySummary, DetectionReport)> {
    detect_beaconing_ft(engine, summaries, detector, None).0
}

/// Fault-tolerant beaconing detection: like [`detect_beaconing`], but a
/// pair whose detection panics is quarantined (costing that pair, not the
/// window) and counted in the returned [`FaultReport`].
///
/// Runs each pair under the detector's own configured execution budget
/// ([`DetectorConfig::budget`](baywatch_timeseries::detector::DetectorConfig));
/// pairs that exhaust it are silently dropped here — use
/// [`detect_beaconing_budgeted_ft`] to observe them.
pub fn detect_beaconing_ft(
    engine: &MapReduce,
    summaries: Vec<ActivitySummary>,
    detector: &PeriodicityDetector,
    plan: Option<&FaultPlan>,
) -> (Vec<(ActivitySummary, DetectionReport)>, FaultReport) {
    let budget = detector.config().budget;
    let (rows, report) = detect_beaconing_budgeted_ft(
        engine,
        summaries,
        detector,
        budget,
        plan,
        &FaultPolicy::default(),
    );
    let hits = rows
        .into_iter()
        .filter_map(|row| match row {
            DetectRow::Hit(hit) => Some(*hit),
            DetectRow::TimedOut(_) | DetectRow::Quiet(_) => None,
        })
        .collect();
    (hits, report)
}

/// One output row of [`detect_beaconing_budgeted_ft`].
#[derive(Debug, Clone, PartialEq)]
pub enum DetectRow {
    /// A pair with at least one verified candidate period.
    Hit(Box<(ActivitySummary, DetectionReport)>),
    /// A pair whose detection exhausted its per-pair execution budget
    /// before completing; no verdict was reached.
    TimedOut(CommunicationPair),
    /// A pair whose detection completed with no verified period. Emitted so
    /// checkpointed runs can tell "analyzed, found quiet" apart from "never
    /// finished" — a pair with *no* row at all was quarantined by the
    /// engine and belongs in the dead-letter queue.
    Quiet(CommunicationPair),
}

impl DetectRow {
    /// The communication pair this row is about.
    pub fn pair(&self) -> &CommunicationPair {
        match self {
            DetectRow::Hit(hit) => &hit.0.pair,
            DetectRow::TimedOut(pair) | DetectRow::Quiet(pair) => pair,
        }
    }
}

/// Budget-aware fault-tolerant beaconing detection: each pair runs under a
/// fresh [`ExecBudget`](baywatch_timeseries::ExecBudget) armed from
/// `pair_budget`, so one pathological series is cut off at a kernel
/// checkpoint and surfaced as [`DetectRow::TimedOut`] instead of stalling
/// the window. `policy` additionally arms MapReduce-level straggler
/// deadlines ([`FaultPolicy::task_deadline`]).
///
/// With an unlimited `pair_budget` and default `policy` this is
/// byte-identical to [`detect_beaconing_ft`]: the budget checkpoints only
/// ever early-return and never perturb RNG streams or numerical state.
pub fn detect_beaconing_budgeted_ft(
    engine: &MapReduce,
    summaries: Vec<ActivitySummary>,
    detector: &PeriodicityDetector,
    pair_budget: BudgetSpec,
    plan: Option<&FaultPlan>,
    policy: &FaultPolicy,
) -> (Vec<DetectRow>, FaultReport) {
    engine.run_fault_tolerant_with_policy(
        summaries.iter().collect(),
        |&summary: &&ActivitySummary, emit| {
            if let Some(plan) = plan {
                plan.map_checkpoint(&summary.pair);
            }
            emit(&summary.pair, summary);
        },
        move |pair: &&CommunicationPair, group: &[&ActivitySummary]| {
            detect_group(detector, &pair_budget, plan, pair, group.iter().copied())
        },
        policy,
    )
}

/// Detection reduce step shared by the budgeted and checkpointed jobs: run
/// every summary of one pair's group under a fresh budget.
fn detect_group<'s>(
    detector: &PeriodicityDetector,
    pair_budget: &BudgetSpec,
    plan: Option<&FaultPlan>,
    pair: &CommunicationPair,
    group: impl Iterator<Item = &'s ActivitySummary>,
) -> Vec<DetectRow> {
    if let Some(plan) = plan {
        plan.reduce_checkpoint(pair);
    }
    with_thread_workspace(|ws| {
        let mut out = Vec::new();
        // A group holds every summary keyed to one pair (several
        // when upstream produced per-window summaries of the same
        // pair); emit at most one TimedOut row for the whole group
        // so the funnel counts pairs, not summaries.
        let mut timed_out = false;
        for summary in group {
            let timestamps = summary.timestamps();
            match detector.detect_budgeted_in(ws, &timestamps, &pair_budget.start()) {
                Ok(report) if report.is_periodic() => {
                    out.push(DetectRow::Hit(Box::new((summary.clone(), report))));
                }
                Ok(_) => {}
                Err(TimeSeriesError::BudgetExhausted) => {
                    if !timed_out {
                        out.push(DetectRow::TimedOut(summary.pair.clone()));
                        timed_out = true;
                    }
                }
                // Validation errors (too few events, zero span, …)
                // simply mean "not a beacon candidate".
                Err(_) => {}
            }
        }
        if out.is_empty() {
            out.push(DetectRow::Quiet(pair.clone()));
        }
        out
    })
}

/// Checkpointed beaconing detection: the budgeted job run shard-by-shard
/// through [`MapReduce::run_sharded_checkpointed`], persisting each
/// completed shard (rows, fault report, metric deltas) to `run`'s
/// [`CheckpointStore`](baywatch_mapreduce::CheckpointStore) and classifying
/// pairs that never completed into dead-letter-queue entries with failure
/// provenance.
///
/// DLQ classification per input pair of a shard:
/// * a [`DetectRow::TimedOut`] row → [`DlqReason::BudgetExhausted`] (the
///   per-pair kernel budget was exhausted; the pair is replayable under a
///   larger budget),
/// * no row at all and the pair's key appears in the shard's
///   `timeout_samples` → [`DlqReason::TimedOut`] (a straggler task hit the
///   MapReduce deadline),
/// * no row at all otherwise → [`DlqReason::Poison`] (the engine
///   quarantined it after `policy.max_task_retries` retries).
pub fn detect_beaconing_checkpointed_ft(
    engine: &MapReduce,
    shards: Vec<Vec<ActivitySummary>>,
    detector: &PeriodicityDetector,
    pair_budget: BudgetSpec,
    plan: Option<&FaultPlan>,
    policy: &FaultPolicy,
    run: &CheckpointedRun<'_>,
) -> std::io::Result<ShardedOutcome<DetectRow>> {
    let sample_limit = policy.sample_limit;
    let max_retries = policy.max_task_retries;
    engine.run_sharded_checkpointed(
        shards,
        run,
        policy,
        |summary: &ActivitySummary, emit| {
            if let Some(plan) = plan {
                plan.map_checkpoint(&summary.pair);
            }
            emit(summary.pair.clone(), summary.clone());
        },
        move |pair, group: &[ActivitySummary]| {
            detect_group(detector, &pair_budget, plan, pair, group.iter())
        },
        |rows: &[DetectRow]| crate::checkpoint::encode_rows(rows),
        |payload: &str| crate::checkpoint::decode_rows(payload),
        move |shard_id, inputs: &[ActivitySummary], outputs: &[DetectRow], faults: &FaultReport| {
            dlq_entries_for_shard(shard_id, inputs, outputs, faults, sample_limit, max_retries)
        },
    )
}

/// Classifies a completed shard's losses into DLQ entries (see
/// [`detect_beaconing_checkpointed_ft`] for the provenance rules). Entries
/// carry the pair's summaries as a replayable payload.
fn dlq_entries_for_shard(
    shard_id: usize,
    inputs: &[ActivitySummary],
    outputs: &[DetectRow],
    faults: &FaultReport,
    sample_limit: usize,
    max_retries: usize,
) -> Vec<DlqEntry> {
    use std::collections::{BTreeMap, BTreeSet};
    let completed: BTreeSet<&CommunicationPair> = outputs.iter().map(DetectRow::pair).collect();
    let budget_exhausted: BTreeSet<&CommunicationPair> = outputs
        .iter()
        .filter_map(|row| match row {
            DetectRow::TimedOut(pair) => Some(pair),
            _ => None,
        })
        .collect();
    let mut by_pair: BTreeMap<&CommunicationPair, Vec<ActivitySummary>> = BTreeMap::new();
    for summary in inputs {
        by_pair
            .entry(&summary.pair)
            .or_default()
            .push(summary.clone());
    }
    let mut entries = Vec::new();
    for (pair, summaries) in by_pair {
        let key = format!("{pair:?}");
        let (reason, retries, samples) = if budget_exhausted.contains(pair) {
            // The pair *completed* the shard with a verdictless row; it is
            // queued for replay under a larger budget, not lost.
            (DlqReason::BudgetExhausted, 0, Vec::new())
        } else if !completed.contains(pair) {
            if faults.timeout_samples.iter().any(|s| s == &key) {
                (DlqReason::TimedOut, 0, vec![key.clone()])
            } else {
                (
                    DlqReason::Poison,
                    max_retries,
                    faults
                        .panic_samples
                        .iter()
                        .take(sample_limit)
                        .cloned()
                        .collect(),
                )
            }
        } else {
            continue;
        };
        entries.push(DlqEntry {
            key,
            shard: shard_id,
            reason,
            retries,
            samples,
            payload: crate::checkpoint::encode_summaries(&summaries),
        });
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use baywatch_mapreduce::{partition_of, JobConfig};
    use baywatch_timeseries::detector::DetectorConfig;
    use proptest::prelude::*;

    fn engine() -> MapReduce {
        MapReduce::new(JobConfig {
            partitions: 8,
            threads: 4,
        })
    }

    fn beacon_records(source: &str, domain: &str, period: u64, n: u64) -> Vec<LogRecord> {
        (0..n)
            .map(|i| LogRecord::new(1_000 + i * period, source, domain, "tok"))
            .collect()
    }

    #[test]
    fn extraction_groups_by_pair() {
        let mut records = beacon_records("a", "x.com", 60, 10);
        records.extend(beacon_records("a", "y.com", 30, 5));
        records.extend(beacon_records("b", "x.com", 45, 7));
        let summaries = extract_summaries(&engine(), records, 1);
        assert_eq!(summaries.len(), 3);
        let ax = summaries
            .iter()
            .find(|s| s.pair == CommunicationPair::new("a", "x.com"))
            .unwrap();
        assert_eq!(ax.request_count(), 10);
        assert!(ax.intervals.iter().all(|&i| i == 60));
    }

    fn key_and_pair(names: &(String, String)) -> (PairKey<'_>, CommunicationPair) {
        let key = PairKey {
            source: &names.0,
            destination: &names.1,
        };
        (key, CommunicationPair::new(&names.0, &names.1))
    }

    /// Everything the engine asks of a shuffle key — partition, order,
    /// equality, `Debug` — answered alike by the borrowed and the owned key.
    fn assert_key_mirrors_pair(a: &(String, String), b: &(String, String)) {
        let ((ka, pa), (kb, pb)) = (key_and_pair(a), key_and_pair(b));
        for partitions in [1, 8, 32] {
            assert_eq!(partition_of(&ka, partitions), partition_of(&pa, partitions));
        }
        assert_eq!(ka.cmp(&kb), pa.cmp(&pb));
        assert_eq!(ka == kb, pa == pb);
        assert_eq!(format!("{ka:?}"), format!("{pa:?}"));
        assert_eq!(format!("{ka:#?}"), format!("{pa:#?}"));
    }

    #[test]
    fn pair_key_mirrors_communication_pair() {
        // Field boundaries, shared prefixes, escapes and empty strings.
        let names = [
            ("ab", "c"),
            ("a", "bc"),
            ("a", "b"),
            ("a", "b.com"),
            ("", ""),
            ("", "a"),
            ("02:00:\"aa\"", "evil\\.com\n"),
            ("höst", "日本.example"),
        ]
        .map(|(s, d)| (s.to_owned(), d.to_owned()));
        for a in &names {
            for b in &names {
                assert_key_mirrors_pair(a, b);
            }
        }
    }

    proptest! {
        #[test]
        fn pair_key_mirrors_communication_pair_for_any_strings(
            a in (any::<String>(), any::<String>()),
            b in (any::<String>(), any::<String>()),
        ) {
            assert_key_mirrors_pair(&a, &b);
            // Same source, so the destination decides.
            assert_key_mirrors_pair(&a, &(a.0.clone(), b.1.clone()));
        }
    }

    #[test]
    fn extraction_matches_grouping_by_hand() {
        use std::collections::BTreeMap;
        // Five pairs interleaved out of time order, with duplicate
        // timestamps, repeated and empty tokens.
        let mut records = Vec::new();
        for i in 0..40u64 {
            let t = 10_000 - (i * 7919) % 5_000;
            let token = ["", "a", "b"][(i % 3) as usize];
            records.push(LogRecord::new(t, "h1", "x.com", token));
            records.push(LogRecord::new(t + i % 2, "h2", "x.com", "a"));
            records.push(LogRecord::new(t / 2, "h1", "y.org", ""));
            if i % 4 == 0 {
                records.push(LogRecord::new(t, "h3", "z.net", token));
                records.push(LogRecord::new(t, "h3", "z.net", token));
            }
            if i == 17 {
                records.push(LogRecord::new(t, "h4", "once.io", "only"));
            }
        }
        let mut by_pair: BTreeMap<CommunicationPair, Vec<LogRecord>> = BTreeMap::new();
        for r in &records {
            by_pair
                .entry(CommunicationPair::new(&r.source, &r.domain))
                .or_default()
                .push(r.clone());
        }
        // Engine order: partition index, then pair.
        let mut expected: Vec<(usize, ActivitySummary)> = by_pair
            .iter()
            .map(|(pair, group)| {
                let summary = ActivitySummary::from_records(group, 60).unwrap();
                (partition_of(pair, 8), summary)
            })
            .collect();
        expected.sort_by_key(|(partition, _)| *partition);
        let expected: Vec<ActivitySummary> = expected.into_iter().map(|(_, s)| s).collect();
        assert_eq!(expected.len(), 5);
        assert_eq!(extract_summaries(&engine(), records, 60), expected);
    }

    #[test]
    fn quarantine_samples_render_like_the_owned_types() {
        let mut records = beacon_records("a", "x.com", 60, 10);
        records.extend(beacon_records("bad", "evil.com", 30, 5));
        records.push(LogRecord::new(7, "odd \"host\"", "p.com", "t"));
        let key = r#"CommunicationPair { source: "bad", destination: "evil.com" }"#;
        let input = concat!(
            r#"LogRecord { timestamp: 7, source: "odd \"host\"", "#,
            r#"domain: "p.com", url_token: "t" }"#
        );
        let plan = FaultPlan::new().poison_key(key).poison_input(input);
        let (summaries, report) = extract_summaries_ft(&engine(), records, 1, Some(&plan));
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].pair, CommunicationPair::new("a", "x.com"));
        assert_eq!(report.key_samples, [key]);
        assert_eq!(report.input_samples, [input]);
        assert_eq!(report.quarantined_keys, 1);
        assert_eq!(report.quarantined_inputs, 1);
        assert_eq!(report.lost_values, 5);
    }

    #[test]
    fn extraction_deterministic() {
        let records = beacon_records("a", "x.com", 60, 20);
        let s1 = extract_summaries(&engine(), records.clone(), 1);
        let s2 = extract_summaries(&engine(), records, 1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn rescale_and_merge_combines_days() {
        // Same pair split across two "days".
        let day1 = extract_summaries(&engine(), beacon_records("a", "x.com", 600, 10), 1);
        let day2: Vec<ActivitySummary> = extract_summaries(
            &engine(),
            (0..10)
                .map(|i| LogRecord::new(100_000 + i * 600, "a", "x.com", "tok"))
                .collect(),
            1,
        );
        let mut all = day1;
        all.extend(day2);
        assert_eq!(all.len(), 2);
        let merged = rescale_and_merge(&engine(), all, 60);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].scale, 60);
        assert_eq!(merged[0].request_count(), 20);
    }

    #[test]
    fn rescale_handles_mixed_scales() {
        let fine = extract_summaries(&engine(), beacon_records("a", "x.com", 600, 8), 1);
        let coarse = extract_summaries(&engine(), beacon_records("b", "y.com", 600, 8), 7);
        let mut all = fine;
        all.extend(coarse);
        // 60 is not a multiple of 7: the 7-scale summary is rebuilt.
        let out = rescale_and_merge(&engine(), all, 60);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|s| s.scale == 60));
    }

    #[test]
    fn detection_job_finds_beacon_pairs_only() {
        let mut records = beacon_records("infected", "evil.com", 60, 100);
        // Irregular traffic.
        for i in 0..50u64 {
            records.push(LogRecord::new(
                1_000 + (i * i * 37) % 50_000,
                "clean",
                "news.com",
                "index",
            ));
        }
        let summaries = extract_summaries(&engine(), records, 1);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let hits = detect_beaconing(&engine(), summaries, &detector);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.pair.destination, "evil.com");
        assert!((hits[0].1.best().unwrap().period - 60.0).abs() < 3.0);
    }

    #[test]
    fn detection_job_skips_tiny_pairs() {
        let records = beacon_records("a", "x.com", 60, 3); // below min_events
        let summaries = extract_summaries(&engine(), records, 1);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let hits = detect_beaconing(&engine(), summaries, &detector);
        assert!(hits.is_empty());
    }

    #[test]
    fn extraction_quarantines_poison_pair_and_keeps_the_rest() {
        let mut records = beacon_records("a", "x.com", 60, 10);
        records.extend(beacon_records("bad", "evil.com", 30, 5));
        let poison = format!("{:?}", CommunicationPair::new("bad", "evil.com"));
        let plan = FaultPlan::new().poison_key(&poison);
        let (summaries, report) = extract_summaries_ft(&engine(), records, 1, Some(&plan));
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].pair, CommunicationPair::new("a", "x.com"));
        assert_eq!(report.quarantined_keys, 1);
        assert_eq!(report.lost_values, 5);
        assert!(plan.injected_faults() > 0);
    }

    #[test]
    fn extraction_survives_transient_map_fault_without_loss() {
        let records = beacon_records("a", "x.com", 60, 10);
        let plan = FaultPlan::new().panic_on_map_call(3);
        let clean = extract_summaries(&engine(), records.clone(), 1);
        let (summaries, report) = extract_summaries_ft(&engine(), records, 1, Some(&plan));
        assert_eq!(summaries, clean);
        assert!(report.map_retries >= 1);
        assert_eq!(report.quarantined_inputs, 0);
    }

    #[test]
    fn detection_quarantines_poison_pair_and_keeps_the_rest() {
        let mut records = beacon_records("infected", "evil.com", 60, 100);
        records.extend(beacon_records("other", "beacon.net", 45, 100));
        let summaries = extract_summaries(&engine(), records, 1);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let poison = format!("{:?}", CommunicationPair::new("other", "beacon.net"));
        let plan = FaultPlan::new().poison_key(&poison);
        let (hits, report) = detect_beaconing_ft(&engine(), summaries, &detector, Some(&plan));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.pair.destination, "evil.com");
        assert_eq!(report.quarantined_keys, 1);
    }

    #[test]
    fn budgeted_detection_surfaces_timed_out_pairs() {
        let mut records = beacon_records("infected", "evil.com", 60, 100);
        // A sparse strided pair: ~700k bins at time scale 1, so the ops
        // ceiling below trips at the first kernel checkpoint.
        records.extend(
            (0..300u64).map(|i| LogRecord::new(50_000 + i * 2_333, "slowpoke", "weird.biz", "x")),
        );
        let summaries = extract_summaries(&engine(), records, 1);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let budget = BudgetSpec {
            max_ops: Some(500_000),
            ..Default::default()
        };
        let (rows, report) = detect_beaconing_budgeted_ft(
            &engine(),
            summaries,
            &detector,
            budget,
            None,
            &FaultPolicy::default(),
        );
        assert!(report.is_clean(), "a timeout is not a fault: {report:?}");
        let mut hits = 0;
        let mut timed_out = Vec::new();
        for row in rows {
            match row {
                DetectRow::Hit(hit) => {
                    hits += 1;
                    assert_eq!(hit.0.pair.destination, "evil.com");
                }
                DetectRow::TimedOut(pair) => timed_out.push(pair),
                DetectRow::Quiet(_) => {}
            }
        }
        assert_eq!(hits, 1);
        assert_eq!(
            timed_out,
            vec![CommunicationPair::new("slowpoke", "weird.biz")]
        );
    }

    #[test]
    fn pair_with_multiple_summaries_times_out_once() {
        // Two per-window summaries of the SAME sparse pair land in one
        // reduce group; both exhaust the budget, but the funnel must count
        // the pair once, not once per summary.
        let window = |offset: u64| -> Vec<LogRecord> {
            (0..300u64)
                .map(|i| LogRecord::new(offset + i * 2_333, "slowpoke", "weird.biz", "x"))
                .collect()
        };
        let summaries = vec![
            ActivitySummary::from_records(&window(50_000), 1).unwrap(),
            ActivitySummary::from_records(&window(5_000_000), 1).unwrap(),
        ];
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let budget = BudgetSpec {
            max_ops: Some(500_000),
            ..Default::default()
        };
        let (rows, report) = detect_beaconing_budgeted_ft(
            &engine(),
            summaries,
            &detector,
            budget,
            None,
            &FaultPolicy::default(),
        );
        assert!(report.is_clean(), "a timeout is not a fault: {report:?}");
        let timed_out: Vec<_> = rows
            .into_iter()
            .filter_map(|row| match row {
                DetectRow::TimedOut(pair) => Some(pair),
                DetectRow::Hit(_) | DetectRow::Quiet(_) => None,
            })
            .collect();
        assert_eq!(
            timed_out,
            vec![CommunicationPair::new("slowpoke", "weird.biz")],
            "one pair must yield exactly one TimedOut row"
        );
    }

    #[test]
    fn unlimited_budgeted_detection_matches_plain_detection() {
        let mut records = beacon_records("infected", "evil.com", 60, 100);
        records.extend(beacon_records("other", "beacon.net", 45, 100));
        let summaries = extract_summaries(&engine(), records, 1);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let plain = detect_beaconing(&engine(), summaries.clone(), &detector);
        let (rows, report) = detect_beaconing_budgeted_ft(
            &engine(),
            summaries,
            &detector,
            BudgetSpec::UNLIMITED,
            None,
            &FaultPolicy::default(),
        );
        assert!(report.is_clean());
        let hits: Vec<(ActivitySummary, DetectionReport)> = rows
            .into_iter()
            .filter_map(|row| match row {
                DetectRow::Hit(hit) => Some(*hit),
                DetectRow::TimedOut(pair) => panic!("unexpected timeout for {pair}"),
                DetectRow::Quiet(_) => None,
            })
            .collect();
        assert_eq!(hits, plain);
    }

    #[test]
    fn dlq_classification_distinguishes_failure_provenance() {
        let s = |src: &str, dst: &str| {
            ActivitySummary::from_records(&beacon_records(src, dst, 60, 5), 1).unwrap()
        };
        let ok = s("h", "fine.test");
        let exhausted = s("h", "slow.test");
        let poisoned = s("h", "poison.test");
        let straggler = s("h", "straggler.test");
        let inputs = vec![
            ok.clone(),
            exhausted.clone(),
            poisoned.clone(),
            straggler.clone(),
        ];
        // `ok` completed quiet, `exhausted` hit its kernel budget; the
        // other two produced no row at all.
        let outputs = vec![
            DetectRow::Quiet(ok.pair.clone()),
            DetectRow::TimedOut(exhausted.pair.clone()),
        ];
        let mut faults = FaultReport::default();
        faults.panic_samples.push("panicked: boom".to_string());
        faults.timeout_samples.push(format!("{:?}", straggler.pair));
        let entries = dlq_entries_for_shard(3, &inputs, &outputs, &faults, 8, 2);
        // Entries come out pair-sorted; `fine.test` produced no entry.
        let by_dst: Vec<(&str, DlqReason, usize)> = entries
            .iter()
            .map(|e| (e.key.as_str(), e.reason, e.retries))
            .collect();
        assert_eq!(entries.len(), 3);
        assert!(by_dst[0].0.contains("poison.test"));
        assert_eq!(by_dst[0].1, DlqReason::Poison);
        assert_eq!(by_dst[0].2, 2);
        assert_eq!(entries[0].samples, vec!["panicked: boom".to_string()]);
        assert!(by_dst[1].0.contains("slow.test"));
        assert_eq!(by_dst[1].1, DlqReason::BudgetExhausted);
        assert_eq!(by_dst[1].2, 0);
        assert!(by_dst[2].0.contains("straggler.test"));
        assert_eq!(by_dst[2].1, DlqReason::TimedOut);
        // Every payload replays: it decodes back to the pair's summaries.
        let replayed = crate::checkpoint::decode_summaries(&entries[1].payload).unwrap();
        assert_eq!(replayed, vec![exhausted]);
    }

    #[test]
    fn ft_jobs_with_no_plan_match_plain_jobs() {
        let mut records = beacon_records("a", "x.com", 60, 30);
        records.extend(beacon_records("b", "y.com", 90, 30));
        let plain = extract_summaries(&engine(), records.clone(), 1);
        let (ft, report) = extract_summaries_ft(&engine(), records, 1, None);
        assert_eq!(ft, plain);
        assert!(report.is_clean());

        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let plain_hits = detect_beaconing(&engine(), plain.clone(), &detector);
        let (ft_hits, report) = detect_beaconing_ft(&engine(), plain, &detector, None);
        assert_eq!(ft_hits, plain_hits);
        assert!(report.is_clean());
    }
}
