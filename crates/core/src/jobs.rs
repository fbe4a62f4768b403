//! The pipeline phases expressed as MapReduce jobs (§VII of the paper).
//!
//! Each phase is a modularized job so long windows can be re-analyzed
//! without reprocessing raw logs:
//!
//! * **Data extraction** (§VII-A), [`extract_summaries`]:
//!   `⟨k, l⟩ → ⟨H(s,d), (s,d,ts)⟩` then reduce to per-pair
//!   [`ActivitySummary`]s of the pairs filter 1 keeps — the shuffle carries
//!   keys and values *borrowed* from the window's records (a private
//!   `PairKey` and `(timestamp, url token)`), so a log line costs no
//!   `String` and a pair is owned once, in the reducer,
//! * **Rescaling & merging** (§VII-B), [`rescale_and_merge`]: coarsen
//!   summaries and merge per-pair histories,
//! * **Beaconing detection** (§VII-D), [`detect_beaconing`] and its
//!   durable form [`detect_beaconing_checkpointed`]: run the periodicity
//!   detector per pair in the reduce step; summaries are shuffled by
//!   reference and cloned only into a [`DetectRow::Hit`], the paper's
//!   `⟨AS, CP⟩` record.
//!
//! (Destination popularity, §VII-C, is a pass in [`crate::popularity`], not
//! a job; ranking, §VII-E, lives in [`crate::rank`].)
//!
//! Every job is one call of the engine's single execution body
//! ([`MapReduce::run`]), so a panicking mapper or reducer is bisected and
//! quarantined instead of tearing down the window.
//! Each job borrows its inputs, takes an optional [`FaultPlan`] (the
//! robustness tests' deterministic fault-injection checkpoints; `None`
//! outside the harness), and returns its [`FaultReport`] so the caller can
//! record what was dropped.

use std::collections::{BTreeMap, BTreeSet};

use baywatch_mapreduce::{
    CheckpointedRun, DlqEntry, FaultPlan, FaultReport, MapReduce, ShardedOutcome,
};
use baywatch_timeseries::detector::PeriodicityDetector;
use baywatch_timeseries::CandidatePeriod;

use crate::activity::ActivitySummary;
use crate::pair::CommunicationPair;
use crate::record::LogRecord;

/// Data-extraction job: raw records → one [`ActivitySummary`] per
/// communication pair at time scale `scale`.
///
/// MAP emits each record's `(timestamp, url token)` keyed by `(s, d)`, all
/// borrowed from `records` — none for a `listed` `d`, asked after the fault
/// checkpoint; REDUCE sorts each group's timestamps and produces the
/// summary. Output order is deterministic (partition, then pair). Poison
/// records are quarantined and poison pairs dropped.
pub fn extract_summaries(
    engine: &MapReduce,
    records: &[LogRecord],
    listed: impl Fn(&str) -> bool + Sync,
    scale: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<ActivitySummary>, FaultReport) {
    engine.run(
        records,
        |record, emit| {
            if let Some(plan) = plan {
                plan.map_checkpoint(record);
            }
            if listed(&record.domain) {
                return;
            }
            let key = PairKey {
                source: &record.source,
                destination: &record.domain,
            };
            emit(key, (record.timestamp, record.url_token.as_str()));
        },
        |key: &PairKey<'_>, events: &[(u64, &str)]| {
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
/// A summary whose scale does not divide `new_scale` is dropped, not
/// fatal; daily summaries are at scale 1, which divides every positive
/// scale.
pub fn rescale_and_merge(
    engine: &MapReduce,
    summaries: &[&ActivitySummary],
    new_scale: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<ActivitySummary>, FaultReport) {
    engine.run(
        summaries,
        |summary, emit| {
            if let Some(plan) = plan {
                plan.map_checkpoint(&summary.pair);
            }
            if let Ok(rescaled) = summary.rescale(new_scale) {
                emit(&summary.pair, rescaled);
            }
        },
        |pair, group: &[ActivitySummary]| {
            if let Some(plan) = plan {
                plan.reduce_checkpoint(pair);
            }
            // Same pair and scale by construction.
            let merged = group.split_first().map(|(first, rest)| {
                rest.iter()
                    .fold(first.clone(), |a, s| a.merge(s).unwrap_or(a))
            });
            merged.into_iter().collect()
        },
    )
}

/// What one detection run concluded about a pair's series.
#[derive(Debug, Clone)]
pub(crate) enum Verdict {
    /// At least one verified candidate period, strongest first.
    Periodic(Vec<CandidatePeriod>),
    /// Analyzed and not periodic — including series the detector refuses
    /// outright (too few events, zero span, …): "not a beacon candidate".
    Quiet,
}

/// Runs the detector over one series through the calling thread's
/// spectral workspace. The one place a detector outcome becomes a funnel
/// verdict: the batch jobs and the streaming engine both come through
/// here.
pub(crate) fn detect_verdict(detector: &PeriodicityDetector, timestamps: &[u64]) -> Verdict {
    match detector.detect(timestamps) {
        Ok(report) if report.is_periodic() => Verdict::Periodic(report.candidates),
        Ok(_) | Err(_) => Verdict::Quiet,
    }
}

/// One output row of the detection jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectRow {
    /// A pair with at least one verified candidate period: the paper's
    /// `⟨AS, CP⟩` — the activity summary and its candidate periods.
    Hit((ActivitySummary, Vec<CandidatePeriod>)),
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
            DetectRow::Hit((summary, _)) => &summary.pair,
            DetectRow::Quiet(pair) => pair,
        }
    }
}

/// Detection map step, shared by [`detect_beaconing`] and
/// [`detect_beaconing_checkpointed`]: key each summary by its pair.
fn detect_map<'a>(
    plan: Option<&FaultPlan>,
    summary: &'a ActivitySummary,
    emit: &mut dyn FnMut(&'a CommunicationPair, &'a ActivitySummary),
) {
    if let Some(plan) = plan {
        plan.map_checkpoint(&summary.pair);
    }
    emit(&summary.pair, summary);
}

/// Detection reduce step, shared like [`detect_map`]: run every summary of
/// one pair's group.
fn detect_group(
    detector: &PeriodicityDetector,
    plan: Option<&FaultPlan>,
    pair: &CommunicationPair,
    group: &[&ActivitySummary],
) -> Vec<DetectRow> {
    if let Some(plan) = plan {
        plan.reduce_checkpoint(pair);
    }
    // A group holds every summary keyed to one pair (several when upstream
    // produced per-window summaries of the same pair).
    let mut out = Vec::new();
    for summary in group {
        if let Verdict::Periodic(candidates) = detect_verdict(detector, &summary.timestamps()) {
            out.push(DetectRow::Hit(((*summary).clone(), candidates)));
        }
    }
    if out.is_empty() {
        out.push(DetectRow::Quiet(pair.clone()));
    }
    out
}

/// Beaconing-detection job: runs the periodicity detector on each summary
/// in parallel and yields one or more [`DetectRow`]s per pair — a
/// [`DetectRow::Hit`] carries the paper's `⟨AS, CP⟩` output.
///
/// A pair's work is bounded by its series length, which
/// [`DetectorConfig::max_bins`](baywatch_timeseries::DetectorConfig::max_bins)
/// caps. A pair whose detection panics costs that pair, not the window:
/// it is counted in the [`FaultReport`] and has no row at all.
///
/// The reduce phase runs on at most `engine`'s
/// [`JobConfig::threads`](baywatch_mapreduce::JobConfig::threads) workers,
/// each claiming whole partitions; every reduce invocation goes through
/// its worker's
/// [`SpectralWorkspace`](baywatch_timeseries::workspace::SpectralWorkspace),
/// so transform buffers are recycled across every pair and permutation
/// round that worker processes in the job, and FFT plans come from the
/// process-wide tables, built once per process however many windows and
/// workers follow.
pub fn detect_beaconing(
    engine: &MapReduce,
    summaries: &[ActivitySummary],
    detector: &PeriodicityDetector,
    plan: Option<&FaultPlan>,
) -> (Vec<DetectRow>, FaultReport) {
    engine.run(
        summaries,
        |summary, emit| detect_map(plan, summary, emit),
        |pair, group| detect_group(detector, plan, pair, group),
    )
}

/// Checkpointed beaconing detection: [`detect_beaconing`] run
/// shard-by-shard through [`MapReduce::run_sharded_checkpointed`],
/// persisting each completed shard (rows, fault report, metric deltas) to
/// `run`'s [`CheckpointStore`](baywatch_mapreduce::CheckpointStore) and
/// recording each input pair of a shard that produced no row at all (its
/// reducer panicked and the engine quarantined it) as a dead-letter-queue
/// entry.
///
/// # Errors
///
/// Propagates checkpoint-store I/O errors from
/// [`MapReduce::run_sharded_checkpointed`].
pub fn detect_beaconing_checkpointed(
    engine: &MapReduce,
    shards: &[Vec<ActivitySummary>],
    detector: &PeriodicityDetector,
    plan: Option<&FaultPlan>,
    run: &CheckpointedRun<'_>,
) -> std::io::Result<ShardedOutcome<DetectRow>> {
    engine.run_sharded_checkpointed(
        shards,
        run,
        |summary, emit| detect_map(plan, summary, emit),
        |pair, group| detect_group(detector, plan, pair, group),
        crate::checkpoint::encode_rows,
        crate::checkpoint::decode_rows,
        dlq_entries_for_shard,
    )
}

/// A completed shard's quarantined pairs as DLQ entries (see
/// [`detect_beaconing_checkpointed`]). Entries carry the pair's summaries
/// as a payload, the evidence to reproduce the poison pair offline.
fn dlq_entries_for_shard(
    shard_id: usize,
    inputs: &[ActivitySummary],
    outputs: &[DetectRow],
) -> Vec<DlqEntry> {
    let completed: BTreeSet<&CommunicationPair> = outputs.iter().map(DetectRow::pair).collect();
    let mut by_pair: BTreeMap<&CommunicationPair, Vec<ActivitySummary>> = BTreeMap::new();
    for summary in inputs {
        if !completed.contains(&summary.pair) {
            by_pair
                .entry(&summary.pair)
                .or_default()
                .push(summary.clone());
        }
    }
    by_pair
        .into_iter()
        .map(|(pair, summaries)| DlqEntry {
            key: format!("{pair:?}"),
            shard: shard_id,
            payload: crate::checkpoint::encode_summaries(&summaries),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use baywatch_mapreduce::{partition_of, CheckpointStore, JobConfig};
    use baywatch_stats::rng::{forall, Rng};
    use baywatch_timeseries::detector::DetectorConfig;

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

    /// Extraction of clean input.
    fn extract(records: &[LogRecord], scale: u64) -> Vec<ActivitySummary> {
        let (summaries, report) =
            extract_summaries(&engine(), records, |_: &str| false, scale, None);
        assert!(report.is_clean());
        summaries
    }

    /// Detection with the default detector.
    fn detect(
        summaries: &[ActivitySummary],
        plan: Option<&FaultPlan>,
    ) -> (crate::funnel::Hits, FaultReport) {
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let (rows, report) = detect_beaconing(&engine(), summaries, &detector, plan);
        let hits = rows
            .into_iter()
            .filter_map(|row| match row {
                DetectRow::Hit(hit) => Some(hit),
                DetectRow::Quiet(_) => None,
            })
            .collect();
        (hits, report)
    }

    #[test]
    fn extraction_groups_by_pair() {
        let mut records = beacon_records("a", "x.com", 60, 10);
        records.extend(beacon_records("a", "y.com", 30, 5));
        records.extend(beacon_records("b", "x.com", 45, 7));
        let summaries = extract(&records, 1);
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

    /// Up to 7 characters, half of them ASCII (quotes, escapes and
    /// control characters included), the rest anywhere in Unicode.
    fn any_string(rng: &mut Rng) -> String {
        let len = rng.random_range(0..8);
        (0..len)
            .map(|_| {
                let top = if rng.random_range(0..2) == 0 {
                    0x7F
                } else {
                    0x10_FFFF
                };
                char::from_u32(rng.random_range(0..=top)).unwrap_or('\u{FFFD}')
            })
            .collect()
    }

    #[test]
    fn pair_key_mirrors_communication_pair_for_any_strings() {
        forall(256, 1, |rng| {
            let a = (any_string(rng), any_string(rng));
            let b = (any_string(rng), any_string(rng));
            assert_key_mirrors_pair(&a, &b);
            // Same source, so the destination decides.
            assert_key_mirrors_pair(&a, &(a.0.clone(), b.1.clone()));
        });
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
        assert_eq!(extract(&records, 60), expected);
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
        let (summaries, report) =
            extract_summaries(&engine(), &records, |_: &str| false, 1, Some(&plan));
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
        assert_eq!(extract(&records, 1), extract(&records, 1));
    }

    #[test]
    fn rescale_and_merge_combines_days() {
        // Same pair split across two "days".
        let day2: Vec<LogRecord> = (0..10)
            .map(|i| LogRecord::new(100_000 + i * 600, "a", "x.com", "tok"))
            .collect();
        let mut all = extract(&beacon_records("a", "x.com", 600, 10), 1);
        all.extend(extract(&day2, 1));
        assert_eq!(all.len(), 2);
        let all: Vec<&ActivitySummary> = all.iter().collect();
        let (merged, faults) = rescale_and_merge(&engine(), &all, 60, None);
        assert!(faults.is_clean());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].scale, 60);
        assert_eq!(merged[0].request_count(), 20);
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
        let (hits, report) = detect(&extract(&records, 1), None);
        assert!(report.is_clean());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.pair.destination, "evil.com");
        assert!((hits[0].1[0].period - 60.0).abs() < 3.0);
    }

    #[test]
    fn detection_job_skips_tiny_pairs() {
        let records = beacon_records("a", "x.com", 60, 3); // below min_events
        let (hits, _) = detect(&extract(&records, 1), None);
        assert!(hits.is_empty());
    }

    #[test]
    fn batch_and_stream_share_one_verdict_mapping() {
        let beacon: Vec<u64> = (0..100).map(|i| 10_000 + i * 60).collect();
        let too_few = beacon[..3].to_vec();
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        for (timestamps, expect_periodic) in [(&beacon, true), (&too_few, false)] {
            // What a stream tick calls on a stale pair's quantized ring.
            let direct = detect_verdict(&detector, timestamps);

            let records: Vec<LogRecord> = timestamps
                .iter()
                .map(|&t| LogRecord::new(t, "h", "d.test", "a1b2c3"))
                .collect();
            let summary = ActivitySummary::from_records(&records, 1).unwrap();
            let (rows, faults) = detect_beaconing(
                &MapReduce::default(),
                std::slice::from_ref(&summary),
                &detector,
                None,
            );
            assert!(faults.is_clean());
            assert_eq!(rows.len(), 1);

            match (direct, &rows[0]) {
                (Verdict::Periodic(candidates), DetectRow::Hit(hit)) if expect_periodic => {
                    assert_eq!(*hit, (summary, candidates));
                }
                (Verdict::Quiet, DetectRow::Quiet(_)) if !expect_periodic => {}
                other => panic!("callers disagree or verdict unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn extraction_quarantines_poison_pair_and_keeps_the_rest() {
        let mut records = beacon_records("a", "x.com", 60, 10);
        records.extend(beacon_records("bad", "evil.com", 30, 5));
        let poison = format!("{:?}", CommunicationPair::new("bad", "evil.com"));
        let plan = FaultPlan::new().poison_key(&poison);
        let (summaries, report) =
            extract_summaries(&engine(), &records, |_: &str| false, 1, Some(&plan));
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].pair, CommunicationPair::new("a", "x.com"));
        assert_eq!(report.quarantined_keys, 1);
        assert_eq!(report.lost_values, 5);
        assert!(plan.injected_faults() > 0);
    }

    #[test]
    fn extraction_absorbs_a_one_shot_map_fault_by_bisection() {
        let records = beacon_records("a", "x.com", 60, 10);
        let plan = FaultPlan::new().panic_on_map_call(3);
        let (summaries, report) =
            extract_summaries(&engine(), &records, |_: &str| false, 1, Some(&plan));
        assert_eq!(summaries, extract(&records, 1));
        assert!(report.map_bisections >= 1);
        assert_eq!(report.quarantined_inputs, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn listed_destinations_are_skipped_after_the_map_checkpoint() {
        let mut records = beacon_records("a", "x.com", 60, 10);
        records.extend(beacon_records("a", "listed.com", 30, 5));
        records.extend(beacon_records("b", "x.com", 45, 7));
        records.extend(beacon_records("b", "listed.com", 90, 3));

        // One worker numbers the map calls in record order.
        let serial = MapReduce::new(JobConfig {
            partitions: 8,
            threads: 1,
        });
        let run = |listing: bool, plan: &FaultPlan| {
            let listed = |d: &str| listing && d == "listed.com";
            let out = extract_summaries(&serial, &records, listed, 1, Some(plan));
            (out, plan.injected_faults())
        };
        let keep = |summaries: &[ActivitySummary]| -> Vec<ActivitySummary> {
            summaries
                .iter()
                .filter(|s| s.pair.destination != "listed.com")
                .cloned()
                .collect()
        };

        // Whichever record the n-th map call is, it is the same one (and
        // the same fault) with or without listed destinations — listed
        // lines included, down to the last line of the window.
        for n in 0..records.len() {
            let ((all, all_faults), all_fired) = run(false, &FaultPlan::new().panic_on_map_call(n));
            let ((kept, kept_faults), kept_fired) =
                run(true, &FaultPlan::new().panic_on_map_call(n));
            assert_eq!((all_fired, kept_fired), (1, 1), "map call {n}");
            assert_eq!(kept_faults, all_faults, "map call {n}");
            assert_eq!(all.len(), 4);
            assert_eq!(kept, keep(&all), "map call {n}");
        }

        // A poisoned line to a listed destination is still quarantined.
        let poison = format!("{:?}", records[12]);
        let ((all, all_faults), _) = run(false, &FaultPlan::new().poison_input(&poison));
        let ((kept, kept_faults), _) = run(true, &FaultPlan::new().poison_input(&poison));
        assert_eq!(all_faults.quarantined_inputs, 1);
        assert_eq!(kept_faults, all_faults);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept, keep(&all));
    }

    #[test]
    fn detection_quarantines_poison_pair_and_keeps_the_rest() {
        let mut records = beacon_records("infected", "evil.com", 60, 100);
        records.extend(beacon_records("other", "beacon.net", 45, 100));
        let poison = format!("{:?}", CommunicationPair::new("other", "beacon.net"));
        let plan = FaultPlan::new().poison_key(&poison);
        let (hits, report) = detect(&extract(&records, 1), Some(&plan));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.pair.destination, "evil.com");
        assert_eq!(report.quarantined_keys, 1);
    }

    /// Rows of an unplanned detection run.
    fn plain_rows(summaries: &[ActivitySummary]) -> Vec<DetectRow> {
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let (rows, report) = detect_beaconing(&engine(), summaries, &detector, None);
        assert!(report.is_clean(), "{report:?}");
        rows
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("baywatch-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The checkpointed job over `shards` with a fresh store under `dir`.
    fn detect_checkpointed(
        dir: &std::path::Path,
        shards: &[Vec<ActivitySummary>],
        plan: Option<&FaultPlan>,
    ) -> ShardedOutcome<DetectRow> {
        let store = CheckpointStore::create(dir).unwrap();
        let run = CheckpointedRun {
            store: &store,
            fingerprint: 1,
            rng_seed: 0,
            resume: false,
            io_faults: None,
            abort_after_shards: None,
        };
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        detect_beaconing_checkpointed(&engine(), shards, &detector, plan, &run).unwrap()
    }

    #[test]
    fn checkpointed_detection_of_one_shard_matches_plain_detection() {
        // A hit, the sparse 2 333 s pair and two quiet pairs.
        let mut records = beacon_records("infected", "evil.com", 60, 100);
        records.extend(beacon_records("tiny", "x.com", 60, 3));
        records.extend(
            (0..300u64).map(|i| LogRecord::new(50_000 + i * 2_333, "slowpoke", "weird.biz", "x")),
        );
        records.extend(
            (0..50u64).map(|i| LogRecord::new(1_000 + (i * i * 37) % 50_000, "clean", "n.com", "")),
        );
        let summaries = extract(&records, 1);
        let plain = plain_rows(&summaries);
        assert_eq!(plain.len(), 4);

        let dir = scratch_dir("one-shard");
        let outcome = detect_checkpointed(&dir, &[summaries], None);
        assert_eq!(outcome.outputs, plain);
        assert!(outcome.faults.is_clean());
        assert_eq!(outcome.executed_shards, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dlq_holds_the_pairs_that_produced_no_row() {
        let s = |src: &str, dst: &str| {
            ActivitySummary::from_records(&beacon_records(src, dst, 60, 5), 1).unwrap()
        };
        let ok = s("h", "fine.test");
        let poisoned = s("h", "poison.test");
        let inputs = vec![ok.clone(), poisoned.clone()];
        // `ok` completed quiet; the poisoned pair produced no row at all.
        let outputs = vec![DetectRow::Quiet(ok.pair.clone())];
        let entries = dlq_entries_for_shard(3, &inputs, &outputs);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].key.contains("poison.test"));
        assert_eq!(entries[0].shard, 3);
        // The payload decodes back to the pair's summaries.
        let payload = crate::checkpoint::decode_summaries(&entries[0].payload).unwrap();
        assert_eq!(payload, vec![poisoned]);
    }
}
