//! Checkpoint payload codecs and run configuration for durable hunts.
//!
//! An enterprise hunt over a month of logs (§V: ~30 B events) can run for
//! hours; losing the whole window to a reboot mid-run is unacceptable. The
//! durable-run machinery splits detection into shards and persists each
//! completed shard through [`baywatch_mapreduce::CheckpointStore`]; this
//! module owns the **payload codecs** — how detection rows and activity
//! summaries are rendered to the repo's zero-dependency stable-key-order
//! JSON and parsed back — plus the caller-facing [`CheckpointSpec`] and the
//! run fingerprint that guards a resume against configuration drift.
//!
//! Floating-point fields are persisted as raw `f64::to_bits` integers, not
//! decimal renderings, so a resumed run is *bit-identical* to the
//! uninterrupted one: every power, period and score survives the round
//! trip exactly, including negative zero and non-finite values. A hit row
//! is filter 3's whole record — the summary and its candidate periods — so
//! a decoded row equals the row that was encoded.

use std::path::PathBuf;

use baywatch_mapreduce::fnv1a64;
use baywatch_obs::json::{parse, JsonValue};
use baywatch_obs::JsonWriter;
use baywatch_timeseries::CandidatePeriod;

use crate::activity::ActivitySummary;
use crate::jobs::DetectRow;
use crate::pair::CommunicationPair;

/// Default number of communication pairs per checkpoint shard.
///
/// Small enough that an interrupt loses at most a few seconds of detector
/// work, large enough that manifest writes stay a rounding error next to
/// the FFT/permutation cost of a shard.
pub const DEFAULT_SHARD_SIZE: usize = 32;

/// Caller-facing configuration for a checkpointed analysis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding the run manifest and per-shard payloads.
    pub dir: PathBuf,
    /// Resume from an existing manifest in `dir` when one is present and
    /// compatible; a missing/corrupt/mismatched manifest degrades to a
    /// fresh run with a warning counter, never an error.
    pub resume: bool,
    /// Pairs per shard (clamped to at least 1).
    pub shard_size: usize,
    /// Test hook: simulate a kill after this many freshly executed shards.
    /// Production callers leave this `None`.
    pub abort_after_shards: Option<usize>,
}

impl CheckpointSpec {
    /// A fresh (non-resuming) spec rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            resume: false,
            shard_size: DEFAULT_SHARD_SIZE,
            abort_after_shards: None,
        }
    }
}

/// Operational summary of the checkpoint machinery for one analysis run.
///
/// These are process facts (how much work this invocation skipped or
/// redid), not data facts — a resumed run and an uninterrupted run of the
/// same window produce identical reports but different outcomes here, so
/// none of these fields participate in the deterministic JSON export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointOutcome {
    /// Shards restored from persisted checkpoints instead of re-executed.
    pub resumed_shards: usize,
    /// Shards executed (and checkpointed) by this invocation.
    pub executed_shards: usize,
    /// Total shards in the run plan.
    pub total_shards: usize,
    /// Unusable persisted state encountered (corrupt manifest or shard
    /// payload); each warning degraded to re-execution, not failure.
    pub load_warnings: usize,
    /// Checkpoint writes that failed; the run degraded those shards to
    /// in-memory execution.
    pub write_warnings: usize,
    /// Whether the run stopped early (test-only abort hook); the manifest
    /// on disk is consistent and a `resume` run will finish the plan.
    pub interrupted: bool,
    /// Dead-letter-queue entries (quarantined pairs) after the shard
    /// sweep.
    pub dlq_entries: usize,
}

fn write_f64_bits(w: &mut JsonWriter, value: f64) {
    w.uint(value.to_bits());
}

fn read_f64_bits(value: &JsonValue) -> Option<f64> {
    value.as_u64().map(f64::from_bits)
}

fn write_pair(w: &mut JsonWriter, pair: &CommunicationPair) {
    w.raw("{");
    w.key("destination");
    w.string(&pair.destination);
    w.key("source");
    w.string(&pair.source);
    w.raw("}");
    w.end_value();
}

fn write_summary(w: &mut JsonWriter, summary: &ActivitySummary) {
    w.raw("{");
    w.key("first_timestamp");
    w.uint(summary.first_timestamp);
    w.key("intervals");
    w.raw("[");
    for &iv in &summary.intervals {
        w.uint(iv);
    }
    w.raw("]");
    w.end_value();
    w.key("pair");
    write_pair(w, &summary.pair);
    w.key("scale");
    w.uint(summary.scale);
    w.key("url_tokens");
    w.raw("[");
    for token in &summary.url_tokens {
        w.string(token);
    }
    w.raw("]");
    w.end_value();
    w.raw("}");
    w.end_value();
}

fn read_pair(value: &JsonValue) -> Option<CommunicationPair> {
    Some(CommunicationPair::new(
        value.get("source")?.as_str()?,
        value.get("destination")?.as_str()?,
    ))
}

fn read_summary(value: &JsonValue) -> Option<ActivitySummary> {
    let intervals = value
        .get("intervals")?
        .as_array()?
        .iter()
        .map(JsonValue::as_u64)
        .collect::<Option<Vec<u64>>>()?;
    let url_tokens = value
        .get("url_tokens")?
        .as_array()?
        .iter()
        .map(|t| t.as_str().map(str::to_owned))
        .collect::<Option<std::collections::BTreeSet<String>>>()?;
    Some(ActivitySummary {
        pair: read_pair(value.get("pair")?)?,
        scale: value.get("scale")?.as_u64()?,
        first_timestamp: value.get("first_timestamp")?.as_u64()?,
        intervals,
        url_tokens,
    })
}

fn write_candidates(w: &mut JsonWriter, candidates: &[CandidatePeriod]) {
    w.raw("[");
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("{");
        w.key("acf_score");
        write_f64_bits(w, c.acf_score);
        w.key("frequency");
        write_f64_bits(w, c.frequency);
        w.key("p_value");
        match c.p_value {
            Some(p) => write_f64_bits(w, p),
            None => {
                w.raw("null");
                w.end_value();
            }
        }
        w.key("period");
        write_f64_bits(w, c.period);
        w.key("power");
        write_f64_bits(w, c.power);
        w.raw("}");
    }
    w.raw("]");
    w.end_value();
}

fn read_candidates(value: &JsonValue) -> Option<Vec<CandidatePeriod>> {
    let read_one = |c: &JsonValue| {
        Some(CandidatePeriod {
            frequency: read_f64_bits(c.get("frequency")?)?,
            period: read_f64_bits(c.get("period")?)?,
            power: read_f64_bits(c.get("power")?)?,
            acf_score: read_f64_bits(c.get("acf_score")?)?,
            p_value: match c.get("p_value")? {
                JsonValue::Null => None,
                other => Some(read_f64_bits(other)?),
            },
        })
    };
    value.as_array()?.iter().map(read_one).collect()
}

/// Renders a shard's detection rows as a JSON array (checkpoint payload).
pub fn encode_rows(rows: &[DetectRow]) -> String {
    let mut w = JsonWriter::new();
    w.raw("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("{");
        w.key("kind");
        match row {
            DetectRow::Hit((summary, candidates)) => {
                w.string("hit");
                w.key("candidates");
                write_candidates(&mut w, candidates);
                w.key("summary");
                write_summary(&mut w, summary);
            }
            DetectRow::Quiet(pair) => {
                w.string("quiet");
                w.key("pair");
                write_pair(&mut w, pair);
            }
        }
        w.raw("}");
    }
    w.raw("]");
    w.finish()
}

/// Parses a payload produced by [`encode_rows`]; `None` on any mismatch.
pub fn decode_rows(text: &str) -> Option<Vec<DetectRow>> {
    let doc = parse(text).ok()?;
    let mut rows = Vec::new();
    for item in doc.as_array()? {
        let row = match item.get("kind")?.as_str()? {
            "hit" => DetectRow::Hit((
                read_summary(item.get("summary")?)?,
                read_candidates(item.get("candidates")?)?,
            )),
            "quiet" => DetectRow::Quiet(read_pair(item.get("pair")?)?),
            _ => return None,
        };
        rows.push(row);
    }
    Some(rows)
}

/// Renders a DLQ payload: the quarantined pair's activity summaries.
pub fn encode_summaries(summaries: &[ActivitySummary]) -> String {
    let mut w = JsonWriter::new();
    w.raw("[");
    for (i, summary) in summaries.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        write_summary(&mut w, summary);
    }
    w.raw("]");
    w.finish()
}

/// Parses a payload produced by [`encode_summaries`].
pub fn decode_summaries(text: &str) -> Option<Vec<ActivitySummary>> {
    let doc = parse(text).ok()?;
    doc.as_array()?.iter().map(read_summary).collect()
}

/// Fingerprint binding a manifest to the run configuration that wrote it.
///
/// Covers everything that changes shard outputs: the permutation RNG seed
/// and the shard plan itself (ids, sizes, and every summary's rendered
/// content). A resume against a manifest with a different fingerprint
/// degrades to a fresh run.
pub fn run_fingerprint(rng_seed: u64, shards: &[Vec<ActivitySummary>]) -> u64 {
    let plan = baywatch_mapreduce::shard_plan_digest(shards);
    fnv1a64(format!("seed:{rng_seed};plan:{plan};").as_bytes())
}

/// Clamped shard plan: summaries in deterministic order, `shard_size` per
/// shard. The order (descending request count, pair as tie-break) puts
/// heavy pairs in early shards.
pub fn plan_shards(
    mut summaries: Vec<ActivitySummary>,
    shard_size: usize,
) -> Vec<Vec<ActivitySummary>> {
    summaries.sort_by(|a, b| {
        b.request_count()
            .cmp(&a.request_count())
            .then_with(|| a.pair.cmp(&b.pair))
    });
    summaries
        .chunks(shard_size.max(1))
        .map(<[ActivitySummary]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(src: &str, dst: &str, n: usize) -> ActivitySummary {
        ActivitySummary {
            pair: CommunicationPair::new(src, dst),
            scale: 1,
            first_timestamp: 1_000,
            intervals: (0..n).map(|i| 60 + (i as u64 % 3)).collect(),
            url_tokens: ["beacon", "gate.php"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    fn candidates() -> Vec<CandidatePeriod> {
        vec![
            CandidatePeriod {
                frequency: 1.0 / 60.0,
                period: 60.0,
                power: 12.5,
                acf_score: 0.91,
                p_value: Some(0.003),
            },
            CandidatePeriod {
                frequency: f64::from_bits(0x3FF0_0000_0000_0001),
                period: -0.0,
                power: 1e-300,
                acf_score: f64::NAN,
                p_value: None,
            },
        ]
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let rows = vec![
            DetectRow::Hit((summary("h1", "evil.test", 5), candidates())),
            DetectRow::Quiet(CommunicationPair::new("h2", "quiet.test")),
        ];
        let encoded = encode_rows(&rows);
        let decoded = decode_rows(&encoded).expect("payload parses");
        assert_eq!(decoded.len(), 2);
        match &decoded[0] {
            DetectRow::Hit((restored, found)) => {
                assert_eq!(*restored, summary("h1", "evil.test", 5));
                assert_eq!(found.len(), 2);
                assert_eq!(found[0], candidates()[0]);
                // Bit-exact floats, including NaN / -0.0 / subnormal range
                // (`==` on the rows would reject the NaN it must preserve).
                for (ca, cb) in candidates().iter().zip(found) {
                    assert_eq!(ca.frequency.to_bits(), cb.frequency.to_bits());
                    assert_eq!(ca.period.to_bits(), cb.period.to_bits());
                    assert_eq!(ca.power.to_bits(), cb.power.to_bits());
                    assert_eq!(ca.acf_score.to_bits(), cb.acf_score.to_bits());
                    assert_eq!(ca.p_value.map(f64::to_bits), cb.p_value.map(f64::to_bits));
                }
            }
            other => panic!("row 0 mismatch: {other:?}"),
        }
        assert_eq!(&rows[1], &decoded[1]);
        // Re-encoding the decoded rows is byte-identical.
        assert_eq!(encode_rows(&decoded), encoded);
    }

    #[test]
    fn summaries_round_trip() {
        let batch = vec![summary("h1", "a.test", 3), summary("h2", "b.test", 7)];
        let encoded = encode_summaries(&batch);
        assert_eq!(decode_summaries(&encoded).expect("parses"), batch);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(decode_rows("not json").is_none());
        assert!(decode_rows("{}").is_none());
        assert!(decode_rows("[{\"kind\":\"mystery\"}]").is_none());
        // The previous hit-row format (a `report` object, no `candidates`
        // key), as PR 16's `encode_rows` printed it, is refused, so a
        // resume re-executes the shard.
        let parent_format = include_str!("../testdata/pr16_hit_row.json");
        assert!(parse(parent_format).is_ok(), "refused for its shape");
        assert!(decode_rows(parent_format).is_none());
        assert!(decode_summaries("[{\"pair\":{}}]").is_none());
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let shards = vec![vec![summary("h1", "a.test", 3)]];
        let base = run_fingerprint(7, &shards);
        assert_eq!(base, run_fingerprint(7, &shards));
        assert_ne!(base, run_fingerprint(8, &shards));
        let other_plan = vec![vec![summary("h1", "a.test", 4)]];
        assert_ne!(base, run_fingerprint(7, &other_plan));
    }

    #[test]
    fn plan_shards_orders_heavy_pairs_first() {
        let shards = plan_shards(
            vec![
                summary("h1", "light.test", 2),
                summary("h2", "heavy.test", 50),
                summary("h3", "mid.test", 10),
            ],
            2,
        );
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0][0].pair.destination, "heavy.test");
        assert_eq!(shards[0][1].pair.destination, "mid.test");
        assert_eq!(shards[1][0].pair.destination, "light.test");
    }
}
