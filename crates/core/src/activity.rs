//! ActivitySummary — the per-pair request history record (§VII-A/B).
//!
//! The data-extraction job reduces raw logs to one `ActivitySummary` per
//! communication pair: the time scale, the first request timestamp, the
//! sorted list of request intervals, and side-channel information (URL
//! tokens) for the token filter. The rescaling phase (§VII-B) coarsens an
//! existing summary without reprocessing raw logs — the trick that lets
//! BAYWATCH run daily, weekly and monthly analyses over months of data.

use std::collections::BTreeSet;

use crate::pair::CommunicationPair;
use crate::record::LogRecord;
use crate::CoreError;

/// Per-pair request history at a given time scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySummary {
    /// The communication pair.
    pub pair: CommunicationPair,
    /// Time scale in seconds (1 = finest).
    pub scale: u64,
    /// First request timestamp (epoch seconds, quantized to `scale`).
    pub first_timestamp: u64,
    /// Request intervals (seconds between consecutive requests, already
    /// quantized to `scale`).
    pub intervals: Vec<u64>,
    /// Distinct URL tokens observed (side channel for the token filter).
    pub url_tokens: BTreeSet<String>,
}

impl ActivitySummary {
    /// Builds a summary from the records of one pair.
    ///
    /// Records may arrive unsorted (MapReduce shuffle order) and may carry
    /// duplicate timestamps (retransmissions, log replays, clock skew
    /// folding two events onto one second); see [`Self::from_events`], which
    /// this delegates to. All records must belong to the same pair — only
    /// the first record's pair is consulted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `records` is empty or
    /// `scale == 0`.
    pub fn from_records(records: &[LogRecord], scale: u64) -> Result<Self, CoreError> {
        let Some(first) = records.first() else {
            return Err(CoreError::InvalidConfig {
                name: "records",
                constraint: "must be non-empty",
            });
        };
        let pair = CommunicationPair::new(&first.source, &first.domain);
        let events: Vec<(u64, &str)> = records
            .iter()
            .map(|r| (r.timestamp, r.url_token.as_str()))
            .collect();
        Self::from_events(pair, &events, scale)
    }

    /// Builds the summary of `pair` from its `(timestamp, url token)`
    /// events — what the data-extraction job shuffles per log line.
    ///
    /// Raw timestamps are sorted and deduplicated here before quantization,
    /// so unsorted or degraded input yields the same summary as its clean
    /// equivalent. Empty tokens (sources without a URL path) are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `events` is empty or
    /// `scale == 0`.
    pub fn from_events(
        pair: CommunicationPair,
        events: &[(u64, &str)],
        scale: u64,
    ) -> Result<Self, CoreError> {
        if events.is_empty() {
            return Err(CoreError::InvalidConfig {
                name: "events",
                constraint: "must be non-empty",
            });
        }
        if scale == 0 {
            return Err(CoreError::InvalidConfig {
                name: "scale",
                constraint: "must be at least 1",
            });
        }
        // Sort and dedupe *raw* timestamps first: an exact duplicate is one
        // event observed twice and must collapse, while two distinct raw
        // timestamps landing in the same coarse bin remain a genuine
        // zero-interval (mapped to `y` by downstream symbolization).
        let mut raw: Vec<u64> = events.iter().map(|&(t, _)| t).collect();
        raw.sort_unstable();
        raw.dedup();
        let timestamps: Vec<u64> = raw.into_iter().map(|t| t / scale * scale).collect();
        let first_timestamp = timestamps[0];
        let intervals = timestamps.windows(2).map(|w| w[1] - w[0]).collect();
        // Dedupe borrowed, then own: one `String` per distinct token.
        let distinct: BTreeSet<&str> = events
            .iter()
            .map(|&(_, token)| token)
            .filter(|token| !token.is_empty())
            .collect();
        let url_tokens = distinct.into_iter().map(str::to_owned).collect();
        Ok(Self {
            pair,
            scale,
            first_timestamp,
            intervals,
            url_tokens,
        })
    }

    /// Number of requests summarized.
    pub fn request_count(&self) -> usize {
        self.intervals.len() + 1
    }

    /// Reconstructs the (quantized) request timestamps.
    pub fn timestamps(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.intervals.len() + 1);
        let mut t = self.first_timestamp;
        out.push(t);
        for &iv in &self.intervals {
            t += iv;
            out.push(t);
        }
        out
    }

    /// Intervals as `f64` seconds (detector input).
    pub fn intervals_f64(&self) -> Vec<f64> {
        self.intervals.iter().map(|&i| i as f64).collect()
    }

    /// Total observation span in seconds.
    pub fn span(&self) -> u64 {
        self.intervals.iter().sum()
    }

    /// Rescales the summary to a coarser time scale (§VII-B). Requests
    /// landing in the same coarse bin collapse into zero intervals, which
    /// downstream symbolization maps to `y`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `new_scale` is a
    /// positive multiple of the current scale.
    pub fn rescale(&self, new_scale: u64) -> Result<ActivitySummary, CoreError> {
        if new_scale == 0 || new_scale < self.scale || !new_scale.is_multiple_of(self.scale) {
            return Err(CoreError::InvalidConfig {
                name: "new_scale",
                constraint: "must be a positive multiple of the current scale",
            });
        }
        let timestamps: Vec<u64> = self
            .timestamps()
            .into_iter()
            .map(|t| t / new_scale * new_scale)
            .collect();
        let first_timestamp = timestamps[0];
        let intervals = timestamps.windows(2).map(|w| w[1] - w[0]).collect();
        Ok(ActivitySummary {
            pair: self.pair.clone(),
            scale: new_scale,
            first_timestamp,
            intervals,
            url_tokens: self.url_tokens.clone(),
        })
    }

    /// Merges another summary of the *same pair and scale* into this one
    /// (the merging half of §VII-B, used when daily summaries are combined
    /// into weekly/monthly ones).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if pairs or scales differ.
    pub fn merge(&self, other: &ActivitySummary) -> Result<ActivitySummary, CoreError> {
        if self.pair != other.pair {
            return Err(CoreError::InvalidConfig {
                name: "other.pair",
                constraint: "must match this summary's pair",
            });
        }
        if self.scale != other.scale {
            return Err(CoreError::InvalidConfig {
                name: "other.scale",
                constraint: "must match this summary's scale",
            });
        }
        let mut timestamps = self.timestamps();
        timestamps.extend(other.timestamps());
        timestamps.sort_unstable();
        let first_timestamp = timestamps[0];
        let intervals = timestamps.windows(2).map(|w| w[1] - w[0]).collect();
        let mut url_tokens = self.url_tokens.clone();
        url_tokens.extend(other.url_tokens.iter().cloned());
        Ok(ActivitySummary {
            pair: self.pair.clone(),
            scale: self.scale,
            first_timestamp,
            intervals,
            url_tokens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(pair: (&str, &str), times: &[u64]) -> Vec<LogRecord> {
        times
            .iter()
            .map(|&t| LogRecord::new(t, pair.0, pair.1, "tok"))
            .collect()
    }

    #[test]
    fn summary_from_unsorted_records() {
        let rs = records(("s", "d.com"), &[300, 100, 200]);
        let a = ActivitySummary::from_records(&rs, 1).unwrap();
        assert_eq!(a.first_timestamp, 100);
        assert_eq!(a.intervals, vec![100, 100]);
        assert_eq!(a.request_count(), 3);
        assert_eq!(a.timestamps(), vec![100, 200, 300]);
        assert_eq!(a.span(), 200);
    }

    #[test]
    fn quantization_at_coarse_scale() {
        let rs = records(("s", "d.com"), &[100, 161, 239]);
        let a = ActivitySummary::from_records(&rs, 60).unwrap();
        // 100->60, 161->120, 239->180
        assert_eq!(a.first_timestamp, 60);
        assert_eq!(a.intervals, vec![60, 60]);
    }

    #[test]
    fn tokens_collected_unique() {
        let mut rs = records(("s", "d.com"), &[1, 2]);
        rs[0].url_token = "update".into();
        rs[1].url_token = "update".into();
        let a = ActivitySummary::from_records(&rs, 1).unwrap();
        assert_eq!(a.url_tokens.len(), 1);
        assert!(a.url_tokens.contains("update"));
    }

    #[test]
    fn empty_token_ignored() {
        let mut rs = records(("s", "d.com"), &[1, 2]);
        rs[0].url_token = String::new();
        let a = ActivitySummary::from_records(&rs, 1).unwrap();
        assert_eq!(a.url_tokens.len(), 1);
    }

    #[test]
    fn rescale_collapses_same_bin_requests() {
        let rs = records(("s", "d.com"), &[10, 20, 70]);
        let a = ActivitySummary::from_records(&rs, 1).unwrap();
        let coarse = a.rescale(60).unwrap();
        // 10->0, 20->0, 70->60
        assert_eq!(coarse.intervals, vec![0, 60]);
        assert_eq!(coarse.scale, 60);
    }

    #[test]
    fn rescale_validates() {
        let a = ActivitySummary::from_records(&records(("s", "d"), &[0, 10]), 2).unwrap();
        assert!(a.rescale(3).is_err());
        assert!(a.rescale(0).is_err());
        assert!(a.rescale(4).is_ok());
    }

    #[test]
    fn merge_interleaves_timestamps() {
        let day1 = ActivitySummary::from_records(&records(("s", "d"), &[0, 100]), 1).unwrap();
        let day2 = ActivitySummary::from_records(&records(("s", "d"), &[50, 150]), 1).unwrap();
        let merged = day1.merge(&day2).unwrap();
        assert_eq!(merged.timestamps(), vec![0, 50, 100, 150]);
        assert_eq!(merged.intervals, vec![50, 50, 50]);
    }

    #[test]
    fn merge_rejects_mismatched() {
        let a = ActivitySummary::from_records(&records(("s", "d"), &[0, 10]), 1).unwrap();
        let b = ActivitySummary::from_records(&records(("s", "other"), &[0, 10]), 1).unwrap();
        assert!(a.merge(&b).is_err());
        let c = ActivitySummary::from_records(&records(("s", "d"), &[0, 10]), 2).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(ActivitySummary::from_records(&[], 1).is_err());
        assert!(ActivitySummary::from_records(&records(("s", "d"), &[1]), 0).is_err());
    }

    #[test]
    fn from_events_and_from_records_agree_on_degraded_input() {
        // Unsorted, duplicate timestamps, empty and repeated tokens:
        // 100, 160, 161, 220 quantize to 60, 120, 120, 180.
        let rows = [
            (220, "b"),
            (100, ""),
            (160, "a"),
            (100, "b"),
            (220, ""),
            (161, "a"),
        ];
        let expected = ActivitySummary {
            pair: CommunicationPair::new("s", "d.com"),
            scale: 60,
            first_timestamp: 60,
            intervals: vec![60, 0, 60],
            url_tokens: ["a", "b"].into_iter().map(String::from).collect(),
        };
        let from_events = ActivitySummary::from_events(expected.pair.clone(), &rows, 60).unwrap();
        assert_eq!(from_events, expected);
        let rs: Vec<LogRecord> = rows
            .iter()
            .map(|&(t, token)| LogRecord::new(t, "s", "d.com", token))
            .collect();
        assert_eq!(ActivitySummary::from_records(&rs, 60).unwrap(), expected);

        let pair = || CommunicationPair::new("s", "d.com");
        assert!(ActivitySummary::from_events(pair(), &[], 1).is_err());
        assert!(ActivitySummary::from_events(pair(), &rows, 0).is_err());
    }

    #[test]
    fn duplicate_timestamps_collapse_to_one_event() {
        let rs = records(("s", "d.com"), &[100, 200, 100, 300, 200, 100]);
        let a = ActivitySummary::from_records(&rs, 1).unwrap();
        assert_eq!(a.request_count(), 3);
        assert_eq!(a.timestamps(), vec![100, 200, 300]);
    }

    #[test]
    fn out_of_order_duplicates_match_clean_input() {
        let clean =
            ActivitySummary::from_records(&records(("s", "d"), &[100, 160, 220]), 60).unwrap();
        let messy =
            ActivitySummary::from_records(&records(("s", "d"), &[220, 100, 160, 100, 220]), 60)
                .unwrap();
        assert_eq!(messy, clean);
    }

    #[test]
    fn distinct_raw_times_in_same_bin_keep_zero_interval() {
        // 10 and 20 are different events that share the 60 s bin: the
        // coarse summary must keep the zero interval, not collapse it.
        let rs = records(("s", "d.com"), &[10, 20, 70]);
        let a = ActivitySummary::from_records(&rs, 60).unwrap();
        assert_eq!(a.intervals, vec![0, 60]);
        assert_eq!(a.request_count(), 3);
    }

    #[test]
    fn single_record_summary() {
        let a = ActivitySummary::from_records(&records(("s", "d"), &[42]), 1).unwrap();
        assert_eq!(a.request_count(), 1);
        assert!(a.intervals.is_empty());
        assert_eq!(a.span(), 0);
    }
}
