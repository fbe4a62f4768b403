//! Log-file ingestion and export.
//!
//! The paper reads BlueCoat web-proxy logs from HDFS; this module provides
//! the equivalent single-machine plumbing: a tab-separated on-disk format
//! (`timestamp \t source \t domain \t url_token`) with a streaming parser
//! that reports malformed lines instead of aborting, plus a writer for
//! round-tripping simulated traces.
//!
//! For continuous ingest from many log sources, [`IngestGuard`] wraps the
//! parser in per-source circuit breakers: a source whose malformed-line
//! rate breaches the breaker thresholds is tripped open and its lines
//! rejected (cheaply, without parsing) until the cooldown elapses, after
//! which bounded half-open probe lines test whether the source recovered.
//! Every line is accounted exactly — `offered = admitted + rejected` per
//! source, with the admitted side further split by the usual
//! [`ReadOutcome`] parse counters.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

use baywatch_obs::{Clock, MetricsRegistry};
use baywatch_resilience::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, Transition};

use crate::elff::ElffParser;
use crate::record::LogRecord;

/// A parse failure for one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLineError {
    /// 1-based line number.
    pub line_number: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line_number, self.reason)
    }
}

impl std::error::Error for ParseLineError {}

/// Parses one log line (`ts \t source \t domain \t token`, token optional).
pub fn parse_line(line: &str, line_number: usize) -> Result<LogRecord, ParseLineError> {
    let mut fields = line.split('\t');
    let ts = fields.next().ok_or_else(|| ParseLineError {
        line_number,
        reason: "empty line".into(),
    })?;
    let timestamp: u64 = ts.trim().parse().map_err(|_| ParseLineError {
        line_number,
        reason: format!("invalid timestamp `{ts}`"),
    })?;
    let source = fields
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| ParseLineError {
            line_number,
            reason: "missing source field".into(),
        })?;
    let domain = fields
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| ParseLineError {
            line_number,
            reason: "missing domain field".into(),
        })?;
    let token = fields.next().map(str::trim).unwrap_or("");
    Ok(LogRecord::new(timestamp, source, domain, token))
}

/// Cap on the number of [`ParseLineError`] samples kept in a
/// [`ReadOutcome`]; [`ReadOutcome::malformed_lines`] stays exact past it.
pub const ERROR_SAMPLE_LIMIT: usize = 64;

/// Outcome of reading a log stream: the good records and the bad lines.
#[derive(Debug, Clone, Default)]
pub struct ReadOutcome {
    /// Successfully parsed records.
    pub records: Vec<LogRecord>,
    /// Per-line failures (the stream is not aborted on bad lines — at
    /// 30 B events, some corruption is a certainty, cf. Challenge 2).
    /// Bounded to [`ERROR_SAMPLE_LIMIT`] samples; `malformed_lines` holds
    /// the exact count.
    pub errors: Vec<ParseLineError>,
    /// Exact number of lines that failed to parse (including any past the
    /// sample bound).
    pub malformed_lines: usize,
}

impl ReadOutcome {
    /// Counts a malformed line, retaining the error itself only while
    /// under the sample bound.
    pub fn note_error(&mut self, e: ParseLineError) {
        self.malformed_lines += 1;
        if self.errors.len() < ERROR_SAMPLE_LIMIT {
            self.errors.push(e);
        }
    }
}

/// Reads records from any `BufRead` source. Lines that are empty or start
/// with `#` are skipped. Ingest is lenient: a line that is truncated,
/// garbled, or not valid UTF-8 is counted and sampled in the outcome — it
/// never aborts the stream.
///
/// # Errors
///
/// Returns the underlying I/O error if the stream itself fails; per-line
/// parse failures are collected in the outcome instead.
///
/// # Example
///
/// ```
/// use baywatch_core::io::read_records;
///
/// let data = "100\thost-a\texample.com\tindex\n# comment\nbogus\n200\thost-b\tx.org\t\n";
/// let outcome = read_records(data.as_bytes()).unwrap();
/// assert_eq!(outcome.records.len(), 2);
/// assert_eq!(outcome.malformed_lines, 1);
/// assert_eq!(outcome.records[0].domain, "example.com");
/// ```
pub fn read_records<R: BufRead>(reader: R) -> std::io::Result<ReadOutcome> {
    read_lenient(reader, TabLines)
}

/// The unguarded reader behind [`read_records`] and
/// [`read_elff`](crate::elff::read_elff): every data line of `format` is
/// parsed, and a line that fails is counted instead of ending the stream.
pub(crate) fn read_lenient<R: BufRead>(
    reader: R,
    mut format: impl LineFormat,
) -> std::io::Result<ReadOutcome> {
    let mut outcome = ReadOutcome::default();
    for_each_line(reader, |trimmed, line_number| {
        if !format.classify(trimmed) {
            return;
        }
        match format.parse(trimmed, line_number) {
            Ok(r) => outcome.records.push(r),
            Err(e) => outcome.note_error(e),
        }
    })?;
    Ok(outcome)
}

/// The one line loop of every reader: calls `visit` with each line of
/// `reader`, trimmed, and its 1-based line number.
///
/// Lines are split byte-wise on `\n` into a single reused buffer, so
/// invalid UTF-8 degrades to a malformed line (via the lossy conversion)
/// instead of killing the whole stream.
fn for_each_line<R: BufRead>(
    mut reader: R,
    mut visit: impl FnMut(&str, usize),
) -> std::io::Result<()> {
    let mut raw = Vec::new();
    let mut line_number = 0;
    while reader.read_until(b'\n', &mut raw)? > 0 {
        line_number += 1;
        visit(String::from_utf8_lossy(&raw).trim(), line_number);
        raw.clear();
    }
    Ok(())
}

/// Writes records in the on-disk format. A `&mut` reference works as the
/// writer (the standard `impl Write for &mut W` applies).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_records<'a, W, I>(mut writer: W, records: I) -> std::io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = &'a LogRecord>,
{
    for r in records {
        writeln!(
            writer,
            "{}\t{}\t{}\t{}",
            r.timestamp, r.source, r.domain, r.url_token
        )?;
    }
    Ok(())
}

/// Reads a log file from disk.
///
/// # Errors
///
/// Returns the I/O error on open/read failure.
#[expect(
    clippy::disallowed_types,
    reason = "io.rs is the audited ingest/export boundary; pipeline stages downstream are pure \
              functions of the record stream"
)]
pub fn read_log_file(path: impl AsRef<std::path::Path>) -> std::io::Result<ReadOutcome> {
    let f = std::fs::File::open(path)?;
    read_records(std::io::BufReader::new(f))
}

/// Writes a log file to disk.
///
/// # Errors
///
/// Returns the I/O error on create/write failure.
#[expect(
    clippy::disallowed_types,
    reason = "io.rs is the audited ingest/export boundary; pipeline stages downstream are pure \
              functions of the record stream"
)]
pub fn write_log_file(
    path: impl AsRef<std::path::Path>,
    records: &[LogRecord],
) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_records(std::io::BufWriter::new(f), records)
}

/// Outcome of one guarded read from one source: the parsed records plus
/// the exact admission ledger for the breaker decisions.
///
/// Invariant: `offered_lines == admitted_lines + rejected_lines`, and
/// `admitted_lines == outcome.records.len() + outcome.malformed_lines`.
#[derive(Debug, Clone, Default)]
pub struct GuardedReadOutcome {
    /// The records and parse errors of the admitted lines.
    pub outcome: ReadOutcome,
    /// Non-blank, non-comment lines seen in the stream.
    pub offered_lines: usize,
    /// Lines the breaker admitted (parsed, successfully or not).
    pub admitted_lines: usize,
    /// Lines rejected while the source's breaker was open (never parsed,
    /// never counted as malformed).
    pub rejected_lines: usize,
    /// Admitted lines that were half-open probes (a subset of
    /// `admitted_lines`).
    pub probe_lines: usize,
    /// Breaker transitions that happened during this read, stamped with
    /// the injected clock.
    pub transitions: Vec<Transition>,
    /// The source breaker's state after the read.
    pub final_state: BreakerState,
}

/// Per-source circuit breakers guarding the line parser.
///
/// One breaker per source name, created on first use and persisted
/// across reads, so a source that flapped yesterday is still on
/// probation today. All breakers share the injected clock; under a
/// `ManualClock` the whole admission history is byte-reproducible.
#[derive(Debug)]
pub struct IngestGuard {
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    /// BTreeMap so iteration (and therefore metrics registration order)
    /// is deterministic in the source names.
    breakers: BTreeMap<String, CircuitBreaker>,
}

// A ledger: its totals must stay exact, so no cast may narrow them
// (DESIGN.md §7).
#[deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
impl IngestGuard {
    /// A guard whose per-source breakers run `config` on `clock`.
    pub fn new(config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        IngestGuard {
            config,
            clock,
            breakers: BTreeMap::new(),
        }
    }

    /// The breaker state for `source`, if it has been read from.
    pub fn state(&self, source: &str) -> Option<BreakerState> {
        self.breakers.get(source).map(CircuitBreaker::state)
    }

    /// The sources seen so far, in sorted order.
    pub fn sources(&self) -> impl Iterator<Item = &str> {
        self.breakers.keys().map(String::as_str)
    }

    /// Aggregated breaker counters across every source.
    pub fn stats(&self) -> BreakerStats {
        let mut total = BreakerStats::default();
        for breaker in self.breakers.values() {
            total.merge(&breaker.stats());
        }
        total
    }

    /// Registers the aggregated nonzero counters under
    /// `resilience.ingest.*` — an idle guard (no failures, no trips)
    /// registers only the admitted/success volume counters, and a guard
    /// that never ran registers nothing, keeping clean exports
    /// byte-identical.
    pub fn record_metrics(&self, registry: &MetricsRegistry) {
        self.stats().record_metrics(registry, "resilience.ingest");
    }

    /// Reads records from `reader`, attributing every line to `source`
    /// and consulting that source's breaker per line. Lines rejected by
    /// an open breaker are counted but neither parsed nor sampled; parse
    /// failures on admitted lines feed the breaker's failure thresholds,
    /// so a source crossing the malformed-rate cutoff trips open
    /// mid-stream.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the stream itself fails, as
    /// [`read_records`] does.
    pub fn read_source<R: BufRead>(
        &mut self,
        source: &str,
        reader: R,
    ) -> std::io::Result<GuardedReadOutcome> {
        self.read_guarded(source, reader, TabLines)
    }

    /// Like [`IngestGuard::read_source`] for W3C ELFF streams (the
    /// BlueCoat format of [`crate::elff`]). `#Fields:` directives are
    /// consumed even while the source's breaker is open — schema is
    /// metadata, not load — so half-open probes parse under the correct
    /// schema after a mid-file trip.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the stream itself fails.
    pub fn read_elff_source<R: BufRead>(
        &mut self,
        source: &str,
        reader: R,
    ) -> std::io::Result<GuardedReadOutcome> {
        self.read_guarded(source, reader, ElffLines(ElffParser::new()))
    }

    fn read_guarded<R: BufRead>(
        &mut self,
        source: &str,
        reader: R,
        mut format: impl LineFormat,
    ) -> std::io::Result<GuardedReadOutcome> {
        let breaker = self
            .breakers
            .entry(source.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config, self.clock.clone()));
        let mut guarded = GuardedReadOutcome::default();
        for_each_line(reader, |trimmed, line_number| {
            if !format.classify(trimmed) {
                return;
            }
            guarded.offered_lines += 1;
            let probing = breaker.state() != BreakerState::Closed;
            if !breaker.allow() {
                guarded.rejected_lines += 1;
                return;
            }
            guarded.admitted_lines += 1;
            if probing {
                guarded.probe_lines += 1;
            }
            match format.parse(trimmed, line_number) {
                Ok(r) => {
                    guarded.outcome.records.push(r);
                    breaker.record_success();
                }
                Err(e) => {
                    guarded.outcome.note_error(e);
                    breaker.record_failure();
                }
            }
        })?;
        guarded.transitions = breaker.take_transitions();
        guarded.final_state = breaker.state();
        Ok(guarded)
    }
}

/// A log format's line rules, stated once for the plain and the guarded
/// readers. Directive handling (side-effecting schema state) is separated
/// from record parsing so the breaker's admission decision sits between
/// them: rejected lines are never parsed, but schema directives are always
/// consumed.
pub(crate) trait LineFormat {
    /// Consumes blank/directive lines; returns whether the line is a data
    /// line that must pass admission.
    fn classify(&mut self, trimmed: &str) -> bool;
    /// Parses one admitted data line.
    fn parse(&mut self, trimmed: &str, line_number: usize) -> Result<LogRecord, ParseLineError>;
}

/// The native tab-separated format of [`parse_line`].
struct TabLines;

impl LineFormat for TabLines {
    fn classify(&mut self, trimmed: &str) -> bool {
        !trimmed.is_empty() && !trimmed.starts_with('#')
    }

    fn parse(&mut self, trimmed: &str, line_number: usize) -> Result<LogRecord, ParseLineError> {
        parse_line(trimmed, line_number)
    }
}

/// W3C ELFF with stateful `#Fields:` schema tracking.
pub(crate) struct ElffLines(pub(crate) ElffParser);

impl LineFormat for ElffLines {
    fn classify(&mut self, trimmed: &str) -> bool {
        if trimmed.is_empty() {
            return false;
        }
        if let Some(fields) = trimmed.strip_prefix("#Fields:") {
            self.0.set_schema(fields);
            return false;
        }
        !trimmed.starts_with('#')
    }

    fn parse(&mut self, trimmed: &str, line_number: usize) -> Result<LogRecord, ParseLineError> {
        self.0.parse_data_line(trimmed, line_number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::new(100, "host-a", "example.com", "index"),
            LogRecord::new(160, "host-a", "example.com", ""),
            LogRecord::new(200, "host-b", "other.org", "update"),
        ]
    }

    #[test]
    fn roundtrip_through_buffer() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_records(&mut buf, &records).unwrap();
        let outcome = read_records(buf.as_slice()).unwrap();
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.records, records);
    }

    #[test]
    fn roundtrip_through_file() {
        let records = sample_records();
        let path = std::env::temp_dir().join("baywatch-io-test.log");
        write_log_file(&path, &records).unwrap();
        let outcome = read_log_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(outcome.records, records);
    }

    #[test]
    fn bad_lines_collected_not_fatal() {
        let data = "nonsense\n100\ta\tb.com\tx\n\tmissing-ts\n200\t\tb.com\tx\n300\tc\t\tx\n";
        let outcome = read_records(data.as_bytes()).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.errors.len(), 4);
        assert_eq!(outcome.malformed_lines, 4);
        assert_eq!(outcome.errors[0].line_number, 1);
        assert!(!outcome.errors[0].to_string().is_empty());
    }

    #[test]
    fn invalid_utf8_is_a_malformed_line_not_a_stream_error() {
        let mut data = b"100\ta\tb.com\tx\n".to_vec();
        data.extend_from_slice(&[0xff, 0xfe, 0x00, 0x41, b'\n']);
        data.extend_from_slice(b"200\ta\tb.com\ty\n");
        let outcome = read_records(data.as_slice()).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.malformed_lines, 1);
    }

    #[test]
    fn error_samples_are_bounded_but_count_is_exact() {
        let data: String = (0..ERROR_SAMPLE_LIMIT + 10).map(|_| "garbage\n").collect();
        let outcome = read_records(data.as_bytes()).unwrap();
        assert_eq!(outcome.errors.len(), ERROR_SAMPLE_LIMIT);
        assert_eq!(outcome.malformed_lines, ERROR_SAMPLE_LIMIT + 10);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let data = "# header\n\n100\ta\tb.com\tx\n   \n";
        let outcome = read_records(data.as_bytes()).unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert!(outcome.errors.is_empty());
    }

    #[test]
    fn token_is_optional() {
        let r = parse_line("5\tsrc\tdom.com", 1).unwrap();
        assert_eq!(r.url_token, "");
        let r = parse_line("5\tsrc\tdom.com\ttok", 1).unwrap();
        assert_eq!(r.url_token, "tok");
    }

    #[test]
    fn whitespace_tolerated_in_fields() {
        let r = parse_line(" 42 \t src \t dom.com \t tok ", 1).unwrap();
        assert_eq!(r.timestamp, 42);
        assert_eq!(r.source, "src");
        assert_eq!(r.domain, "dom.com");
        assert_eq!(r.url_token, "tok");
    }

    #[test]
    fn invalid_timestamp_reports_reason() {
        let e = parse_line("abc\tsrc\tdom.com", 7).unwrap_err();
        assert_eq!(e.line_number, 7);
        assert!(e.reason.contains("timestamp"));
    }

    mod guard {
        use super::*;
        use baywatch_obs::ManualClock;

        fn fast_breaker() -> BreakerConfig {
            BreakerConfig {
                failure_threshold: 3,
                failure_rate: 0.0,
                min_samples: 0,
                success_threshold: 2,
                half_open_requests: 2,
                cooldown_nanos: 1_000,
            }
        }

        fn good_lines(n: usize) -> String {
            (0..n)
                .map(|i| format!("{}\thost\texample.com\ttok\n", 100 + i))
                .collect()
        }

        fn bad_lines(n: usize) -> String {
            (0..n).map(|_| "garbage line\n").collect()
        }

        #[test]
        fn clean_source_is_never_perturbed() {
            let mut guard = IngestGuard::new(fast_breaker(), Arc::new(ManualClock::new()));
            let data = good_lines(10);
            let out = guard.read_source("proxy-a", data.as_bytes()).unwrap();
            assert_eq!(out.outcome.records.len(), 10);
            assert_eq!(out.offered_lines, 10);
            assert_eq!(out.admitted_lines, 10);
            assert_eq!(out.rejected_lines, 0);
            assert_eq!(out.probe_lines, 0);
            assert!(out.transitions.is_empty());
            assert_eq!(out.final_state, BreakerState::Closed);
            // Clean runs register only volume counters, no failure or
            // transition counters (export gating).
            let registry = MetricsRegistry::new();
            guard.record_metrics(&registry);
            let snap = registry.snapshot();
            assert!(!snap.counters.contains_key("resilience.ingest.opened"));
            assert!(!snap.counters.contains_key("resilience.ingest.failures"));
        }

        #[test]
        fn malformed_burst_trips_open_and_rejects_cheaply() {
            let mut guard = IngestGuard::new(fast_breaker(), Arc::new(ManualClock::new()));
            let data = format!("{}{}", bad_lines(3), good_lines(5));
            let out = guard.read_source("proxy-b", data.as_bytes()).unwrap();
            assert_eq!(out.final_state, BreakerState::Open);
            assert_eq!(out.offered_lines, 8);
            assert_eq!(out.admitted_lines, 3, "tripped after the 3rd failure");
            assert_eq!(out.rejected_lines, 5, "good lines behind an open breaker");
            assert_eq!(out.outcome.malformed_lines, 3);
            assert_eq!(out.outcome.records.len(), 0);
            assert_eq!(out.transitions.len(), 1);
            assert_eq!(out.transitions[0].to, BreakerState::Open);
            assert_eq!(
                out.offered_lines,
                out.admitted_lines + out.rejected_lines,
                "exact accounting"
            );
        }

        #[test]
        fn half_open_probes_readmit_a_recovered_source() {
            let clock = Arc::new(ManualClock::new());
            let mut guard = IngestGuard::new(fast_breaker(), clock.clone());
            let bad = bad_lines(3);
            let out = guard.read_source("flappy", bad.as_bytes()).unwrap();
            assert_eq!(out.final_state, BreakerState::Open);

            // Before the cooldown: everything rejected.
            let good = good_lines(4);
            let out = guard.read_source("flappy", good.as_bytes()).unwrap();
            assert_eq!(out.admitted_lines, 0);
            assert_eq!(out.rejected_lines, 4);

            // After the cooldown: probes admit, successes re-close, and
            // the rest of the stream flows normally.
            clock.advance(1_000);
            let good = good_lines(6);
            let out = guard.read_source("flappy", good.as_bytes()).unwrap();
            assert_eq!(out.final_state, BreakerState::Closed);
            assert_eq!(out.admitted_lines, 6);
            assert_eq!(out.rejected_lines, 0);
            assert_eq!(out.probe_lines, 2, "probes until the close threshold");
            let kinds: Vec<_> = out.transitions.iter().map(|t| t.to).collect();
            assert_eq!(kinds, vec![BreakerState::HalfOpen, BreakerState::Closed]);
        }

        #[test]
        fn sources_are_isolated_from_each_other() {
            let mut guard = IngestGuard::new(fast_breaker(), Arc::new(ManualClock::new()));
            let bad = bad_lines(5);
            guard.read_source("noisy", bad.as_bytes()).unwrap();
            assert_eq!(guard.state("noisy"), Some(BreakerState::Open));
            let good = good_lines(3);
            let out = guard.read_source("quiet", good.as_bytes()).unwrap();
            assert_eq!(
                out.admitted_lines, 3,
                "one bad source must not starve another"
            );
            assert_eq!(guard.state("quiet"), Some(BreakerState::Closed));
            assert_eq!(guard.sources().collect::<Vec<_>>(), vec!["noisy", "quiet"]);
        }

        #[test]
        fn aggregated_stats_and_metrics_cover_all_sources() {
            let mut guard = IngestGuard::new(fast_breaker(), Arc::new(ManualClock::new()));
            let bad = bad_lines(3);
            guard.read_source("a", bad.as_bytes()).unwrap();
            let good = good_lines(2);
            guard.read_source("b", good.as_bytes()).unwrap();
            let stats = guard.stats();
            assert_eq!(stats.failures, 3);
            assert_eq!(stats.successes, 2);
            assert_eq!(stats.opened, 1);
            let registry = MetricsRegistry::new();
            guard.record_metrics(&registry);
            let snap = registry.snapshot();
            assert_eq!(snap.counters["resilience.ingest.opened"], 1);
            assert_eq!(snap.counters["resilience.ingest.failures"], 3);
            assert_eq!(snap.counters["resilience.ingest.admitted"], 5);
        }

        #[test]
        fn rate_threshold_catches_a_diluted_malformed_stream() {
            let config = BreakerConfig {
                failure_threshold: 0,
                failure_rate: 0.3,
                min_samples: 10,
                ..fast_breaker()
            };
            let mut guard = IngestGuard::new(config, Arc::new(ManualClock::new()));
            // 30% malformed, interleaved so no 3 consecutive failures.
            let data: String = (0..30)
                .map(|i| {
                    if i % 10 < 3 {
                        "garbage\n".to_string()
                    } else {
                        format!("{}\thost\td.com\tx\n", 100 + i)
                    }
                })
                .collect();
            let out = guard.read_source("diluted", data.as_bytes()).unwrap();
            assert_eq!(out.final_state, BreakerState::Open);
            assert!(out.rejected_lines > 0);
        }

        #[test]
        fn elff_source_is_metered_per_line() {
            let mut guard = IngestGuard::new(fast_breaker(), Arc::new(ManualClock::new()));
            let log = "#Software: netsim\n\
                       #Fields: x-timestamp c-ip cs-host cs-uri-path\n\
                       1000 10.0.0.1 a.com /x\n\
                       garbage @@ line junk\n\
                       1060 10.0.0.1 a.com /x\n";
            let out = guard.read_elff_source("elff-a", log.as_bytes()).unwrap();
            assert_eq!(out.offered_lines, 3, "directives are not offered");
            assert_eq!(out.admitted_lines, 3);
            assert_eq!(out.outcome.records.len(), 2);
            assert_eq!(out.outcome.malformed_lines, 1);
            assert_eq!(out.final_state, BreakerState::Closed);
        }

        #[test]
        fn elff_schema_consumed_while_open_feeds_half_open_probes() {
            // Schema-less junk trips the breaker; the #Fields directive
            // arrives while it is open and must still be consumed, so the
            // half-open probes (cooldown 0 ⇒ immediately eligible) parse
            // under the correct schema and re-close the source.
            let config = BreakerConfig {
                cooldown_nanos: 0,
                ..fast_breaker()
            };
            let mut guard = IngestGuard::new(config, Arc::new(ManualClock::new()));
            let mut log = String::new();
            for _ in 0..3 {
                log.push_str("junk\n");
            }
            log.push_str("#Fields: x-timestamp c-ip cs-host cs-uri-path\n");
            for i in 0..5u64 {
                log.push_str(&format!("{} 10.0.0.1 a.com /x\n", 1000 + i * 60));
            }
            let out = guard
                .read_elff_source("late-schema", log.as_bytes())
                .unwrap();
            assert_eq!(out.final_state, BreakerState::Closed, "recovered in-stream");
            assert_eq!(out.outcome.records.len(), 5);
            assert_eq!(out.probe_lines, 2, "probes until the close threshold");
            let kinds: Vec<_> = out.transitions.iter().map(|t| t.to).collect();
            assert_eq!(
                kinds,
                vec![
                    BreakerState::Open,
                    BreakerState::HalfOpen,
                    BreakerState::Closed
                ]
            );
        }
    }
}
