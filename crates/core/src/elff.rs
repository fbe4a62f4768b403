//! W3C Extended Log File Format (ELFF) ingestion — the format BlueCoat
//! ProxySG appliances (the paper's log source, §VIII-B1) emit.
//!
//! An ELFF file declares its schema in a `#Fields:` directive and then
//! carries one space-separated record per line:
//!
//! ```text
//! #Software: SGOS 6.5
//! #Fields: date time c-ip cs-host cs-uri-path sc-status
//! 2015-03-01 08:00:12 10.1.2.3 update.example.com /check 200
//! ```
//!
//! The parser maps whichever of `date`/`time`/`x-timestamp`, `c-ip`/
//! `cs-username`, `cs-host`/`cs(Host)`, and `cs-uri-path`/`cs-uri-stem`
//! columns are present onto [`LogRecord`]s, skipping directives and
//! malformed lines (corruption is a fact of life at tens of billions of
//! events). The proxy's own `s-hostname` is the destination only in a
//! schema without a requested-host column.

use std::io::BufRead;

use crate::io::{read_lenient, ElffLines, ParseLineError, ReadOutcome};
use crate::record::LogRecord;

/// Column roles the pipeline needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Date,
    Time,
    Timestamp,
    Source,
    Host,
    /// The proxy's own name: the destination only where the schema has
    /// no `cs-host`/`cs(Host)` column.
    ServerHost,
    Path,
    Ignore,
}

fn role_of(field: &str) -> Role {
    match field {
        "date" => Role::Date,
        "time" => Role::Time,
        "x-timestamp" | "timestamp" => Role::Timestamp,
        "c-ip" | "cs-username" | "c-mac" => Role::Source,
        "cs-host" | "cs(Host)" => Role::Host,
        "s-hostname" => Role::ServerHost,
        "cs-uri-path" | "cs-uri-stem" => Role::Path,
        _ => Role::Ignore,
    }
}

/// Incremental ELFF parser: holds the `#Fields:` schema seen so far so
/// directive handling is separate from record parsing (the block reader
/// tracks each block's schema before workers parse its lines).
/// [`read_elff`] is the streaming facade on top of it.
#[derive(Debug, Clone, Default)]
pub struct ElffParser {
    roles: Option<Vec<Role>>,
}

impl ElffParser {
    /// A parser that has not yet seen a `#Fields:` directive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the schema from the payload of a `#Fields:` directive
    /// (the text after the prefix).
    pub fn set_schema(&mut self, fields: &str) {
        self.roles = Some(fields.split_whitespace().map(role_of).collect());
    }

    /// Parses one data line (already known to be non-blank and not a
    /// directive) under the current schema.
    ///
    /// # Errors
    ///
    /// Fails when no `#Fields:` directive has been seen yet, or when the
    /// line does not yield the columns the pipeline needs.
    pub fn parse_data_line(
        &self,
        line: &str,
        line_number: usize,
    ) -> Result<LogRecord, ParseLineError> {
        let Some(roles) = self.roles.as_ref() else {
            return Err(ParseLineError {
                line_number,
                reason: "record before #Fields: directive".into(),
            });
        };
        parse_record(line, roles, line_number)
    }
}

/// Streaming ELFF reader.
///
/// Ingest is lenient: truncated, garbled, or non-UTF-8 lines are counted
/// (and sampled) in [`ReadOutcome::malformed_lines`] rather than aborting
/// the file — at the paper's scale, corruption is routine.
///
/// A stream longer than one block (256 KiB) is parsed on every available
/// core, as [`read_records`](crate::io::read_records) is: the calling
/// thread tracks the `#Fields:` schema in force at the start of each
/// line-aligned block, and the parts are merged in stream order, so the
/// outcome is the same byte for byte whatever the core count.
///
/// # Errors
///
/// Returns the underlying I/O error if the stream fails (an `Interrupted`
/// read is retried). Records that cannot be parsed are collected per line
/// in the outcome.
///
/// # Example
///
/// ```
/// use baywatch_core::elff::read_elff;
///
/// let log = "\
/// #Software: SGOS 6.5\n\
/// #Fields: date time c-ip cs-host cs-uri-path sc-status\n\
/// 2015-03-01 08:00:12 10.1.2.3 update.example.com /check/version 200\n\
/// 2015-03-01 08:00:15 10.1.2.4 news.example.org /feed 200\n";
/// let outcome = read_elff(log.as_bytes()).unwrap();
/// assert_eq!(outcome.records.len(), 2);
/// assert_eq!(outcome.records[0].domain, "update.example.com");
/// assert_eq!(outcome.records[0].url_token, "check");
/// assert!(outcome.records[1].timestamp == outcome.records[0].timestamp + 3);
/// ```
pub fn read_elff<R: BufRead>(reader: R) -> std::io::Result<ReadOutcome> {
    read_lenient(reader, ElffLines(ElffParser::new()))
}

fn parse_record(
    line: &str,
    roles: &[Role],
    line_number: usize,
) -> Result<LogRecord, ParseLineError> {
    // A short line is reported as such before any bad value in it, so the
    // fields are counted whenever the walk stops early.
    let too_few = |fields: usize| ParseLineError {
        line_number,
        reason: format!("expected {} fields, got {fields}", roles.len()),
    };
    let mut values = line.split_whitespace();
    let mut date: Option<&str> = None;
    let mut time: Option<&str> = None;
    let mut timestamp: Option<u64> = None;
    let mut source: Option<&str> = None;
    let mut host: Option<&str> = None;
    let mut server_host: Option<&str> = None;
    let mut path: Option<&str> = None;
    for (seen, role) in roles.iter().enumerate() {
        let Some(value) = values.next() else {
            return Err(too_few(seen));
        };
        match role {
            Role::Date => date = Some(value),
            Role::Time => time = Some(value),
            Role::Timestamp => {
                timestamp = value.parse().ok();
                if timestamp.is_none() {
                    let fields = seen + 1 + values.count();
                    if fields < roles.len() {
                        return Err(too_few(fields));
                    }
                    return Err(ParseLineError {
                        line_number,
                        reason: format!("invalid timestamp `{value}`"),
                    });
                }
            }
            Role::Source if source.is_none() => source = Some(value),
            Role::Host => host = Some(value),
            Role::ServerHost => server_host = Some(value),
            Role::Path if path.is_none() => path = Some(value),
            _ => {}
        }
    }

    let ts = match (timestamp, date, time) {
        (Some(t), _, _) => t,
        (None, Some(d), Some(t)) => parse_datetime(d, t).ok_or_else(|| ParseLineError {
            line_number,
            reason: format!("invalid date/time `{d} {t}`"),
        })?,
        _ => {
            return Err(ParseLineError {
                line_number,
                reason: "no timestamp columns (need x-timestamp or date+time)".into(),
            })
        }
    };
    let source = source.ok_or_else(|| ParseLineError {
        line_number,
        reason: "no source column (c-ip / cs-username)".into(),
    })?;
    let host = host.or(server_host).ok_or_else(|| ParseLineError {
        line_number,
        reason: "no cs-host column".into(),
    })?;
    if host == "-" {
        return Err(ParseLineError {
            line_number,
            reason: "empty host".into(),
        });
    }
    let token = path.map(first_path_token).unwrap_or_default();
    Ok(LogRecord::new(ts, source, host, token))
}

/// First path segment of a URL path (`/check/version?id=1` → `check`).
fn first_path_token(path: &str) -> String {
    path.trim_start_matches('/')
        .split(['/', '?', '#'])
        .next()
        .unwrap_or("")
        .to_owned()
}

/// Parses `YYYY-MM-DD` + `HH:MM:SS` into epoch seconds (UTC, proleptic
/// Gregorian; days-from-civil per Hinnant's algorithm).
pub fn parse_datetime(date: &str, time: &str) -> Option<u64> {
    let mut dp = date.split('-');
    let year: i64 = dp.next()?.parse().ok()?;
    let month: u32 = dp.next()?.parse().ok()?;
    let day: u32 = dp.next()?.parse().ok()?;
    if dp.next().is_some()
        || !(1..=12).contains(&month)
        || !(1..=days_in_month(year, month)).contains(&day)
    {
        return None;
    }
    let mut tp = time.split(':');
    let hour: u64 = tp.next()?.parse().ok()?;
    let minute: u64 = tp.next()?.parse().ok()?;
    let second: u64 = tp.next()?.parse().ok()?;
    if tp.next().is_some() || hour > 23 || minute > 59 || second > 60 {
        return None;
    }
    let days = days_from_civil(year, month, day);
    if days < 0 {
        return None;
    }
    Some(days as u64 * 86_400 + hour * 3_600 + minute * 60 + second)
}

/// Length of `month` (1–12) of `year` in the proleptic Gregorian calendar.
fn days_in_month(year: i64, month: u32) -> u32 {
    match month {
        4 | 6 | 9 | 11 => 30,
        2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
        2 => 28,
        _ => 31,
    }
}

/// Days since 1970-01-01 (Howard Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
#Software: SGOS 6.5\n\
#Version: 1.0\n\
#Fields: date time time-taken c-ip sc-status cs-method cs-host cs-uri-path sc-bytes\n\
2015-03-01 08:00:12 120 10.1.2.3 200 GET update.example.com /check/version 512\n\
2015-03-01 08:00:15 80 10.1.2.4 200 GET news.example.org /feed 2048\n\
2015-03-01 08:00:20 95 10.1.2.3 404 GET - / 0\n";

    #[test]
    fn parses_bluecoat_sample() {
        let o = read_elff(SAMPLE.as_bytes()).unwrap();
        assert_eq!(o.records.len(), 2);
        assert_eq!(o.errors.len(), 1, "the '-' host line is rejected");
        assert_eq!(o.malformed_lines, 1);
        let r = &o.records[0];
        assert_eq!(r.source, "10.1.2.3");
        assert_eq!(r.domain, "update.example.com");
        assert_eq!(r.url_token, "check");
    }

    #[test]
    fn invalid_utf8_counts_as_malformed_line() {
        let mut log = b"#Fields: x-timestamp c-ip cs-host\n".to_vec();
        log.extend_from_slice(b"1000 10.0.0.1 a.com\n");
        log.extend_from_slice(&[0x80, 0x81, b' ', 0xff, b'\n']);
        log.extend_from_slice(b"1060 10.0.0.1 a.com\n");
        let o = read_elff(log.as_slice()).unwrap();
        assert_eq!(o.records.len(), 2);
        assert_eq!(o.malformed_lines, 1);
    }

    #[test]
    fn datetime_epoch_known_values() {
        assert_eq!(parse_datetime("1970-01-01", "00:00:00"), Some(0));
        assert_eq!(parse_datetime("1970-01-02", "00:00:01"), Some(86_401));
        // 2015-03-01 00:00:00 UTC = 1425168000.
        assert_eq!(
            parse_datetime("2015-03-01", "00:00:00"),
            Some(1_425_168_000)
        );
        // Leap year check: 2016-02-29 exists.
        assert!(parse_datetime("2016-02-29", "12:00:00").is_some());
    }

    #[test]
    fn datetime_rejects_garbage() {
        assert_eq!(parse_datetime("2015-13-01", "00:00:00"), None);
        assert_eq!(parse_datetime("2015-03-01", "24:00:00"), None);
        assert_eq!(parse_datetime("notadate", "00:00:00"), None);
        assert_eq!(parse_datetime("2015-03", "00:00:00"), None);
        assert_eq!(parse_datetime("1960-01-01", "00:00:00"), None, "pre-epoch");
        // Days past the end of their month, which would otherwise alias
        // the first days of the next one.
        assert_eq!(parse_datetime("2015-02-29", "00:00:00"), None);
        assert_eq!(parse_datetime("2015-02-31", "00:00:00"), None);
        assert_eq!(parse_datetime("2015-04-31", "00:00:00"), None);
        assert_eq!(parse_datetime("1900-02-29", "00:00:00"), None, "century");
        assert!(parse_datetime("2016-02-29", "00:00:00").is_some());
        assert!(parse_datetime("2000-02-29", "00:00:00").is_some());
        assert!(parse_datetime("2015-12-31", "00:00:00").is_some());
    }

    #[test]
    fn timestamp_column_takes_precedence() {
        let log = "#Fields: x-timestamp c-ip cs-host\n1425168000 10.0.0.1 a.com\n";
        let o = read_elff(log.as_bytes()).unwrap();
        assert_eq!(o.records[0].timestamp, 1_425_168_000);
    }

    #[test]
    fn the_requested_host_wins_over_the_proxy_name_in_either_order() {
        for (fields, line) in [
            (
                "date time c-ip cs-host cs-uri-path s-hostname",
                "2015-03-01 08:00:00 10.0.0.1 c2.example.biz /a proxy-sg-01",
            ),
            (
                "date time c-ip s-hostname cs-uri-path cs(Host)",
                "2015-03-01 08:00:00 10.0.0.1 proxy-sg-01 /a c2.example.biz",
            ),
        ] {
            let log = format!("#Fields: {fields}\n{line}\n");
            let o = read_elff(log.as_bytes()).unwrap();
            assert_eq!(o.records[0].domain, "c2.example.biz", "{fields}");
        }
        // Without a requested-host column the proxy name is the fallback.
        let log = "#Fields: date time c-ip s-hostname\n2015-03-01 08:00:00 10.0.0.1 proxy-sg-01\n";
        let o = read_elff(log.as_bytes()).unwrap();
        assert_eq!(o.records[0].domain, "proxy-sg-01");
    }

    #[test]
    fn record_before_fields_is_error() {
        let log = "2015-03-01 08:00:12 10.1.2.3 a.com\n#Fields: date time c-ip cs-host\n";
        let o = read_elff(log.as_bytes()).unwrap();
        assert_eq!(o.errors.len(), 1);
        assert!(o.errors[0].reason.contains("#Fields"));
    }

    #[test]
    fn short_lines_reported() {
        let log = "#Fields: date time c-ip cs-host\n2015-03-01 08:00:12 10.1.2.3\n";
        let o = read_elff(log.as_bytes()).unwrap();
        assert_eq!(o.records.len(), 0);
        assert!(o.errors[0].reason.contains("expected 4 fields"));
    }

    #[test]
    fn a_short_line_is_reported_short_before_its_bad_timestamp() {
        let log = "#Fields: c-ip x-timestamp cs-host sc-status\n\
                   10.0.0.1 noon a.com\n\
                   10.0.0.1 noon\n\
                   10.0.0.1 noon a.com 200 extra\n\
                   10.0.0.1\n";
        let o = read_elff(log.as_bytes()).unwrap();
        let reasons: Vec<&str> = o.errors.iter().map(|e| e.reason.as_str()).collect();
        assert_eq!(
            reasons,
            [
                "expected 4 fields, got 3",
                "expected 4 fields, got 2",
                "invalid timestamp `noon`",
                "expected 4 fields, got 1",
            ]
        );
    }

    #[test]
    fn missing_required_columns_reported() {
        let log = "#Fields: date time sc-status\n2015-03-01 08:00:12 200\n";
        let o = read_elff(log.as_bytes()).unwrap();
        assert!(o.errors[0].reason.contains("source"));
    }

    #[test]
    fn incremental_parser_matches_streaming_reader() {
        let mut parser = ElffParser::new();
        let err = parser
            .parse_data_line("1000 10.0.0.1 a.com", 1)
            .unwrap_err();
        assert!(err.reason.contains("#Fields"));
        parser.set_schema(" x-timestamp c-ip cs-host");
        let r = parser.parse_data_line("1000 10.0.0.1 a.com", 2).unwrap();
        assert_eq!(r.timestamp, 1000);
        assert_eq!(r.domain, "a.com");
    }

    #[test]
    fn path_token_extraction() {
        assert_eq!(first_path_token("/check/version"), "check");
        assert_eq!(first_path_token("/feed?id=7"), "feed");
        assert_eq!(first_path_token("/"), "");
        assert_eq!(first_path_token("plain"), "plain");
    }

    #[test]
    fn intervals_survive_roundtrip_to_pipeline_types() {
        // 60 s beacon in ELFF form: the parsed records produce exact
        // 60-second intervals.
        let mut log = String::from("#Fields: date time c-ip cs-host cs-uri-path\n");
        for i in 0..5u64 {
            let minute = i;
            log.push_str(&format!(
                "2015-03-01 08:{minute:02}:00 10.0.0.1 c2.example.biz /a9f{i}\n"
            ));
        }
        let o = read_elff(log.as_bytes()).unwrap();
        assert_eq!(o.records.len(), 5);
        for w in o.records.windows(2) {
            assert_eq!(w[1].timestamp - w[0].timestamp, 60);
        }
    }
}
