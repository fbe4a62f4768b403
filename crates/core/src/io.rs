//! Log-file ingestion and export.
//!
//! The paper reads BlueCoat web-proxy logs from HDFS; this module provides
//! the equivalent single-machine plumbing: a tab-separated on-disk format
//! (`timestamp \t source \t domain \t url_token`) with a streaming parser
//! that reports malformed lines instead of aborting, plus a writer for
//! round-tripping simulated traces.
//!
//! The readers ([`read_records`], [`crate::elff::read_elff`]) parse
//! line-aligned blocks of the stream on every available core and merge
//! the parts in stream order, so what they return does not depend on the
//! core count. A malformed line is counted exactly in the
//! [`ReadOutcome`]; that count is the ingest health signal.

use std::collections::VecDeque;
use std::io::{BufRead, ErrorKind, Write};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};

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

    /// Appends the outcome of the lines that follow this one's: records in
    /// order, the exact malformed count, and error samples up to the bound.
    fn absorb(&mut self, mut part: ReadOutcome) {
        self.records.append(&mut part.records);
        self.malformed_lines += part.malformed_lines;
        let room = ERROR_SAMPLE_LIMIT.saturating_sub(self.errors.len());
        self.errors.extend(part.errors.into_iter().take(room));
    }
}

/// Reads records from any `BufRead` source. Lines that are empty or start
/// with `#` are skipped. Ingest is lenient: a line that is truncated,
/// garbled, or not valid UTF-8 is counted and sampled in the outcome — it
/// never aborts the stream.
///
/// A stream longer than one block (256 KiB) is parsed on every available
/// core, in line-aligned blocks merged in stream order: the outcome —
/// records, error samples, malformed count — is the same byte for byte
/// whatever the core count.
///
/// # Errors
///
/// Returns the underlying I/O error if the stream itself fails (an
/// `Interrupted` read is retried); per-line parse failures are collected
/// in the outcome instead.
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

/// Bytes a block of [`read_lenient`] holds before it is cut at its last
/// newline.
const BLOCK_BYTES: usize = 256 * 1024;

/// The reader behind [`read_records`] and
/// [`read_elff`](crate::elff::read_elff): every data line of `format` is
/// parsed, and a line that fails is counted instead of ending the stream.
/// Blocks of the stream are parsed on every available core.
pub(crate) fn read_lenient<R: BufRead, F: LineFormat + Clone + Send>(
    reader: R,
    format: F,
) -> std::io::Result<ReadOutcome> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    read_blocks(reader, format, BLOCK_BYTES, workers)
}

/// [`read_lenient`] with its block size (positive) and worker count as
/// arguments.
///
/// The calling thread cuts the stream into line-aligned blocks and, for
/// each, notes the line number it starts at and the state `format` is in
/// there: it counts the block's newlines and runs `classify` on the lines
/// that may be directives (see [`may_be_directive`]), which are the only
/// lines that change the state. Scoped workers parse the blocks, each
/// line exactly as the per-line loop would under that state and number,
/// and the parts are merged in stream order while later blocks are still
/// being read — at most `2 × workers` blocks are in flight. The outcome
/// therefore depends neither on the worker count nor on the block size.
/// A stream of one block, or a single worker, is parsed on the calling
/// thread and spawns nothing.
fn read_blocks<R: BufRead, F: LineFormat + Clone + Send>(
    mut reader: R,
    mut format: F,
    block_bytes: usize,
    workers: usize,
) -> std::io::Result<ReadOutcome> {
    let mut blocks = Blocks {
        size: block_bytes,
        carry: Vec::new(),
        done: false,
    };
    let mut outcome = ReadOutcome::default();
    let mut block = blocks.next(&mut reader)?;
    if workers < 2 || blocks.exhausted(&mut reader)? {
        let mut line_number = 1;
        while let Some(bytes) = block {
            line_number += parse_block(&mut format, &bytes, line_number, &mut outcome);
            block = blocks.next(&mut reader)?;
        }
        return Ok(outcome);
    }

    let (jobs, queue) = mpsc::channel::<Job<F>>();
    // The workers own the queue: were they all gone, the queued jobs (and
    // their result senders) would drop with it instead of being waited on.
    let queue = Arc::new(Mutex::new(queue));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            scope.spawn(move || parse_jobs(&queue));
        }
        drop(queue);
        // One result channel per block, oldest first. A worker that
        // panicked drops its block's sender: the merge then stops, and the
        // scope re-raises the panic once every worker has returned.
        let mut in_flight: VecDeque<Receiver<ReadOutcome>> = VecDeque::new();
        let mut line_number = 1;
        while let Some(bytes) = block {
            let state = format.clone();
            let lines = track_directives(&mut format, &bytes);
            let (done, part) = mpsc::sync_channel(1);
            let job = Job {
                bytes,
                format: state,
                line_number,
                lines,
                done,
            };
            if jobs.send(job).is_err() {
                return Ok(outcome);
            }
            line_number += lines;
            in_flight.push_back(part);
            while let Some(oldest) = in_flight.front() {
                let ready = if in_flight.len() >= 2 * workers {
                    oldest.recv().map_err(|_| TryRecvError::Disconnected)
                } else {
                    oldest.try_recv()
                };
                match ready {
                    Ok(part) => outcome.absorb(part),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Ok(outcome),
                }
                in_flight.pop_front();
            }
            block = blocks.next(&mut reader)?;
        }
        drop(jobs);
        for part in in_flight {
            match part.recv() {
                Ok(part) => outcome.absorb(part),
                Err(_) => break,
            }
        }
        Ok(outcome)
    })
}

/// One block for a worker: its bytes, the format's state and the line
/// number at its start, its line count, and where its part goes.
struct Job<F> {
    bytes: Vec<u8>,
    format: F,
    line_number: usize,
    lines: usize,
    done: SyncSender<ReadOutcome>,
}

/// A worker of [`read_blocks`]: parses blocks from `queue` until the
/// reader hangs up.
fn parse_jobs<F: LineFormat>(queue: &Mutex<Receiver<Job<F>>>) {
    loop {
        // The guard drops with this statement: the lock is held for the
        // claim only, and the claim cannot panic, so the queue behind a
        // poisoned lock is still whole.
        let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(mut job) = claimed else {
            return;
        };
        let mut part = ReadOutcome {
            records: Vec::with_capacity(job.lines),
            ..ReadOutcome::default()
        };
        parse_block(&mut job.format, &job.bytes, job.line_number, &mut part);
        // The reader stops listening only when it returns early (an I/O
        // error or a panicked worker); the part is not needed then.
        job.done.send(part).ok();
    }
}

/// Parses every line of `block`, the first numbered `line_number`, into
/// `outcome`, exactly as the per-line loop does; returns the line count.
fn parse_block(
    format: &mut impl LineFormat,
    block: &[u8],
    line_number: usize,
    outcome: &mut ReadOutcome,
) -> usize {
    let mut lines = 0;
    for raw in block.split_inclusive(|&b| b == b'\n') {
        let trimmed = String::from_utf8_lossy(raw);
        let trimmed = trimmed.trim();
        if format.classify(trimmed) {
            match format.parse(trimmed, line_number + lines) {
                Ok(r) => outcome.records.push(r),
                Err(e) => outcome.note_error(e),
            }
        }
        lines += 1;
    }
    lines
}

/// Advances `format` past the directives of `block` and returns the
/// block's line count: only a line that [may be a directive](may_be_directive)
/// goes through `classify`.
fn track_directives(format: &mut impl LineFormat, block: &[u8]) -> usize {
    let (mut lines, mut start) = (0, 0);
    let mut visit = |raw: &[u8]| {
        if may_be_directive(raw) {
            format.classify(String::from_utf8_lossy(raw).trim());
        }
        lines += 1;
    };
    for end in newlines(block) {
        visit(&block[start..=end]);
        start = end + 1;
    }
    if start < block.len() {
        visit(&block[start..]);
    }
    lines
}

/// The positions of the `\n` bytes of `bytes`, in order, found eight
/// bytes at a time: in `x = word ^ 0x0a…0a` a byte is zero exactly where
/// `!(((x & 0x7f…7f) + 0x7f…7f) | x | 0x7f…7f)` has its high bit (no sum
/// carries into the next byte).
fn newlines(bytes: &[u8]) -> impl Iterator<Item = usize> + '_ {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    let in_words = words.iter().enumerate().flat_map(|(i, word)| {
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        let mut found = !(((x & LOW7) + LOW7) | x | LOW7);
        std::iter::from_fn(move || {
            (found != 0).then(|| {
                let bit = found.trailing_zeros() as usize;
                found &= found - 1;
                i * 8 + bit / 8
            })
        })
    });
    let base = words.len() * 8;
    let in_tail = tail
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(move |(j, _)| base + j);
    in_words.chain(in_tail)
}

/// Whether the trimmed text of the raw line `raw` may begin with `#`: its
/// first byte past ASCII whitespace (as `str::trim` counts it) is `#`, or
/// starts a non-ASCII character — Unicode whitespace such as U+3000 that
/// `trim` also strips, or invalid UTF-8, which the exact path sorts out.
fn may_be_directive(raw: &[u8]) -> bool {
    raw.iter()
        .find(|&&b| !(b.is_ascii() && char::from(b).is_whitespace()))
        .is_some_and(|&b| b == b'#' || !b.is_ascii())
}

/// Cuts a stream into blocks of whole lines: a block is filled to its
/// size and cut after its last newline, the rest opening the next block.
/// A line longer than a block is read to its end; the stream's last block
/// may end without a newline.
struct Blocks {
    size: usize,
    carry: Vec<u8>,
    done: bool,
}

impl Blocks {
    /// The next block, or `None` at the end of the stream.
    fn next<R: BufRead>(&mut self, reader: &mut R) -> std::io::Result<Option<Vec<u8>>> {
        if self.done {
            return Ok(None);
        }
        // After a cut the carry holds a full block's capacity; a first
        // block grows to what the stream has, so a short one stays short.
        let mut block = std::mem::take(&mut self.carry);
        while block.len() < self.size {
            let available = match reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                self.done = true;
                return Ok((!block.is_empty()).then_some(block));
            }
            let taken = available.len().min(self.size - block.len());
            block.extend_from_slice(&available[..taken]);
            reader.consume(taken);
        }
        match block.iter().rposition(|&b| b == b'\n') {
            Some(end) => {
                let mut next = Vec::with_capacity(self.size);
                next.extend_from_slice(&block[end + 1..]);
                block.truncate(end + 1);
                self.carry = next;
            }
            None => {
                reader.read_until(b'\n', &mut block)?;
            }
        }
        Ok(Some(block))
    }

    /// Whether the stream has no byte left to cut.
    fn exhausted<R: BufRead>(&mut self, reader: &mut R) -> std::io::Result<bool> {
        if self.carry.is_empty() && !self.done {
            loop {
                match reader.fill_buf() {
                    Ok(available) => {
                        self.done = available.is_empty();
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(self.done)
    }
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

/// Reads a log file from disk with [`read_records`]: a file longer than
/// one block is parsed on every available core, and the outcome does not
/// depend on how many there are.
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

/// A log format's line rules. Directive handling (side-effecting schema
/// state) is separated from record parsing, so the block reader can track
/// the schema of every block before workers parse its data lines.
pub(crate) trait LineFormat {
    /// Consumes blank/directive lines; returns whether the line is a data
    /// line to parse. The state changes only on a line
    /// that starts with `#`: the block reader tracks directives by running
    /// only such lines through here.
    fn classify(&mut self, trimmed: &str) -> bool;
    /// Parses one data line.
    fn parse(&mut self, trimmed: &str, line_number: usize) -> Result<LogRecord, ParseLineError>;
}

/// The native tab-separated format of [`parse_line`].
#[derive(Clone)]
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
#[derive(Clone)]
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

    mod blocks {
        use super::*;
        use baywatch_stats::rng::{forall, Rng};
        use std::io::{self, Read};

        /// The per-line reference: each line split byte-wise on `\n`,
        /// lossily decoded and trimmed, through the same
        /// `classify`/`parse`, as the reader ran before it had blocks.
        fn per_line<R: BufRead>(
            mut reader: R,
            mut format: impl LineFormat,
        ) -> io::Result<ReadOutcome> {
            let mut outcome = ReadOutcome::default();
            let (mut raw, mut line_number) = (Vec::new(), 0);
            while reader.read_until(b'\n', &mut raw)? > 0 {
                line_number += 1;
                let line = String::from_utf8_lossy(&raw);
                let trimmed = line.trim();
                if format.classify(trimmed) {
                    match format.parse(trimmed, line_number) {
                        Ok(r) => outcome.records.push(r),
                        Err(e) => outcome.note_error(e),
                    }
                }
                raw.clear();
            }
            Ok(outcome)
        }

        fn assert_same(got: &ReadOutcome, want: &ReadOutcome, what: &str) {
            assert_eq!(got.records, want.records, "{what}: records");
            assert_eq!(got.errors, want.errors, "{what}: errors");
            assert_eq!(
                got.malformed_lines, want.malformed_lines,
                "{what}: malformed"
            );
        }

        fn elff() -> ElffLines {
            ElffLines(ElffParser::new())
        }

        /// Directives, comments and blank lines, `#`-led or led by ASCII
        /// or Unicode whitespace (U+3000, U+00A0, vertical tab).
        const DIRECTIVES: &[&[u8]] = &[
            b"#Fields: x-timestamp c-ip cs-host",
            b"#Fields: date time c-ip cs-host cs-uri-path",
            b"  #Fields: c-ip x-timestamp s-hostname cs-host sc-status",
            "\u{3000}#Fields: x-timestamp c-ip cs-host".as_bytes(),
            "\u{a0}\t#Fields: date time c-ip cs-host cs-uri-path".as_bytes(),
            b"\x0b#Fields: x-timestamp cs-host",
            b"#Software: SGOS 6.5",
            b"# comment",
            b"",
            b"   ",
            b"\x0c",
        ];

        /// Data lines for either format and every schema above, good and
        /// bad, among them a directive behind invalid UTF-8 and one behind
        /// U+001C (not whitespace), which are data lines.
        const DATA: &[&[u8]] = &[
            b"1000 10.0.0.1 a.com",
            b"2015-03-01 08:00:12 10.1.2.3 b.com /check/x",
            b"2015-02-30 08:00:12 10.1.2.3 b.com /bad-day",
            b"10.0.0.2 1060 proxy-sg c.com 200",
            b"1000\thost-a\ta.com\ttok",
            b"1060\thost-b\tb.com",
            b"garbage",
            b"\tmissing-ts",
            b"200\t\tb.com\tx",
            b"\x1c#Fields: c-ip x-timestamp cs-host",
            b"\xff\xfe\x00A",
            b"\xff#Fields: x-timestamp c-ip cs-host",
            b"\x80 1000 10.0.0.1 a.com",
        ];

        /// A random log: CRLF or LF endings, maybe no final newline,
        /// sometimes empty, only directives, or mostly malformed (more
        /// than the sample bound), with lines longer than small blocks.
        fn random_log(rng: &mut Rng) -> Vec<u8> {
            let mode = rng.random_range(0..5u32);
            let lines = match mode {
                0 => 0,
                3 => rng.random_range(ERROR_SAMPLE_LIMIT + 10..3 * ERROR_SAMPLE_LIMIT),
                _ => rng.random_range(1..120usize),
            };
            let mut log = Vec::new();
            for _ in 0..lines {
                let pick = rng.random_range(0..10u32);
                match (mode, pick) {
                    (1, _) | (2 | 4, 0..=2) => {
                        log.extend_from_slice(rng.choose(DIRECTIVES).copied().unwrap_or_default());
                    }
                    (3, 0..=7) => log.extend_from_slice(b"junk @@ line"),
                    (4, 3) => {
                        log.extend_from_slice(b"1000 10.0.0.1 ");
                        log.extend(std::iter::repeat_n(b'x', rng.random_range(100..400usize)));
                        log.extend_from_slice(b".com");
                    }
                    _ => log.extend_from_slice(rng.choose(DATA).copied().unwrap_or_default()),
                }
                if rng.random_range(0..4u32) == 0 {
                    log.push(b'\r');
                }
                log.push(b'\n');
            }
            if rng.random_range(0..3u32) == 0 {
                log.pop();
            }
            log
        }

        fn check_equivalence<F: LineFormat + Clone + Send>(format: F, name: &str, seed: u64) {
            forall(48, seed, |rng| {
                let log = random_log(rng);
                let want = per_line(log.as_slice(), format.clone()).unwrap();
                let sizes = [1, 2, 3, 7, 64, rng.random_range(1..4096usize), BLOCK_BYTES];
                for block_bytes in sizes {
                    for workers in [1, 2, 8] {
                        let got = read_blocks(log.as_slice(), format.clone(), block_bytes, workers)
                            .unwrap();
                        let what = format!("{name}, {block_bytes} B blocks, {workers} workers");
                        assert_same(&got, &want, &what);
                    }
                }
            });
        }

        #[test]
        fn blocks_read_what_the_per_line_loop_reads_tab() {
            check_equivalence(TabLines, "tab", 37);
        }

        #[test]
        fn blocks_read_what_the_per_line_loop_reads_elff() {
            check_equivalence(elff(), "elff", 38);
        }

        #[test]
        fn a_schema_change_in_a_later_block_reaches_its_lines() {
            let mut log = String::from("#Fields: x-timestamp c-ip cs-host\n");
            for i in 0..50u64 {
                log.push_str(&format!("{} 10.0.0.1 a.com\n", 1000 + i));
            }
            log.push_str("\u{3000}#Fields: c-ip x-timestamp cs-host\n");
            for i in 0..50u64 {
                log.push_str(&format!("10.0.0.2 {} b.com\n", 2000 + i));
            }
            for workers in [2, 8] {
                let o = read_blocks(log.as_bytes(), elff(), 64, workers).unwrap();
                assert_eq!(o.malformed_lines, 0);
                assert_eq!(o.records.len(), 100);
                assert_eq!(o.records[50].source, "10.0.0.2");
                assert_eq!(o.records[99].timestamp, 2049);
            }
        }

        /// Serves `data` `chunk` bytes per `fill_buf` and fails once with
        /// `kind` when it reaches byte `fail_at`.
        struct Flaky<'a> {
            data: &'a [u8],
            pos: usize,
            chunk: usize,
            fail_at: usize,
            kind: ErrorKind,
            failed: bool,
        }

        impl<'a> Flaky<'a> {
            fn new(data: &'a [u8], chunk: usize, fail_at: usize, kind: ErrorKind) -> Self {
                Flaky {
                    data,
                    pos: 0,
                    chunk,
                    fail_at,
                    kind,
                    failed: false,
                }
            }
        }

        impl Read for Flaky<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let available = self.fill_buf()?;
                let n = available.len().min(buf.len());
                buf[..n].copy_from_slice(&available[..n]);
                self.consume(n);
                Ok(n)
            }
        }

        impl BufRead for Flaky<'_> {
            fn fill_buf(&mut self) -> io::Result<&[u8]> {
                let mut end = (self.pos + self.chunk).min(self.data.len());
                if !self.failed {
                    if self.pos == self.fail_at {
                        self.failed = true;
                        return Err(io::Error::from(self.kind));
                    }
                    end = end.min(self.fail_at.max(self.pos));
                }
                Ok(&self.data[self.pos..end])
            }

            fn consume(&mut self, n: usize) {
                self.pos += n;
            }
        }

        fn tab_log(lines: u64) -> String {
            (0..lines)
                .map(|i| format!("{}\thost\td{}.com\ttok\n", 100 + i, i % 7))
                .collect()
        }

        #[test]
        fn an_interrupted_read_is_retried() {
            let data = tab_log(200);
            let want = per_line(data.as_bytes(), TabLines).unwrap();
            assert_eq!(want.records.len(), 200);
            for fail_at in [0, 1, 500, 2_000, data.len() - 1, data.len()] {
                for (block_bytes, workers) in [(64, 1), (64, 2), (300, 8), (BLOCK_BYTES, 2)] {
                    let reader = Flaky::new(data.as_bytes(), 37, fail_at, ErrorKind::Interrupted);
                    let got = read_blocks(reader, TabLines, block_bytes, workers).unwrap();
                    assert_same(&got, &want, &format!("interrupted at {fail_at}"));
                }
                let reader = Flaky::new(data.as_bytes(), 37, fail_at, ErrorKind::Interrupted);
                assert_same(&read_records(reader).unwrap(), &want, "read_records");
            }
        }

        #[test]
        fn any_other_read_error_ends_the_stream_with_it() {
            let data = tab_log(200);
            for fail_at in [0, 1, 500, 2_000, data.len() - 1, data.len()] {
                for (block_bytes, workers) in [(64, 1), (64, 2), (300, 8), (BLOCK_BYTES, 2)] {
                    let reader = Flaky::new(data.as_bytes(), 37, fail_at, ErrorKind::BrokenPipe);
                    let err = read_blocks(reader, TabLines, block_bytes, workers).unwrap_err();
                    assert_eq!(err.kind(), ErrorKind::BrokenPipe, "failed at {fail_at}");
                }
                let reader = Flaky::new(data.as_bytes(), 37, fail_at, ErrorKind::BrokenPipe);
                assert_eq!(
                    read_records(reader).unwrap_err().kind(),
                    ErrorKind::BrokenPipe
                );
            }
        }

        /// Tab lines, except that parsing `boom` panics.
        #[derive(Clone)]
        struct Bomb;

        impl LineFormat for Bomb {
            fn classify(&mut self, trimmed: &str) -> bool {
                TabLines.classify(trimmed)
            }

            fn parse(&mut self, trimmed: &str, n: usize) -> Result<LogRecord, ParseLineError> {
                assert_ne!(trimmed, "boom", "planted panic");
                parse_line(trimmed, n)
            }
        }

        #[test]
        fn a_panicking_worker_fails_the_read_instead_of_hanging_it() {
            let mut data = tab_log(300);
            data.insert_str(data.len() / 3, "boom\n");
            for workers in [2, 8] {
                let read = std::panic::catch_unwind(|| {
                    read_blocks(data.as_bytes(), Bomb, 64, workers).ok();
                });
                assert!(read.is_err(), "{workers} workers");
            }
        }

        #[test]
        fn newlines_are_found_in_every_byte_of_a_word() {
            forall(64, 39, |rng| {
                let len = rng.random_range(0..70usize);
                let bytes: Vec<u8> = (0..len)
                    .map(|_| *rng.choose(b"\n\x0a\x0b\x8a\x00\xffa#\r").unwrap_or(&b'a'))
                    .collect();
                let want: Vec<usize> = (0..len).filter(|&i| bytes[i] == b'\n').collect();
                assert_eq!(newlines(&bytes).collect::<Vec<_>>(), want, "{bytes:?}");
            });
        }

        #[test]
        fn only_hash_led_lines_change_the_state() {
            assert!(may_be_directive(b"#Fields: x"));
            assert!(may_be_directive(b" \t\x0b\x0c\r#x"));
            assert!(may_be_directive("\u{3000}#Fields: x".as_bytes()));
            assert!(may_be_directive(b"\xff"));
            assert!(!may_be_directive(b"1000 a #b"));
            assert!(!may_be_directive(b"\x1c#x"), "U+001C is not whitespace");
            assert!(!may_be_directive(b"  \r\n"));
            assert!(!may_be_directive(b""));
        }
    }
}
