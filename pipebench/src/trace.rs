//! The harness's own span recorder: one span around each public call the
//! benchmark makes. Durations are always measured (the end-to-end metrics
//! need them); span *records* are kept only on traced runs, in memory,
//! and written out once at exit.

use std::time::Instant;

use baywatch_obs::json::JsonWriter;

/// One closed (or still open) span. `parent` indexes into the same list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Recorder::open`]; give it back to `close`.
#[derive(Debug)]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns span recording on or off (durations are measured either way).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts measuring `name`, nested under whatever is open.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Stops measuring; returns the elapsed seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = (end - self.origin).as_nanos() as u64;
            // Spans close innermost-first, so `index` is on top.
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close in LIFO order");
        }
        (end - open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `[{"name":…,"parent":…,"start_ns":…,"end_ns":…},…]`
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.raw("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("{");
            w.key("name");
            w.string(span.name);
            w.key("parent");
            match span.parent {
                Some(p) => w.uint(p as u64),
                None => {
                    w.raw("null");
                    w.end_value();
                }
            }
            w.key("start_ns");
            w.uint(span.start_ns);
            w.key("end_ns");
            w.uint(span.end_ns);
            w.raw("}");
        }
        w.raw("]");
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}
