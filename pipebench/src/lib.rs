//! `pipebench` — the end-to-end and per-layer benchmark of the BAYWATCH
//! pipeline. One invocation runs one workload for a fixed number of
//! seconds, checks the program's outputs, and reports every metric named
//! in `BENCHMARK.json`. README.md explains the workloads and metrics; the
//! program is driven only through the public API listed there.

pub mod alloc;
mod batch;
pub mod input;
mod stats;
mod stream;
pub mod trace;

use std::collections::BTreeMap;

use baywatch_core::pipeline::BaywatchConfig;
use baywatch_obs::json::JsonWriter;

use input::Sizes;
use trace::Recorder;

/// A metric name and its unit, as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What an untraced run reports (`BENCHMARK.json` → `end_to_end`).
pub const END_TO_END: &[MetricDef] = &[
    def("lines_per_s", "1/s"),
    def("op_p50_ms", "ms"),
    def("op_p90_ms", "ms"),
    def("peak_rss_mb", "MB"),
    def("planted_recall", "ratio"),
    def("setup_s", "s"),
];

/// What a traced run reports (`BENCHMARK.json` → `per_layer`). A metric
/// whose layer the workload does not run reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Harness spans around the public calls.
    def("gen.busy_s", "s"),
    def("engine_new.busy_s", "s"),
    def("io.parse.busy_s", "s"),
    def("io.parse.share", "ratio"),
    def("io.parse.lines", "count"),
    def("io.parse.malformed", "count"),
    def("analyze.busy_s", "s"),
    def("analyze.share", "ratio"),
    def("report.export.busy_s", "s"),
    def("report.export.share", "ratio"),
    def("report.export.bytes", "B"),
    def("alloc.count", "count"),
    def("alloc.bytes", "B"),
    // Inside `analyze`, from `span.analyze.*` and `FilterStats`.
    def("popularity.busy_s", "s"),
    def("popularity.share", "ratio"),
    def("extract.busy_s", "s"),
    def("extract.share", "ratio"),
    def("extract.pairs", "count"),
    def("whitelist.global.busy_s", "s"),
    def("whitelist.global.share", "ratio"),
    def("whitelist.global.dropped", "count"),
    def("whitelist.local.busy_s", "s"),
    def("whitelist.local.share", "ratio"),
    def("whitelist.local.dropped", "count"),
    def("detect.busy_s", "s"),
    def("detect.share", "ratio"),
    def("detect.pairs_in", "count"),
    def("detect.periodic", "count"),
    def("token_filter.busy_s", "s"),
    def("token_filter.share", "ratio"),
    def("token_filter.dropped", "count"),
    def("novelty.busy_s", "s"),
    def("novelty.share", "ratio"),
    def("novelty.dropped", "count"),
    def("lm_rank.busy_s", "s"),
    def("lm_rank.share", "ratio"),
    def("lm_rank.reported", "count"),
    // Detector stages: shares of the four instrumented stages' sum.
    def("periodogram.share", "ratio"),
    def("permutation.share", "ratio"),
    def("acf.share", "ratio"),
    def("gmm.share", "ratio"),
    def("detector.pairs", "count"),
    def("detector.series_bins_sum", "count"),
    def("detector.raw_candidates", "count"),
    // `detect_mix` only: the detector's public call, single-threaded.
    def("detector.detect.busy_s", "s"),
    def("detector.pairs_per_s", "1/s"),
    def("detector.rejected_at_permutation", "count"),
    def("periodogram.busy_s", "s"),
    def("permutation.busy_s", "s"),
    def("acf.busy_s", "s"),
    def("gmm.busy_s", "s"),
    def("detector.other_s", "s"),
    def("workspace.plans_built", "count"),
    def("workspace.plans_built_c2c", "count"),
    def("workspace.plans_built_r2c", "count"),
    def("workspace.plan_hit_rate", "ratio"),
    def("workspace.transforms_run", "count"),
    // `batch_tail` only: the scale curve over input prefixes.
    def("scale.1e4.lines_per_s", "1/s"),
    def("scale.1e5.lines_per_s", "1/s"),
    def("scale.full.lines_per_s", "1/s"),
    // `stream_soak` only.
    def("stream.close_tick.busy_s", "s"),
    def("stream.close_tick.share", "ratio"),
    def("stream.close_tick.ticks", "count"),
    def("stream.buffer.busy_s", "s"),
    def("stream.buffer.share", "ratio"),
    def("stream.buffer.events", "count"),
    def("stream.tick_p50_ms", "ms"),
    def("stream.tick_p99_ms", "ms"),
    def("stream.ticks_degraded", "count"),
    def("stream.detect_runs", "count"),
    def("stream.detect_cached", "count"),
    def("stream.verdict_cache_hit_rate", "ratio"),
    def("stream.pairs_evicted", "count"),
    def("stream.pairs_readmitted", "count"),
    def("stream.resident_bytes_peak", "B"),
    def("stream.live_pairs_peak", "count"),
    def("stream.rss_per_modelled_byte", "ratio"),
    def("stream.final_export.busy_s", "s"),
    // Every workload.
    def("false_periodic", "count"),
    def("trace.overhead_ratio", "ratio"),
    def("trace.coverage", "ratio"),
    def("input.fnv32", "count"),
];

/// The four workloads (`BENCHMARK.json` → `workloads`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchWeek,
    BatchTail,
    DetectMix,
    StreamSoak,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchWeek,
        Workload::BatchTail,
        Workload::DetectMix,
        Workload::StreamSoak,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchWeek => "batch_week",
            Workload::BatchTail => "batch_tail",
            Workload::DetectMix => "detect_mix",
            Workload::StreamSoak => "stream_soak",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    pub sizes: Sizes,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and detection quality is above its floor.
    pub correct: bool,
    /// Operations (analysed windows or closed ticks) in timed repetitions.
    pub attempted: u64,
    /// Operations on which some check failed.
    pub failed: u64,
    /// `END_TO_END` (untraced) or `PER_LAYER` (traced), in table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable context: sample counts, failed checks, diagnostics.
    pub notes: Vec<String>,
    /// The harness spans of a traced run.
    pub recorder: Recorder,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("correct");
        w.raw(if self.correct { "true" } else { "false" });
        w.end_value();
        w.key("attempted");
        w.uint(self.attempted);
        w.key("failed");
        w.uint(self.failed);
        w.key("metrics");
        w.raw("{");
        for (def, value) in &self.metrics {
            w.key(def.name);
            w.raw("{");
            w.key("value");
            // Shortest round-trip form: every digit that was measured.
            w.raw(&if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            });
            w.end_value();
            w.key("unit");
            w.string(def.unit);
            w.raw("}");
            w.end_value();
        }
        w.raw("}");
        w.raw("}");
        w.finish()
    }
}

/// The configuration every workload pins: τ_P = 5 % and two MapReduce
/// worker threads whatever the host has, so the same code path runs
/// everywhere.
pub fn pinned_config() -> BaywatchConfig {
    let mut config = BaywatchConfig {
        local_tau: 0.05,
        ..Default::default()
    };
    config.mapreduce.threads = 2;
    config
}

/// Named values collected during a run.
#[derive(Debug, Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// `<layer>.busy_s` and `<layer>.share` of `region` seconds.
    fn set_busy(&mut self, busy: &'static str, share: &'static str, seconds: f64, region: f64) {
        self.set(busy, seconds);
        self.set(share, if region > 0.0 { seconds / region } else { 0.0 });
    }

    fn table(&self, defs: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        defs.iter()
            .map(|d| (*d, self.0.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Shared tail of both engines' runs: picks the table and judges.
/// `counts` is (operations attempted, operations failed).
fn finish(
    opts: &Options,
    m: &Metrics,
    counts: (u64, u64),
    quality_ok: bool,
    notes: Vec<String>,
    recorder: Recorder,
) -> Outcome {
    let (attempted, failed) = counts;
    Outcome {
        correct: failed == 0 && quality_ok && attempted > 0,
        attempted,
        failed,
        metrics: m.table(if opts.trace { PER_LAYER } else { END_TO_END }),
        notes,
        recorder,
    }
}

/// Peak and current resident set of this process in MB, from
/// `/proc/self/status` (0 where that does not exist).
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// The repetitions of one run, in the order they ran.
struct Repetitions<R> {
    /// The untimed first one: it fills caches, grows the heap to its
    /// working size and supplies the reference exports.
    warmup: R,
    /// `(VmHWM, VmRSS)` in MB right after `warmup` — not at the end,
    /// because glibc keeps freed arena memory and the high-water mark
    /// creeps up with the number of repetitions.
    rss_after_warmup: (f64, f64),
    /// Timed, recorder off: the end-to-end metrics come from these.
    plain: Vec<R>,
    /// Timed, recorder on (traced runs only): the per-layer metrics.
    traced: Vec<R>,
}

impl<R> Repetitions<R> {
    /// Repeats `one` for `opts.seconds`, at least twice per kind. A traced
    /// run spends the first 40 % of its time untraced, to have the same
    /// process's untraced time to compare (`trace.overhead_ratio`), the
    /// next 45 % traced, and leaves the rest to the workload's extras.
    fn run(opts: &Options, rec: &mut Recorder, mut one: impl FnMut(&mut Recorder) -> R) -> Self {
        let warmup = one(rec);
        let rss_after_warmup = rss_mb();
        let mut timed = |rec: &mut Recorder, seconds: f64| {
            let start = std::time::Instant::now();
            let mut reps = Vec::new();
            while reps.len() < 2 || start.elapsed().as_secs_f64() < seconds {
                reps.push(one(rec));
            }
            reps
        };
        let plain = timed(rec, if opts.trace { 0.4 } else { 1.0 } * opts.seconds);
        let traced = if opts.trace {
            rec.set_enabled(true);
            timed(rec, 0.45 * opts.seconds)
        } else {
            Vec::new()
        };
        Self {
            warmup,
            rss_after_warmup,
            plain,
            traced,
        }
    }

    fn all(&self) -> impl Iterator<Item = &R> {
        std::iter::once(&self.warmup)
            .chain(&self.plain)
            .chain(&self.traced)
    }
}

/// Runs `setup` 5–25 times, for about a tenth of the measuring time, and
/// keeps the last value. Returns it with the median of what `setup`
/// reported (seconds generating the input, seconds in all) over the runs:
/// set-up is short, so one timing of it would mostly measure the host's
/// mood.
fn repeat_setup<T>(opts: &Options, mut setup: impl FnMut() -> (T, f64, f64)) -> (T, f64, f64) {
    let start = std::time::Instant::now();
    let (mut gens, mut totals) = (Vec::new(), Vec::new());
    loop {
        let (value, gen_s, total_s) = setup();
        gens.push(gen_s);
        totals.push(total_s);
        let spent = start.elapsed().as_secs_f64();
        let done = totals.len() >= 25 || (totals.len() >= 5 && spent >= 0.1 * opts.seconds);
        if done {
            return (value, stats::median(&gens), stats::median(&totals));
        }
        drop(value);
    }
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::StreamSoak => stream::run(opts),
        _ => batch::run(opts),
    }
}
