//! The three batch workloads: log bytes → parse → `Baywatch::analyze` →
//! `export_json`, one fresh engine per repetition.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use baywatch_core::elff::read_elff;
use baywatch_core::io::read_records;
use baywatch_core::pipeline::{Baywatch, FilterStats};
use baywatch_core::report::export_json;
use baywatch_obs::{Clock, MetricsRegistry, MetricsSnapshot, MonotonicClock};
use baywatch_timeseries::detector::{DetectorObs, PeriodicityDetector};
use baywatch_timeseries::SpectralWorkspace;

use crate::input::{self, BatchInput};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::{alloc, finish, pinned_config, Metrics, Options, Outcome, Repetitions, Workload};

/// Ranked cases exported per window (all of them, on these inputs).
const TOP_K: usize = 64;

/// Detection-quality limits per workload — the lowest `planted_recall`
/// and the most ranked cases on non-planted destinations a run may show
/// and still be `correct`, whatever its speed (README, "Correctness
/// checks").
fn quality_limits(opts: &Options) -> (f64, usize) {
    match opts.workload {
        Workload::BatchWeek => (0.8, 2),
        Workload::BatchTail => (1.0, 4),
        // The permutation filter alone passes ~5 % of memoryless pairs.
        _ => (0.7, opts.sizes.mix_pairs / 4),
    }
}

/// One repetition: every window of the input through one fresh engine.
#[derive(Default)]
struct Rep {
    /// Σ window time: log bytes in, export string out.
    seconds: f64,
    window_s: Vec<f64>,
    lines: usize,
    malformed: usize,
    engine_new_s: f64,
    parse_s: f64,
    analyze_s: f64,
    export_s: f64,
    export_bytes: usize,
    stats: Vec<FilterStats>,
    /// Planted destinations among the ranked cases.
    found: BTreeSet<String>,
    /// Ranked cases on destinations that were not planted.
    false_cases: usize,
    failed_ops: u64,
    allocs: (u64, u64),
    snapshot: MetricsSnapshot,
}

fn telescopes(s: &FilterStats) -> bool {
    s.pairs >= s.after_global_whitelist
        && s.after_global_whitelist >= s.after_local_whitelist
        && s.after_local_whitelist >= s.periodic
        && s.periodic >= s.after_token_filter
        && s.after_token_filter >= s.after_novelty
        && s.after_novelty >= s.reported
}

/// The part of a [`BatchInput`] a repetition reads.
struct View<'a> {
    windows: Vec<&'a [u8]>,
    elff: bool,
    planted: &'a BTreeSet<String>,
}

/// Runs the view's windows through a fresh engine. `reference` holds the
/// first repetition's exports; later repetitions must reproduce them
/// byte for byte.
fn run_rep(
    opts: &Options,
    view: &View<'_>,
    rec: &mut Recorder,
    reference: Option<&mut Vec<String>>,
    notes: &mut Vec<String>,
) -> Rep {
    let open = rec.open("engine_new");
    let mut engine = Baywatch::new(pinned_config());
    let engine_new_s = rec.close(open);

    let mut rep = Rep {
        engine_new_s,
        ..Default::default()
    };
    let mut exports = Vec::new();
    // Traced repetitions also count allocations.
    let traced = rec.enabled();
    if traced {
        alloc::start();
    }
    for (index, bytes) in view.windows.iter().enumerate() {
        let window = rec.open("window");
        let open = rec.open("io.parse");
        let parsed = if view.elff {
            read_elff(*bytes)
        } else {
            read_records(*bytes)
        };
        // An in-memory reader has no I/O errors to return.
        let outcome = parsed.expect("reading from memory cannot fail");
        rep.parse_s += rec.close(open);
        let lines = outcome.records.len() + outcome.malformed_lines;
        let malformed = outcome.malformed_lines;

        let open = rec.open("analyze");
        let report = engine.analyze(outcome.records);
        rep.analyze_s += rec.close(open);

        let open = rec.open("report.export");
        let json = export_json(&report, &engine.metrics_snapshot(), TOP_K);
        rep.export_s += rec.close(open);
        let window_s = rec.close(window);

        let stats = report.stats;
        let mut problems = Vec::new();
        if malformed != 0 {
            problems.push(format!("{malformed} malformed lines"));
        }
        if !report.faults.is_clean() {
            problems.push("non-empty FaultReport".to_owned());
        }
        if stats.events != lines - malformed || !telescopes(&stats) {
            problems.push(format!("funnel does not telescope: {stats:?}"));
        }
        if opts.workload == Workload::DetectMix
            && !(stats.pairs == opts.sizes.mix_pairs && stats.after_local_whitelist == stats.pairs)
        {
            problems.push(format!(
                "detect_mix funnel lost pairs before filter 3: {} → {}",
                stats.pairs, stats.after_local_whitelist
            ));
        }
        if let Some(reference) = reference.as_deref().filter(|r| !r.is_empty()) {
            if reference.get(index) != Some(&json) {
                problems.push("export differs from the first repetition".to_owned());
            }
        }
        if !problems.is_empty() {
            rep.failed_ops += 1;
            notes.push(format!("window {index} failed: {}", problems.join("; ")));
        }

        rep.seconds += window_s;
        rep.window_s.push(window_s);
        rep.lines += lines;
        rep.malformed += malformed;
        rep.export_bytes += json.len();
        rep.stats.push(stats);
        for ranked in &report.ranked {
            let destination = &ranked.case.pair.destination;
            if view.planted.contains(destination) {
                rep.found.insert(destination.clone());
            } else {
                rep.false_cases += 1;
            }
        }
        exports.push(json);
    }
    if traced {
        rep.allocs = alloc::stop();
    }
    rep.snapshot = engine.metrics_snapshot();
    if let Some(reference) = reference {
        if reference.is_empty() {
            *reference = exports;
        }
    }
    rep
}

/// Sum (seconds) of the timing histogram `name` in a snapshot.
fn timing_s(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .timings
        .get(name)
        .map_or(0.0, |h| h.sum as f64 / 1e9)
}

fn generate(opts: &Options) -> BatchInput {
    match opts.workload {
        Workload::BatchWeek => input::batch_week(opts.seed, &opts.sizes),
        Workload::BatchTail => input::batch_tail(opts.seed, &opts.sizes),
        _ => input::detect_mix(opts.seed, &opts.sizes),
    }
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let mut rec = Recorder::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // ---- Set-up: generate the input and build an engine.
    let (input, gen_s, setup_s) = crate::repeat_setup(opts, || {
        let start = Instant::now();
        let input = generate(opts);
        let gen_s = start.elapsed().as_secs_f64();
        drop(Baywatch::new(pinned_config()));
        (input, gen_s, start.elapsed().as_secs_f64())
    });
    m.set("setup_s", setup_s);
    m.set("gen.busy_s", gen_s);
    m.set("input.fnv32", f64::from(input.fnv32));
    let view = View {
        windows: input.windows.iter().map(String::as_bytes).collect(),
        elff: input.elff,
        planted: &input.planted,
    };

    // ---- Repetitions; `reference` holds the first one's exports.
    let mut reference = Vec::new();
    let reps = Repetitions::run(opts, &mut rec, |rec| {
        run_rep(opts, &view, rec, Some(&mut reference), &mut notes)
    });
    let Repetitions {
        warmup,
        plain,
        traced,
        ..
    } = &reps;
    m.set("peak_rss_mb", reps.rss_after_warmup.0);

    // ---- End-to-end metrics, from the untraced repetitions.
    let rates: Vec<f64> = plain.iter().map(|r| r.lines as f64 / r.seconds).collect();
    let rep_s: Vec<f64> = plain
        .iter()
        .map(|r| (r.seconds * 1e3).round() / 1e3)
        .collect();
    let ops: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.window_s.iter().map(|s| s * 1e3))
        .collect();
    m.set("lines_per_s", median(&rates));
    m.set("op_p50_ms", percentile(&ops, 50.0));
    m.set("op_p90_ms", percentile(&ops, 90.0));
    notes.push(format!("repetition seconds {rep_s:?}"));
    notes.push(format!(
        "{} untraced repetitions, {} windows; window ms p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
        plain.len(),
        ops.len(),
        percentile(&ops, 50.0),
        percentile(&ops, 90.0),
        percentile(&ops, 99.0),
        percentile(&ops, 100.0),
    ));

    // ---- Detection quality, identical in every repetition.
    let (found, false_periodic) = (warmup.found.len(), warmup.false_cases);
    let recall = found as f64 / input.planted.len().max(1) as f64;
    m.set("planted_recall", recall);
    m.set("false_periodic", false_periodic as f64);
    let (min_recall, max_false) = quality_limits(opts);
    let quality_ok = recall >= min_recall && false_periodic <= max_false;
    notes.push(format!(
        "planted {} found {found}, {false_periodic} ranked cases not planted (floor {min_recall}, ceiling {max_false})",
        input.planted.len(),
    ));

    // ---- Per-layer metrics, from the traced repetitions.
    if opts.trace {
        layer_metrics(&mut m, plain, traced);
        match opts.workload {
            Workload::DetectMix => detector_loop(&input, &mut m, &mut rec, &mut notes),
            Workload::BatchTail => {
                // Untraced, like the repetitions `scale.full` comes from.
                rec.set_enabled(false);
                m.set("scale.full.lines_per_s", m.0["lines_per_s"]);
                scale_curve(opts, &view, &mut m, &mut rec, &mut notes);
            }
            _ => {}
        }
    }

    let counts = (
        reps.all().map(|r| r.window_s.len() as u64).sum(),
        reps.all().map(|r| r.failed_ops).sum(),
    );
    finish(opts, &m, counts, quality_ok, notes, rec)
}

fn layer_metrics(m: &mut Metrics, plain: &[Rep], traced: &[Rep]) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let region = med(&|r| r.seconds);
    let last = traced.last().expect("a traced run has traced repetitions");

    m.set("engine_new.busy_s", med(&|r| r.engine_new_s));
    m.set_busy(
        "io.parse.busy_s",
        "io.parse.share",
        med(&|r| r.parse_s),
        region,
    );
    m.set_busy(
        "analyze.busy_s",
        "analyze.share",
        med(&|r| r.analyze_s),
        region,
    );
    m.set_busy(
        "report.export.busy_s",
        "report.export.share",
        med(&|r| r.export_s),
        region,
    );
    m.set("io.parse.lines", last.lines as f64);
    m.set("io.parse.malformed", last.malformed as f64);
    m.set("report.export.bytes", last.export_bytes as f64);
    m.set("alloc.count", med(&|r| r.allocs.0 as f64));
    m.set("alloc.bytes", med(&|r| r.allocs.1 as f64));

    // The program's own per-filter spans, summed over the repetition's
    // windows (the engine, and so its registry, is fresh per repetition).
    let mut covered = med(&|r| r.parse_s) + med(&|r| r.export_s);
    for (span, busy, share) in [
        ("popularity", "popularity.busy_s", "popularity.share"),
        ("extract", "extract.busy_s", "extract.share"),
        (
            "whitelist.global",
            "whitelist.global.busy_s",
            "whitelist.global.share",
        ),
        (
            "whitelist.local",
            "whitelist.local.busy_s",
            "whitelist.local.share",
        ),
        ("detect", "detect.busy_s", "detect.share"),
        ("token_filter", "token_filter.busy_s", "token_filter.share"),
        ("novelty", "novelty.busy_s", "novelty.share"),
        ("lm_rank", "lm_rank.busy_s", "lm_rank.share"),
    ] {
        let name = format!("span.analyze.{span}");
        let seconds = med(&|r| timing_s(&r.snapshot, &name));
        m.set_busy(busy, share, seconds, region);
        covered += seconds;
    }
    m.set("trace.coverage", covered / region);
    let plain_region = median(&plain.iter().map(|r| r.seconds).collect::<Vec<_>>());
    m.set("trace.overhead_ratio", region / plain_region);

    let sum = |f: &dyn Fn(&FilterStats) -> usize| last.stats.iter().map(f).sum::<usize>() as f64;
    m.set("extract.pairs", sum(&|s| s.pairs));
    m.set(
        "whitelist.global.dropped",
        sum(&|s| s.pairs - s.after_global_whitelist),
    );
    m.set(
        "whitelist.local.dropped",
        sum(&|s| s.after_global_whitelist - s.after_local_whitelist),
    );
    m.set("detect.pairs_in", sum(&|s| s.after_local_whitelist));
    m.set("detect.periodic", sum(&|s| s.periodic));
    m.set(
        "token_filter.dropped",
        sum(&|s| s.periodic - s.after_token_filter),
    );
    m.set(
        "novelty.dropped",
        sum(&|s| s.after_token_filter - s.after_novelty),
    );
    m.set("lm_rank.reported", sum(&|s| s.reported));

    // In-pipeline detector stage timings add up over more threads than
    // cores (one per reduce partition), so only their ratios mean much.
    let stages = [
        ("detector.periodogram.nanos", "periodogram.share"),
        ("detector.permutation.nanos", "permutation.share"),
        ("detector.acf.nanos", "acf.share"),
        ("detector.gmm.nanos", "gmm.share"),
    ];
    let total: f64 = stages
        .iter()
        .map(|(t, _)| timing_s(&last.snapshot, t))
        .sum();
    for (timing, share) in stages {
        m.set(
            share,
            if total > 0.0 {
                timing_s(&last.snapshot, timing) / total
            } else {
                0.0
            },
        );
    }
    let counter = |name: &str| last.snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    m.set("detector.pairs", counter("detector.pairs_analyzed"));
    m.set(
        "detector.raw_candidates",
        counter("detector.periodogram.raw_candidates"),
    );
    m.set(
        "detector.series_bins_sum",
        last.snapshot
            .histograms
            .get("detector.series_bins")
            .map_or(0.0, |h| h.sum as f64),
    );
}

/// `detect_mix`, traced: the detector's public call over every generated
/// pair on this one thread, so its stage times are absolute (the
/// in-pipeline ones are not) and the workspace's plan cache is visible.
fn detector_loop(input: &BatchInput, m: &mut Metrics, rec: &mut Recorder, notes: &mut Vec<String>) {
    let outcome =
        read_records(input.windows[0].as_bytes()).expect("reading from memory cannot fail");
    let mut pairs: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    for r in outcome.records {
        pairs
            .entry((r.source, r.domain))
            .or_default()
            .push(r.timestamp);
    }
    let registry = MetricsRegistry::new();
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let detector = PeriodicityDetector::new(pinned_config().detector)
        .with_obs(DetectorObs::new(&registry, clock));
    let ws = SpectralWorkspace::new();

    let (mut rejected, mut periodic, mut errors) = (0usize, 0usize, 0usize);
    let open = rec.open("detector.detect");
    for timestamps in pairs.values_mut() {
        timestamps.sort_unstable();
        match detector.detect_in(&ws, timestamps) {
            Ok(report) => {
                rejected += usize::from(report.raw_candidates == 0);
                periodic += usize::from(report.is_periodic());
            }
            Err(_) => errors += 1,
        }
    }
    let busy = rec.close(open);

    let snapshot = registry.snapshot();
    let mut staged = 0.0;
    for (timing, name) in [
        ("detector.periodogram.nanos", "periodogram.busy_s"),
        ("detector.permutation.nanos", "permutation.busy_s"),
        ("detector.acf.nanos", "acf.busy_s"),
        ("detector.gmm.nanos", "gmm.busy_s"),
    ] {
        let seconds = timing_s(&snapshot, timing);
        m.set(name, seconds);
        staged += seconds;
    }
    m.set("detector.detect.busy_s", busy);
    m.set("detector.other_s", busy - staged);
    m.set("detector.pairs_per_s", pairs.len() as f64 / busy);
    m.set("detector.rejected_at_permutation", rejected as f64);
    m.set("workspace.plans_built", ws.plans_built() as f64);
    m.set("workspace.plans_built_c2c", ws.plans_built_c2c() as f64);
    m.set("workspace.plans_built_r2c", ws.plans_built_r2c() as f64);
    m.set(
        "workspace.plan_hit_rate",
        ws.plan_hits() as f64 / ws.plan_requests().max(1) as f64,
    );
    m.set("workspace.transforms_run", ws.transforms_run() as f64);
    notes.push(format!(
        "detector loop: {} pairs, {rejected} rejected at the permutation threshold, {periodic} periodic, {errors} errors, {busy:.3} s",
        pairs.len()
    ));
}

/// `batch_tail`, traced: throughput on the 10⁴- and 10⁵-line prefixes of
/// the input next to the full input — ROADMAP item 1's scale curve.
fn scale_curve(
    opts: &Options,
    view: &View<'_>,
    m: &mut Metrics,
    rec: &mut Recorder,
    notes: &mut Vec<String>,
) {
    let text = view.windows[0];
    let directives = text
        .split_inclusive(|&b| b == b'\n')
        .take_while(|l| l.starts_with(b"#"))
        .count();
    for (name, lines) in [
        ("scale.1e4.lines_per_s", 10_000),
        ("scale.1e5.lines_per_s", 100_000),
    ] {
        let end: usize = text
            .split_inclusive(|&b| b == b'\n')
            .take(directives + lines)
            .map(<[u8]>::len)
            .sum();
        let prefix = View {
            windows: vec![&text[..end]],
            ..*view
        };
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let rep = run_rep(opts, &prefix, rec, None, notes);
                rep.lines as f64 / rep.seconds
            })
            .collect();
        m.set(name, median(&rates));
    }
}
