//! Machine-readable detector benchmark: pairs/sec, per-stage nanos, and
//! plan-cache statistics of the detector, written as `BENCH_detector.json`
//! at the repository root.
//!
//! It is a *regression gate*: `--baseline PATH` compares a run against a
//! baseline — in CI the committed `BENCH_detector.json`. Every input is
//! seeded through `stats::rng`, whose stream is the same on every
//! machine, so the deterministic fields (detection checksums, checkpoint
//! and stream ledgers) must match the baseline exactly; the
//! cache hit rates must stay within the tolerance band. Absolute pairs/sec
//! numbers and elapsed times are recorded for the curious but never gated
//! on — they depend on the host.
//!
//! A checkpoint probe additionally runs one small pipeline corpus two
//! ways — plain and checkpointed — recording `checkpoints_written`/
//! `dlq_entries` accounting and the checkpoint overhead ratio, so a
//! checkpoint-overhead or DLQ-accounting regression trips the gate.
//!
//! A streaming probe drives the incremental `StreamingHunt` engine over a
//! seeded long-trace feed under a tight state budget, recording events/sec
//! and per-tick close latency (p50/p99/max — host-dependent, never gated),
//! exact-gating the stream ledger and detection-cache counts, and
//! ratio-gating the verdict-cache hit rate — the incremental engine's
//! reason to exist — like the FFT plan-cache hit rate.
//!
//! The JSON is written with `obs::json::JsonWriter` and read back, the
//! baseline too, with `obs::json::parse`.
//!
//! Usage:
//!
//! ```text
//! bench_detector [--out PATH] [--quick] [--baseline PATH] [--tolerance F]
//! ```
//!
//! * `--out PATH` — where to write the JSON (default `<repo>/BENCH_detector.json`).
//! * `--quick` — smaller corpus and a single timed pass (local smoke runs;
//!   quick output must not be blessed as the baseline).
//! * `--tolerance F` — relative band for ratio comparisons (default 0.25).

#![warn(clippy::unwrap_used)]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "experiment drivers time runs and write result files; nothing here feeds a verdict"
)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use baywatch_core::checkpoint::CheckpointSpec;
use baywatch_core::pipeline::{Baywatch, BaywatchConfig};
use baywatch_core::record::LogRecord;
use baywatch_core::stream::{StreamConfig, StreamingHunt};
use baywatch_core::ScheduleSpec;
use baywatch_netsim::adversarial::pathological_sparse_beacon;
use baywatch_netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch_netsim::synth::{multi_period_burst, SyntheticBeacon};
use baywatch_obs::clock::MonotonicClock;
use baywatch_obs::json::{parse, JsonValue, JsonWriter};
use baywatch_obs::registry::MetricsRegistry;
use baywatch_timeseries::detector::{DetectorConfig, DetectorObs, PeriodicityDetector};
use baywatch_timeseries::workspace::SpectralWorkspace;

/// Deterministic benchmark corpus: seeded beacon pairs spanning the
/// detector's interesting regimes. Periods repeat across seeds so the
/// plan cache sees both cold builds and warm hits, and series are long
/// enough (hundreds of events at minute-scale periods) that the spectral
/// stages dominate, as they do on real proxy-log pairs.
fn corpus(quick: bool) -> Vec<Vec<u64>> {
    let mut pairs = Vec::new();
    let periods: &[f64] = if quick {
        &[60.0, 300.0]
    } else {
        &[30.0, 60.0, 120.0, 300.0, 600.0]
    };
    let seeds_per_period: u64 = if quick { 2 } else { 3 };
    for (i, &period) in periods.iter().enumerate() {
        for seed in 0..seeds_per_period {
            // Clean, jittered, and lossy variants of the same period.
            pairs.push(
                SyntheticBeacon {
                    period,
                    count: 240,
                    ..Default::default()
                }
                .generate(1 + seed),
            );
            pairs.push(
                SyntheticBeacon {
                    period,
                    gaussian_sigma: period * 0.05,
                    p_miss: 0.2,
                    add_rate: 0.1,
                    count: 300,
                    ..Default::default()
                }
                .generate(100 + 10 * i as u64 + seed),
            );
        }
    }
    if !quick {
        for seed in 0..4 {
            pairs.push(multi_period_burst(0, 20, 16, 7.5, 600.0, 0.4, seed));
        }
    }
    pairs
}

/// The detector run's key under `"modes"`: the committed baseline names
/// the production path so.
const RUN_KEY: &str = "real_half";

struct DetectorRun {
    elapsed_ns: u128,
    detections_ok: usize,
    detections_err: usize,
    periodic_pairs: usize,
    // Σ round(best_period · 1000) over periodic pairs: a deterministic
    // fingerprint that flips if detection output changes.
    period_checksum: u64,
    stage_sums: [(String, u64, u64); 3],
    plan_requests: usize,
    plan_hits: usize,
    plans_built: usize,
    plans_built_c2c: usize,
    plans_built_r2c: usize,
    transforms_run: usize,
}

fn run_detector(pairs: &[Vec<u64>], passes: usize) -> DetectorRun {
    let registry = MetricsRegistry::new();
    let obs = DetectorObs::new(&registry, Arc::new(MonotonicClock::new()));
    let detector = PeriodicityDetector::new(DetectorConfig::default()).with_obs(obs);
    let ws = SpectralWorkspace::new();

    // One untimed warmup pass builds every FFT plan the corpus needs, so
    // the timed passes measure steady-state batch throughput.
    for ts in pairs {
        let _ = detector.detect_in(&ws, ts);
    }

    let mut detections_ok = 0usize;
    let mut detections_err = 0usize;
    let mut periodic_pairs = 0usize;
    let mut period_checksum = 0u64;
    let start = Instant::now();
    for _ in 0..passes {
        for ts in pairs {
            match detector.detect_in(&ws, ts) {
                Ok(report) => {
                    detections_ok += 1;
                    if report.is_periodic() {
                        periodic_pairs += 1;
                    }
                    if let Some(best) = report.best() {
                        period_checksum =
                            period_checksum.wrapping_add((best.period * 1000.0).round() as u64);
                    }
                }
                Err(_) => detections_err += 1,
            }
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();

    let snapshot = registry.snapshot();
    let stage = |name: &str| -> (u64, u64) {
        snapshot
            .timings
            .get(name)
            .map(|h| (h.sum, h.total))
            .unwrap_or((0, 0))
    };
    let stage_sums = ["periodogram", "permutation", "acf"].map(|s| {
        let (sum, total) = stage(&format!("detector.{s}.nanos"));
        (s.to_string(), sum, total)
    });

    DetectorRun {
        elapsed_ns,
        detections_ok,
        detections_err,
        periodic_pairs,
        period_checksum,
        stage_sums,
        plan_requests: ws.plan_requests(),
        plan_hits: ws.plan_hits(),
        plans_built: ws.plans_built(),
        plans_built_c2c: ws.plans_built_c2c(),
        plans_built_r2c: ws.plans_built_r2c(),
        transforms_run: ws.transforms_run(),
    }
}

/// `"key":{…}`, the body written by `fields`.
fn section(w: &mut JsonWriter, key: &str, fields: impl FnOnce(&mut JsonWriter)) {
    w.key(key);
    w.raw("{");
    fields(w);
    w.raw("}");
    w.end_value();
}

fn uint(w: &mut JsonWriter, key: &str, value: u64) {
    w.key(key);
    w.uint(value);
}

fn float(w: &mut JsonWriter, key: &str, value: f64, decimals: usize) {
    w.key(key);
    w.float(value, decimals);
}

fn write_detector(w: &mut JsonWriter, run: &DetectorRun) {
    let secs = run.elapsed_ns as f64 / 1e9;
    let hit_rate = if run.plan_requests > 0 {
        run.plan_hits as f64 / run.plan_requests as f64
    } else {
        0.0
    };
    section(w, RUN_KEY, |w| {
        float(
            w,
            "pairs_per_sec",
            run.detections_ok as f64 / secs.max(1e-12),
            1,
        );
        uint(w, "elapsed_ns", run.elapsed_ns as u64);
        uint(w, "detections_ok", run.detections_ok as u64);
        uint(w, "detections_err", run.detections_err as u64);
        uint(w, "periodic_pairs", run.periodic_pairs as u64);
        uint(w, "period_checksum", run.period_checksum);
        section(w, "stage_nanos", |w| {
            for (name, sum, observations) in &run.stage_sums {
                section(w, name, |w| {
                    uint(w, "sum_ns", *sum);
                    uint(w, "observations", *observations);
                    uint(w, "mean_ns", sum.checked_div(*observations).unwrap_or(0));
                });
            }
        });
        section(w, "plan_cache", |w| {
            uint(w, "requests", run.plan_requests as u64);
            uint(w, "hits", run.plan_hits as u64);
            float(w, "hit_rate", hit_rate, 4);
            uint(w, "plans_built", run.plans_built as u64);
            uint(w, "plans_built_c2c", run.plans_built_c2c as u64);
            uint(w, "plans_built_r2c", run.plans_built_r2c as u64);
            uint(w, "transforms_run", run.transforms_run as u64);
        });
    });
}

struct CheckpointProbe {
    plain_elapsed_ns: u128,
    checkpointed_elapsed_ns: u128,
    shards: u64,
    checkpoints_written: u64,
    dlq_entries: u64,
}

/// A dozen clean beacon pairs — the well-behaved part of the probe
/// corpora.
fn clean_records() -> Vec<LogRecord> {
    let mut records = Vec::new();
    for h in 0..12u64 {
        let period = 60 + (h % 6) * 30;
        for i in 0..80u64 {
            records.push(LogRecord::new(
                50_000 + i * period,
                format!("host-{h}"),
                format!("zxq{h}wvkt{h}n.biz"),
                format!("{:x}", (h * 77 + i) * 2_654_435_761 % 0xFF_FFFF),
            ));
        }
    }
    records
}

/// Deterministic pipeline corpus for the checkpoint probe: a dozen clean
/// beacon pairs plus one slow sparse beacon (300 events 2 333 s apart,
/// ~7·10⁵ one-second bins), which runs in full.
fn checkpoint_records() -> Vec<LogRecord> {
    let mut records = clean_records();
    for t in pathological_sparse_beacon(50_000, 300, 2_333) {
        records.push(LogRecord::new(t, "host-0", "pathological-dest.biz", "x"));
    }
    records
}

fn probe_config() -> BaywatchConfig {
    BaywatchConfig {
        local_tau: 0.9,
        ..Default::default()
    }
}

/// Measures checkpoint overhead (same corpus, with and without shard
/// persistence) so the gate pins its deterministic accounting.
fn run_checkpoint_probe() -> Result<CheckpointProbe, String> {
    let records = checkpoint_records();

    let mut plain = Baywatch::new(probe_config());
    let start = Instant::now();
    let _ = plain.analyze(records.clone());
    let plain_elapsed_ns = start.elapsed().as_nanos();

    let dir = std::env::temp_dir().join(format!("baywatch-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CheckpointSpec {
        shard_size: 4,
        ..CheckpointSpec::new(dir.clone())
    };

    let mut engine = Baywatch::new(probe_config());
    let start = Instant::now();
    let first = engine
        .analyze_checkpointed(records, &spec)
        .map_err(|e| format!("checkpointed run failed under {}: {e}", dir.display()))?;
    let checkpointed_elapsed_ns = start.elapsed().as_nanos();
    let _ = std::fs::remove_dir_all(&dir);

    let ops = engine.metrics_snapshot().operational;
    let count = |name: &str| ops.get(name).copied().unwrap_or(0);
    let first_ck = first
        .checkpoint
        .ok_or("checkpointed run reported no checkpoint outcome")?;
    Ok(CheckpointProbe {
        plain_elapsed_ns,
        checkpointed_elapsed_ns,
        shards: first_ck.total_shards as u64,
        checkpoints_written: count("checkpoint.shards_written")
            + count("checkpoint.manifest_writes"),
        dlq_entries: first_ck.dlq_entries as u64,
    })
}

fn write_checkpoint(w: &mut JsonWriter, p: &CheckpointProbe) {
    let overhead = if p.plain_elapsed_ns > 0 {
        p.checkpointed_elapsed_ns as f64 / p.plain_elapsed_ns as f64
    } else {
        0.0
    };
    section(w, "checkpoint", |w| {
        // Host-dependent, recorded but never gated.
        uint(w, "plain_elapsed_ns", p.plain_elapsed_ns as u64);
        uint(
            w,
            "checkpointed_elapsed_ns",
            p.checkpointed_elapsed_ns as u64,
        );
        float(w, "overhead_ratio", overhead, 3);
        // Deterministic accounting, exact-gated.
        uint(w, "shards", p.shards);
        uint(w, "checkpoints_written", p.checkpoints_written);
        uint(w, "dlq_entries", p.dlq_entries);
    });
}

struct StreamProbe {
    elapsed_ns: u128,
    tick_p50_ns: u64,
    tick_p99_ns: u64,
    tick_max_ns: u64,
    ticks_closed: u64,
    events_offered: u64,
    events_admitted: u64,
    pairs_admitted: u64,
    pairs_evicted: u64,
    pairs_readmitted: u64,
    detect_runs: u64,
    detect_cached: u64,
    confirmed: u64,
}

/// Nearest-rank percentile over per-tick close latencies.
fn percentile_ns(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// Drives the streaming engine over a seeded long-trace feed under a
/// state budget tight enough that eviction, readmission, and the verdict
/// cache all stay busy — the regime the engine exists for. Tick batches
/// are pre-generated so the timed loop measures only ingest + tick close.
fn run_stream_probe(quick: bool) -> Result<StreamProbe, String> {
    let ticks: u64 = if quick { 8 } else { 24 };
    let generator = LongTraceGenerator::new(LongTraceConfig {
        seed: 21,
        tick_seconds: 300,
        ..LongTraceConfig::default()
    });
    let batches: Vec<Vec<LogRecord>> = (0..ticks)
        .map(|t| {
            generator
                .tick_events(t)
                .iter()
                .map(|e| {
                    LogRecord::new(
                        e.timestamp,
                        e.host.to_string(),
                        e.domain.clone(),
                        e.url_path.clone(),
                    )
                })
                .collect()
        })
        .collect();

    let schedule = ScheduleSpec::new(300, 4).map_err(|e| format!("invalid schedule: {e}"))?;
    let mut config = StreamConfig::lossless(schedule);
    config.ring_capacity = 64;
    config.state_budget_bytes = 128 * 1024;
    config.pipeline.local_tau = 0.05;
    let mut hunt = StreamingHunt::new(config).map_err(|e| format!("invalid stream config: {e}"))?;

    let mut latencies = Vec::with_capacity(batches.len() + 1);
    let mut closed = 0u64;
    let start = Instant::now();
    for batch in &batches {
        let tick_start = Instant::now();
        closed += hunt.ingest(batch).len() as u64;
        latencies.push(tick_start.elapsed().as_nanos() as u64);
    }
    let tick_start = Instant::now();
    closed += u64::from(hunt.finish().is_some());
    latencies.push(tick_start.elapsed().as_nanos() as u64);
    let elapsed_ns = start.elapsed().as_nanos();

    if !hunt.ledger().is_balanced() {
        return Err(format!("stream ledger out of balance: {:?}", hunt.ledger()));
    }
    latencies.sort_unstable();
    let ledger = *hunt.ledger();
    let snapshot = hunt.metrics_snapshot();
    let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    Ok(StreamProbe {
        elapsed_ns,
        tick_p50_ns: percentile_ns(&latencies, 50),
        tick_p99_ns: percentile_ns(&latencies, 99),
        tick_max_ns: percentile_ns(&latencies, 100),
        ticks_closed: closed,
        events_offered: ledger.events_offered,
        events_admitted: ledger.events_admitted,
        pairs_admitted: ledger.pairs_admitted,
        pairs_evicted: ledger.pairs_evicted,
        pairs_readmitted: ledger.pairs_readmitted,
        detect_runs: count("stream.detect.runs"),
        detect_cached: count("stream.detect.cached"),
        confirmed: hunt.final_report().0.reported().len() as u64,
    })
}

fn write_stream(w: &mut JsonWriter, p: &StreamProbe) {
    let secs = p.elapsed_ns as f64 / 1e9;
    let cache_lookups = p.detect_runs + p.detect_cached;
    let hit_rate = if cache_lookups > 0 {
        p.detect_cached as f64 / cache_lookups as f64
    } else {
        0.0
    };
    section(w, "stream", |w| {
        // Host-dependent, recorded but never gated.
        uint(w, "elapsed_ns", p.elapsed_ns as u64);
        float(
            w,
            "events_per_sec",
            p.events_offered as f64 / secs.max(1e-12),
            1,
        );
        uint(w, "tick_p50_ns", p.tick_p50_ns);
        uint(w, "tick_p99_ns", p.tick_p99_ns);
        uint(w, "tick_max_ns", p.tick_max_ns);
        // Deterministic stream accounting, exact-gated.
        uint(w, "ticks_closed", p.ticks_closed);
        uint(w, "events_offered", p.events_offered);
        uint(w, "events_admitted", p.events_admitted);
        uint(w, "pairs_admitted", p.pairs_admitted);
        uint(w, "pairs_evicted", p.pairs_evicted);
        uint(w, "pairs_readmitted", p.pairs_readmitted);
        uint(w, "detect_runs", p.detect_runs);
        uint(w, "detect_cached", p.detect_cached);
        uint(w, "confirmed", p.confirmed);
        // Ratio-gated like the plan-cache hit rate: losing verdict-cache
        // hits means the incremental engine re-detects clean pairs.
        float(w, "detect_cache_hit_rate", hit_rate, 4);
    });
}

fn get_f64(v: &JsonValue, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for p in path {
        cur = cur.get(p)?;
    }
    cur.as_f64()
}

/// Gate: compare the machine-independent fields of `current` against
/// `baseline` — deterministic ones exactly, ratios within `tolerance`.
/// Returns a list of human-readable failures (empty = pass).
fn gate(current: &JsonValue, baseline: &JsonValue, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();

    if current.get("profile") != baseline.get("profile") {
        failures.push(format!(
            "profile mismatch: current {:?} vs baseline {:?} — run the gate with the profile the baseline was blessed under",
            current.get("profile"),
            baseline.get("profile")
        ));
        return failures;
    }

    // Checkpoint accounting is a deterministic function of the probe
    // corpus: a count drift means the store started writing more (or
    // fewer) files per shard, or a pair of the probe started panicking.
    for field in ["shards", "checkpoints_written", "dlq_entries"] {
        let cur = get_f64(current, &["checkpoint", field]);
        let base = get_f64(baseline, &["checkpoint", field]);
        if cur != base {
            failures.push(format!(
                "checkpoint.{field}: current {cur:?} != baseline {base:?} \
                 (deterministic field — re-bless only with an explanation)"
            ));
        }
    }

    // The stream probe's ledger and verdict-cache counts are a
    // deterministic function of the seeded long trace: any drift
    // means admission, eviction, windowing, or cache invalidation
    // changed behaviour, not just speed.
    for field in [
        "ticks_closed",
        "events_offered",
        "events_admitted",
        "pairs_admitted",
        "pairs_evicted",
        "pairs_readmitted",
        "detect_runs",
        "detect_cached",
        "confirmed",
    ] {
        let cur = get_f64(current, &["stream", field]);
        let base = get_f64(baseline, &["stream", field]);
        if cur != base {
            failures.push(format!(
                "stream.{field}: current {cur:?} != baseline {base:?} \
                 (deterministic field — re-bless only with an explanation)"
            ));
        }
    }

    // Detection output is a deterministic function of the corpus: exact
    // match required.
    for field in [
        "periodic_pairs",
        "period_checksum",
        "detections_ok",
        "detections_err",
    ] {
        let cur = get_f64(current, &["modes", RUN_KEY, field]);
        let base = get_f64(baseline, &["modes", RUN_KEY, field]);
        if cur != base {
            failures.push(format!(
                "{RUN_KEY}.{field}: current {cur:?} != baseline {base:?} \
                 (deterministic field — re-bless only with an explanation)"
            ));
        }
    }
    let cur = get_f64(current, &["modes", RUN_KEY, "plan_cache", "hit_rate"]);
    let base = get_f64(baseline, &["modes", RUN_KEY, "plan_cache", "hit_rate"]);
    match (cur, base) {
        (Some(c), Some(b)) => {
            if c < b * (1.0 - tolerance) {
                failures.push(format!(
                    "plan-cache hit rate fell: {c:.4} vs baseline {b:.4}"
                ));
            }
        }
        _ => failures.push("plan-cache hit rate missing".to_string()),
    }

    // A verdict-cache hit-rate collapse means the streaming engine
    // re-detects undirtied pairs.
    let cur = get_f64(current, &["stream", "detect_cache_hit_rate"]);
    let base = get_f64(baseline, &["stream", "detect_cache_hit_rate"]);
    match (cur, base) {
        (Some(c), Some(b)) => {
            if c < b * (1.0 - tolerance) {
                failures.push(format!(
                    "stream verdict-cache hit rate fell: {c:.4} vs baseline {b:.4}"
                ));
            }
        }
        _ => failures.push("stream verdict-cache hit rate missing".to_string()),
    }

    failures
}

fn repo_root_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_detector.json")
}

fn main() -> ExitCode {
    let mut out = repo_root_out();
    let mut quick = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut tolerance = 0.25f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match args.next().and_then(|t| t.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("--tolerance requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let pairs = corpus(quick);
    let passes = if quick { 1 } else { 3 };
    println!(
        "corpus: {} pairs × {} timed passes ({} profile)",
        pairs.len(),
        passes,
        if quick { "quick" } else { "full" }
    );

    let run = run_detector(&pairs, passes);
    let probe = match run_checkpoint_probe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("checkpoint probe failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "checkpoint probe: {} shards, {} files written, overhead {:.2}x, \
         dlq {} entry(ies)",
        probe.shards,
        probe.checkpoints_written,
        probe.checkpointed_elapsed_ns as f64 / probe.plain_elapsed_ns.max(1) as f64,
        probe.dlq_entries
    );

    let stream = match run_stream_probe(quick) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("stream probe failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "stream probe: {} events / {} ticks, {:.1} events/sec, tick p99 {:.2} ms, \
         {} evicted / {} readmitted pairs, verdict cache {}/{} cached",
        stream.events_offered,
        stream.ticks_closed,
        stream.events_offered as f64 / (stream.elapsed_ns as f64 / 1e9).max(1e-12),
        stream.tick_p99_ns as f64 / 1e6,
        stream.pairs_evicted,
        stream.pairs_readmitted,
        stream.detect_cached,
        stream.detect_runs + stream.detect_cached
    );

    let pps = run.detections_ok as f64 / (run.elapsed_ns as f64 / 1e9);
    println!("detector: {pps:.1} pairs/sec");

    let mut w = JsonWriter::new();
    w.raw("{");
    w.key("schema");
    w.string("baywatch.bench.detector/1");
    w.key("profile");
    w.string(if quick { "quick" } else { "full" });
    uint(&mut w, "pairs", pairs.len() as u64);
    uint(&mut w, "passes", passes as u64);
    section(&mut w, "modes", |w| write_detector(w, &run));
    write_checkpoint(&mut w, &probe);
    write_stream(&mut w, &stream);
    w.raw("}\n");
    let rendered = w.finish();
    if let Err(e) = std::fs::write(&out, &rendered) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());

    let Some(path) = baseline_path else {
        return ExitCode::SUCCESS;
    };
    let read = |text: &str| parse(text).map_err(|e| e.to_string());
    let (doc, baseline) = match read(&rendered).and_then(|doc| {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        Ok((doc, read(&text)?))
    }) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("failed to read baseline {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let failures = gate(&doc, &baseline, tolerance);
    if !failures.is_empty() {
        eprintln!("bench gate (vs {}): FAIL", path.display());
        for f in &failures {
            eprintln!("  - {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "bench gate (vs {}): PASS (tolerance {tolerance})",
        path.display()
    );
    ExitCode::SUCCESS
}
