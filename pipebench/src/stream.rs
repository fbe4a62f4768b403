//! `stream_soak`: the incremental engine fed tick by tick under a state
//! budget its working set exceeds.

use std::time::Instant;

use baywatch_core::stream::{StreamConfig, StreamingHunt, TickReport};
use baywatch_core::ScheduleSpec;
use baywatch_obs::json;

use crate::input::{self, StreamInput, SOAK_TICK_SECONDS};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::{finish, pinned_config, rss_mb, Metrics, Options, Outcome, Repetitions};

/// Modelled bytes all resident pair state may use; the trace's working
/// set is several times this, so eviction never rests.
const STATE_BUDGET_BYTES: u64 = 2 * 1024 * 1024;
/// More than the engine can hold live, so the export lists every case.
const TOP_K: usize = 100_000;
/// A run below this recall (or above this many non-beacon cases) is not
/// `correct` (README, "Correctness checks").
const MIN_RECALL: f64 = 0.9;
const MAX_FALSE: usize = 32;

fn new_hunt() -> StreamingHunt {
    let schedule = ScheduleSpec::new(SOAK_TICK_SECONDS, 4).expect("static schedule is valid");
    let mut config = StreamConfig::lossless(schedule);
    config.ring_capacity = 64;
    config.state_budget_bytes = STATE_BUDGET_BYTES;
    config.pipeline = pinned_config();
    StreamingHunt::new(config).expect("static stream config is valid")
}

/// One repetition: a fresh engine over every tick of the input.
#[derive(Default)]
struct Rep {
    /// Σ `ingest` and `finish` time.
    seconds: f64,
    /// Time of each call that closed a tick, ms.
    tick_ms: Vec<f64>,
    close_s: f64,
    buffer_s: f64,
    final_export_s: f64,
    ticks: u64,
    failed_ops: u64,
    degraded: u64,
    detect_runs: u64,
    detect_cached: u64,
    resident_peak: u64,
    live_peak: u64,
    evicted: u64,
    readmitted: u64,
    resident_end: u64,
    recall: f64,
    false_cases: usize,
}

impl Rep {
    /// Checks and tallies the ticks one call closed.
    fn closed(&mut self, reports: &[TickReport], hunt: &StreamingHunt, notes: &mut Vec<String>) {
        for report in reports {
            self.ticks += 1;
            self.degraded += u64::from(report.decision.label() != "accept");
            self.detect_runs += report.detect_runs;
            self.detect_cached += report.detect_cached;
            self.resident_peak = self.resident_peak.max(report.resident_bytes);
            self.live_peak = self.live_peak.max(report.live_pairs);
            let balanced = hunt.ledger().is_balanced();
            if !balanced || report.resident_bytes > STATE_BUDGET_BYTES {
                self.failed_ops += 1;
                notes.push(format!(
                    "tick {} failed: ledger balanced = {balanced}, resident {} B of {STATE_BUDGET_BYTES} B",
                    report.tick, report.resident_bytes
                ));
            }
        }
    }
}

/// `reference` holds the first repetition's final export; later ones
/// must reproduce it byte for byte.
fn run_rep(
    input: &StreamInput,
    rec: &mut Recorder,
    reference: &mut Option<String>,
    notes: &mut Vec<String>,
) -> Rep {
    let mut rep = Rep::default();
    let mut hunt = new_hunt();
    for batch in &input.ticks {
        // A tick closes when the first record of the next one arrives.
        // Traced runs feed that record alone, so closing the previous
        // tick — admission, retention, eviction, detection — and
        // buffering the new tick's records are separate calls.
        let (reports, elapsed) = if rec.enabled() && !batch.is_empty() {
            let open = rec.open("stream.close_tick");
            let reports = hunt.ingest(&batch[..1]);
            let close_s = rec.close(open);
            let open = rec.open("stream.buffer");
            hunt.ingest(&batch[1..]);
            let buffer_s = rec.close(open);
            rep.close_s += close_s;
            rep.buffer_s += buffer_s;
            (reports, close_s + buffer_s)
        } else {
            let start = Instant::now();
            let reports = hunt.ingest(batch);
            (reports, start.elapsed().as_secs_f64())
        };
        rep.seconds += elapsed;
        if !reports.is_empty() {
            rep.tick_ms.push(elapsed * 1e3);
        }
        rep.closed(&reports, &hunt, notes);
    }
    let open = rec.open("stream.close_tick");
    let last = hunt.finish();
    let elapsed = rec.close(open);
    rep.seconds += elapsed;
    rep.close_s += elapsed;
    rep.tick_ms.push(elapsed * 1e3);
    rep.closed(last.as_slice(), &hunt, notes);

    let ledger = *hunt.ledger();
    rep.evicted = ledger.pairs_evicted;
    rep.readmitted = ledger.pairs_readmitted;
    rep.resident_end = hunt.resident_bytes();
    if ledger.events_offered != input.events as u64 {
        rep.failed_ops += 1;
        notes.push(format!(
            "ledger saw {} of {} events",
            ledger.events_offered, input.events
        ));
    }

    // The confirmed set at the final window, outside the timed region.
    let open = rec.open("stream.final_export");
    let export = hunt.final_export(TOP_K);
    rep.final_export_s = rec.close(open);
    let destinations: Vec<String> = json::parse(&export)
        .ok()
        .and_then(|doc| {
            let cases = doc.get("top_cases")?.as_array()?;
            cases
                .iter()
                .map(|c| Some(c.get("destination")?.as_str()?.to_owned()))
                .collect()
        })
        .unwrap_or_default();
    let found = input
        .beacons
        .iter()
        .filter(|b| destinations.contains(b))
        .count();
    rep.recall = found as f64 / input.beacons.len().max(1) as f64;
    rep.false_cases = destinations
        .iter()
        .filter(|d| !input.beacons.contains(*d))
        .count();
    match reference {
        None => *reference = Some(export),
        Some(first) if *first != export => {
            rep.failed_ops += 1;
            notes.push("final export differs from the first repetition".to_owned());
        }
        Some(_) => {}
    }
    rep
}

pub(crate) fn run(opts: &Options) -> Outcome {
    let mut rec = Recorder::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // ---- Set-up: generate the tick batches and build an engine.
    let (input, gen_s, setup_s) = crate::repeat_setup(opts, || {
        let start = Instant::now();
        let input = input::stream_soak(opts.seed, &opts.sizes);
        let gen_s = start.elapsed().as_secs_f64();
        drop(new_hunt());
        (input, gen_s, start.elapsed().as_secs_f64())
    });
    m.set("setup_s", setup_s);
    m.set("gen.busy_s", gen_s);
    m.set("input.fnv32", f64::from(input.fnv32));

    // ---- Repetitions; `reference` holds the first one's final export.
    let rss_before = rss_mb().1;
    let mut reference = None;
    let reps = Repetitions::run(opts, &mut rec, |rec| {
        run_rep(&input, rec, &mut reference, &mut notes)
    });
    let Repetitions {
        warmup,
        plain,
        traced,
        ..
    } = &reps;
    let (peak, now) = reps.rss_after_warmup;
    m.set("peak_rss_mb", peak);
    let modelled = warmup.resident_end.max(1) as f64;
    m.set(
        "stream.rss_per_modelled_byte",
        (now - rss_before) * 1024.0 * 1024.0 / modelled,
    );

    // ---- End-to-end metrics, from the untraced repetitions.
    let ticks: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| input.events as f64 / r.seconds)
        .collect();
    m.set("lines_per_s", median(&rates));
    m.set("op_p50_ms", percentile(&ticks, 50.0));
    m.set("op_p90_ms", percentile(&ticks, 90.0));
    m.set("stream.tick_p50_ms", percentile(&ticks, 50.0));
    m.set("stream.tick_p99_ms", percentile(&ticks, 99.0));
    notes.push(format!(
        "repetition seconds {:?}",
        plain
            .iter()
            .map(|r| (r.seconds * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    notes.push(format!(
        "{} untraced repetitions, {} tick closes; close ms p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
        plain.len(),
        ticks.len(),
        percentile(&ticks, 50.0),
        percentile(&ticks, 90.0),
        percentile(&ticks, 99.0),
        percentile(&ticks, 100.0),
    ));

    let first = warmup;
    m.set("planted_recall", first.recall);
    m.set("false_periodic", first.false_cases as f64);
    let quality_ok = first.recall >= MIN_RECALL && first.false_cases <= MAX_FALSE;
    notes.push(format!(
        "beacons {} recall {:.3}, {} ranked cases not beacons (floor {MIN_RECALL}, ceiling {MAX_FALSE})",
        input.beacons.len(),
        first.recall,
        first.false_cases,
    ));

    // ---- Per-layer metrics, from the traced repetitions.
    if let Some(last) = traced.last() {
        let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let region = med(&|r| r.seconds);
        m.set_busy(
            "stream.close_tick.busy_s",
            "stream.close_tick.share",
            med(&|r| r.close_s),
            region,
        );
        m.set_busy(
            "stream.buffer.busy_s",
            "stream.buffer.share",
            med(&|r| r.buffer_s),
            region,
        );
        m.set("stream.final_export.busy_s", med(&|r| r.final_export_s));
        m.set(
            "trace.coverage",
            (med(&|r| r.close_s) + med(&|r| r.buffer_s)) / region,
        );
        m.set(
            "trace.overhead_ratio",
            region / median(&plain.iter().map(|r| r.seconds).collect::<Vec<_>>()),
        );
        m.set("stream.close_tick.ticks", last.ticks as f64);
        m.set("stream.buffer.events", input.events as f64);
        m.set("stream.ticks_degraded", last.degraded as f64);
        m.set("stream.detect_runs", last.detect_runs as f64);
        m.set("stream.detect_cached", last.detect_cached as f64);
        let verdicts = (last.detect_runs + last.detect_cached).max(1);
        m.set(
            "stream.verdict_cache_hit_rate",
            last.detect_cached as f64 / verdicts as f64,
        );
        m.set("stream.pairs_evicted", last.evicted as f64);
        m.set("stream.pairs_readmitted", last.readmitted as f64);
        m.set("stream.resident_bytes_peak", last.resident_peak as f64);
        m.set("stream.live_pairs_peak", last.live_peak as f64);
    }

    let counts = (
        reps.all().map(|r| r.ticks).sum(),
        reps.all().map(|r| r.failed_ops).sum(),
    );
    finish(opts, &m, counts, quality_ok, notes, rec)
}
