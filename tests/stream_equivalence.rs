//! Streaming/batch equivalence battery (deterministic half; the
//! randomized half lives in `stream_properties.rs`).
//!
//! The contract under test: a [`StreamingHunt`] in lossless mode, fed a
//! whole trace, must end in exactly the state a batch [`Baywatch`] run
//! over the final window would compute — its own final report, exported
//! under the batch run's metrics snapshot, is byte-identical to the batch
//! export, with identical confirmed-beacon sets and funnel levels. Chunk
//! boundaries and intra-tick arrival order must be invisible.
//!
//! [`StreamingHunt`]: baywatch::core::stream::StreamingHunt
//! [`Baywatch`]: baywatch::core::pipeline::Baywatch

use std::sync::Arc;

use baywatch::core::pipeline::{AnalysisReport, Baywatch, BaywatchConfig, FilterStats};
use baywatch::core::record::LogRecord;
use baywatch::core::report::export_json;
use baywatch::core::stream::{StreamConfig, StreamingHunt, TickReport};
use baywatch::core::ScheduleSpec;
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::obs::{ManualClock, MetricsSnapshot};
use baywatch::record_from_event;
use baywatch::stats::rng::Rng;

const TICK_SECONDS: u64 = 300;
const WINDOW_TICKS: u64 = 4;
const TICKS: u64 = 8;
const TOP_K: usize = 10;

fn generator(seed: u64) -> LongTraceGenerator {
    LongTraceGenerator::new(LongTraceConfig {
        seed,
        tick_seconds: TICK_SECONDS,
        ..LongTraceConfig::default()
    })
}

fn trace(seed: u64) -> Vec<LogRecord> {
    generator(seed)
        .events(0..TICKS)
        .iter()
        .map(record_from_event)
        .collect()
}

fn pipeline_config() -> BaywatchConfig {
    BaywatchConfig {
        // ~68 distinct sources: τ_P = 5% whitelists the popular news
        // catalog while single-victim beacons survive.
        local_tau: 0.05,
        ..Default::default()
    }
}

fn stream_config() -> StreamConfig {
    let schedule = ScheduleSpec::new(TICK_SECONDS, WINDOW_TICKS).expect("valid schedule");
    let mut config = StreamConfig::lossless(schedule);
    config.pipeline = pipeline_config();
    config
}

/// Streams `records` in the given chunks and returns the engine plus
/// every tick report (including the forced final close).
fn stream_chunks(chunks: Vec<Vec<LogRecord>>) -> (StreamingHunt, Vec<TickReport>) {
    let mut hunt = StreamingHunt::new(stream_config()).expect("valid stream config");
    let mut reports = Vec::new();
    for chunk in chunks {
        reports.extend(hunt.ingest(&chunk));
    }
    reports.extend(hunt.finish());
    (hunt, reports)
}

/// The batch pipeline over the records inside the final window, with the
/// engine's metrics snapshot.
fn batch_on_final_window(records: &[LogRecord]) -> (AnalysisReport, MetricsSnapshot) {
    let schedule = ScheduleSpec::new(TICK_SECONDS, WINDOW_TICKS).expect("valid schedule");
    let final_tick = TICKS - 1;
    let window: Vec<LogRecord> = records
        .iter()
        .filter(|r| schedule.in_window(final_tick, r.timestamp))
        .cloned()
        .collect();
    let mut engine = Baywatch::with_clock(pipeline_config(), Arc::new(ManualClock::new()));
    let report = engine.analyze(window);
    (report, engine.metrics_snapshot())
}

/// A report's confirmed beacons, as `source→destination`.
fn confirmed(report: &AnalysisReport) -> Vec<String> {
    report
        .reported()
        .iter()
        .map(|c| format!("{}→{}", c.case.pair.source, c.case.pair.destination))
        .collect()
}

/// The eight funnel levels a tick and a batch window share.
fn levels(stats: &FilterStats) -> [usize; 8] {
    [
        stats.events,
        stats.pairs,
        stats.after_global_whitelist,
        stats.after_local_whitelist,
        stats.periodic,
        stats.after_token_filter,
        stats.after_novelty,
        stats.reported,
    ]
}

#[test]
fn streaming_final_export_is_byte_identical_to_batch() {
    let records = trace(42);
    let (hunt, _) = stream_chunks(vec![records.clone()]);
    assert!(
        hunt.ledger().is_lossless(),
        "lossless config must lose nothing: {:?}",
        hunt.ledger()
    );

    // Both reports go through one export under the batch engine's
    // snapshot, so every funnel, fault and case byte is compared.
    let (batch, batch_snapshot) = batch_on_final_window(&records);
    let (stream, _) = hunt.final_report();
    assert_eq!(
        export_json(&stream, &batch_snapshot, TOP_K),
        export_json(&batch, &batch_snapshot, TOP_K),
        "streaming report deviates from the batch pipeline on the final window"
    );

    let stream_confirmed = confirmed(&stream);
    assert_eq!(stream_confirmed, confirmed(&batch));
    assert!(
        !stream_confirmed.is_empty(),
        "the trace carries persistent beacons; something must be confirmed"
    );
    // The confirmed set actually contains a planted beacon destination.
    let beacons = generator(42);
    assert!(
        stream_confirmed
            .iter()
            .any(|s| beacons.beacon_domains().iter().any(|d| s.ends_with(d))),
        "no planted beacon in {stream_confirmed:?}"
    );
}

#[test]
fn chunk_boundaries_and_intra_tick_order_are_invisible() {
    let records = trace(43);
    let (whole_hunt, whole_reports) = stream_chunks(vec![records.clone()]);
    let whole_export = whole_hunt.final_export(TOP_K);

    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    // Several random chunkings, including single-record feeding.
    for round in 0..3 {
        let mut chunks = Vec::new();
        let mut rest = records.clone();
        while !rest.is_empty() {
            let take = if round == 0 {
                1
            } else {
                rng.random_range(1..=rest.len())
            };
            let tail = rest.split_off(take.min(rest.len()));
            chunks.push(rest);
            rest = tail;
        }
        let (hunt, reports) = stream_chunks(chunks);
        assert_eq!(
            hunt.final_export(TOP_K),
            whole_export,
            "chunking round {round} changed the final export"
        );
        assert_eq!(hunt.ledger(), whole_hunt.ledger());
        assert_eq!(
            format!("{reports:?}"),
            format!("{whole_reports:?}"),
            "chunking round {round} changed a tick report"
        );
    }

    // Shuffling arrivals *within* each tick must also be invisible: the
    // engine folds a tick's buffer before appending.
    let mut shuffled = Vec::new();
    for tick in 0..TICKS {
        let mut tick_records: Vec<LogRecord> = records
            .iter()
            .filter(|r| r.timestamp / TICK_SECONDS == tick)
            .cloned()
            .collect();
        rng.shuffle(&mut tick_records);
        shuffled.push(tick_records);
    }
    let (hunt, reports) = stream_chunks(shuffled);
    assert_eq!(hunt.final_export(TOP_K), whole_export);
    assert_eq!(hunt.ledger(), whole_hunt.ledger());
    assert_eq!(format!("{reports:?}"), format!("{whole_reports:?}"));
}

#[test]
fn final_tick_levels_match_the_batch_funnel() {
    let records = trace(44);
    let (hunt, reports) = stream_chunks(vec![records.clone()]);
    assert!(hunt.ledger().is_lossless());

    let (batch, _) = batch_on_final_window(&records);
    let last = reports.last().expect("at least one tick closed");
    assert_eq!(levels(&last.stats), levels(&batch.stats));
    assert_eq!(hunt.final_report().0.stats, last.stats);
}

/// The one comparison the suites above never make: a batch engine that
/// *remembers*. Window A (the trace's first four ticks) and window B (its
/// last four) go through one `Baywatch`, so B's novelty filter suppresses
/// what A already reported; a stream told about A's reports through
/// `commit_reported` must reach B's funnel from filter 3 on.
#[test]
fn committed_reports_match_a_batch_engine_with_memory() {
    let records = trace(17);
    let schedule = ScheduleSpec::new(TICK_SECONDS, WINDOW_TICKS).expect("valid schedule");
    let window = |tick: u64| -> Vec<LogRecord> {
        records
            .iter()
            .filter(|r| schedule.in_window(tick, r.timestamp))
            .cloned()
            .collect()
    };
    let mut engine = Baywatch::with_clock(pipeline_config(), Arc::new(ManualClock::new()));
    let a = engine.analyze(window(WINDOW_TICKS - 1));
    let b = engine.analyze(window(TICKS - 1));
    assert!(a.stats.after_novelty > 0, "window A must report something");
    assert!(
        b.stats.after_novelty < b.stats.after_token_filter,
        "window B must see a pair A already reported: {:?}",
        b.stats
    );

    let mut hunt = StreamingHunt::new(stream_config()).expect("valid stream config");
    hunt.commit_reported(a.ranked.iter().map(|c| c.case.pair.clone()));
    hunt.ingest(&records);
    let last = hunt.finish().expect("events were ingested").stats;
    assert!(hunt.ledger().is_lossless());
    assert_eq!(
        (
            last.periodic,
            last.after_token_filter,
            last.after_novelty,
            last.reported
        ),
        (
            b.stats.periodic,
            b.stats.after_token_filter,
            b.stats.after_novelty,
            b.stats.reported
        )
    );
    // The final report honours the committed pairs as the tick did.
    assert_eq!(hunt.final_report().0.ranked, b.ranked);
}
