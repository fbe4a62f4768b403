//! Property-based half of the streaming/batch equivalence battery (the
//! deterministic half lives in `stream_equivalence.rs`).
//!
//! For random long-trace seeds, random chunk sizes, and random
//! intra-tick shuffles, a lossless [`StreamingHunt`] must be a pure
//! function of the trace content: identical `export_json` bytes and
//! ledgers however the trace is split, and a final report byte-identical
//! to the batch pipeline's on the final window.
//!
//! [`StreamingHunt`]: baywatch::core::stream::StreamingHunt

use std::sync::Arc;

use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::report::export_json;
use baywatch::core::stream::{StreamConfig, StreamingHunt};
use baywatch::core::ScheduleSpec;
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::obs::ManualClock;
use baywatch::record_from_event;
use baywatch::stats::rng::{forall, Rng};

const TICK_SECONDS: u64 = 300;
const WINDOW_TICKS: u64 = 4;
const TICKS: u64 = 6;
const TOP_K: usize = 10;

fn pipeline_config() -> BaywatchConfig {
    BaywatchConfig {
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

fn trace(seed: u64) -> Vec<LogRecord> {
    LongTraceGenerator::new(LongTraceConfig {
        seed,
        tick_seconds: TICK_SECONDS,
        ..LongTraceConfig::default()
    })
    .events(0..TICKS)
    .iter()
    .map(record_from_event)
    .collect()
}

/// Streams the records in `chunk`-sized pieces to the end.
fn stream(records: &[LogRecord], chunk: usize) -> StreamingHunt {
    let mut hunt = StreamingHunt::new(stream_config()).expect("valid stream config");
    for piece in records.chunks(chunk.max(1)) {
        hunt.ingest(piece);
    }
    hunt.finish();
    hunt
}

/// Streams the records in `chunk`-sized pieces and returns the final
/// export plus the ledger debug form.
fn stream_in_chunks(records: &[LogRecord], chunk: usize) -> (String, String) {
    let hunt = stream(records, chunk);
    (hunt.final_export(TOP_K), format!("{:?}", hunt.ledger()))
}

/// Any chunking of the same trace — including with arrivals shuffled
/// inside each tick — produces byte-identical ranked exports and
/// identical ledgers.
#[test]
fn chunked_and_shuffled_streams_are_identical() {
    forall(6, 1, |rng| {
        let seed = rng.random_range(0u64..1_000);
        let chunk = rng.random_range(1usize..97);
        let shuffle_seed = rng.random_range(0u64..1_000);
        let records = trace(seed);
        let (whole_export, whole_ledger) = stream_in_chunks(&records, records.len());
        let (chunked_export, chunked_ledger) = stream_in_chunks(&records, chunk);
        assert_eq!(
            &chunked_export, &whole_export,
            "chunk size {chunk} diverged"
        );
        assert_eq!(&chunked_ledger, &whole_ledger);

        // Shuffle within each tick, keep tick order.
        let mut rng = Rng::seed_from_u64(shuffle_seed);
        let mut shuffled = Vec::new();
        for tick in 0..TICKS {
            let mut tick_records: Vec<LogRecord> = records
                .iter()
                .filter(|r| r.timestamp / TICK_SECONDS == tick)
                .cloned()
                .collect();
            rng.shuffle(&mut tick_records);
            shuffled.extend(tick_records);
        }
        let (shuffled_export, shuffled_ledger) = stream_in_chunks(&shuffled, chunk);
        assert_eq!(
            &shuffled_export, &whole_export,
            "intra-tick shuffle diverged"
        );
        assert_eq!(&shuffled_ledger, &whole_ledger);
    });
}

/// The stream's final report, exported under the batch engine's metrics
/// snapshot, is byte-identical to the batch pipeline run over the final
/// window of the same trace.
#[test]
fn streaming_always_matches_batch_on_final_window() {
    forall(6, 2, |rng| {
        let records = trace(rng.random_range(0u64..1_000));
        let (stream_report, _) = stream(&records, 13).final_report();

        let schedule = ScheduleSpec::new(TICK_SECONDS, WINDOW_TICKS).expect("valid schedule");
        let window: Vec<LogRecord> = records
            .iter()
            .filter(|r| schedule.in_window(TICKS - 1, r.timestamp))
            .cloned()
            .collect();
        let mut engine = Baywatch::with_clock(pipeline_config(), Arc::new(ManualClock::new()));
        let report = engine.analyze(window);
        let snapshot = engine.metrics_snapshot();
        assert_eq!(
            export_json(&stream_report, &snapshot, TOP_K),
            export_json(&report, &snapshot, TOP_K)
        );
    });
}
