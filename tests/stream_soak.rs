//! Streaming soak: a wall-clock-bounded run over the infinite
//! [`longtrace`] feed under a deliberately tight memory budget, asserting
//! on every closed tick that resident state stays under the budget and
//! that the event/pair ledger balances exactly — plus a committed golden
//! snapshot of the per-tick streaming funnel, and exact ledger and
//! verdict-cache counts of a seeded run that sheds under its budget.
//!
//! The soak length defaults to a few seconds so the default test profile
//! stays fast; CI sets `BAYWATCH_SOAK_SECS=120` for the full two-minute
//! battery. The golden snapshot (`tests/golden/stream_funnel.json`)
//! follows the same workflow as `golden_funnel.rs`: committed,
//! byte-compared on every run, re-blessed only with `BAYWATCH_BLESS=1`.
//!
//! [`longtrace`]: baywatch::netsim::longtrace

#![allow(
    clippy::disallowed_methods,
    reason = "the soak is wall-clock bounded and its golden snapshot lives on disk"
)]

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use baywatch::core::pipeline::BaywatchConfig;
use baywatch::core::stream::{StreamConfig, StreamingHunt, TickReport};
use baywatch::core::ScheduleSpec;
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::record_from_event;

const TICK_SECONDS: u64 = 300;
const WINDOW_TICKS: u64 = 4;

fn generator(seed: u64) -> LongTraceGenerator {
    LongTraceGenerator::new(LongTraceConfig {
        seed,
        tick_seconds: TICK_SECONDS,
        ..LongTraceConfig::default()
    })
}

fn stream_config(state_budget_bytes: u64) -> StreamConfig {
    let schedule = ScheduleSpec::new(TICK_SECONDS, WINDOW_TICKS).expect("valid schedule");
    let mut config = StreamConfig::lossless(schedule);
    config.ring_capacity = 64;
    config.state_budget_bytes = state_budget_bytes;
    config.pipeline = BaywatchConfig {
        local_tau: 0.05,
        ..Default::default()
    };
    config
}

/// Per-tick invariants every soak tick must uphold.
fn assert_tick_invariants(hunt: &StreamingHunt, report: &TickReport, budget: u64) {
    assert!(
        report.resident_bytes <= budget,
        "tick {}: resident {} bytes exceeds the {} byte budget",
        report.tick,
        report.resident_bytes,
        budget
    );
    let ledger = hunt.ledger();
    assert!(
        ledger.is_balanced(),
        "tick {}: ledger out of balance: {ledger:?}",
        report.tick
    );
    assert_eq!(
        ledger.pairs_admitted,
        ledger.pairs_live + ledger.pairs_evicted,
        "tick {}: pair ledger must stay exact",
        report.tick
    );
}

#[test]
fn soak_stays_under_budget_with_exact_ledger() {
    // A budget well below the working set (~150 live pairs × ~1.3 KB):
    // eviction and admission degradation must run continuously without
    // ever unbalancing the ledger or breaching the budget.
    const BUDGET: u64 = 96 * 1024;
    const MAX_TICKS: u64 = 5_000;

    let soak_secs: u64 = std::env::var("BAYWATCH_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let deadline = Instant::now() + Duration::from_secs(soak_secs);

    let generator = generator(77);
    let mut hunt = StreamingHunt::new(stream_config(BUDGET)).expect("valid stream config");
    let mut tick = 0u64;
    let mut closed = 0u64;
    while (Instant::now() < deadline || tick < 2 * WINDOW_TICKS) && tick < MAX_TICKS {
        let records: Vec<_> = generator
            .tick_events(tick)
            .iter()
            .map(record_from_event)
            .collect();
        for report in hunt.ingest(&records) {
            assert_tick_invariants(&hunt, &report, BUDGET);
            closed += 1;
        }
        tick += 1;
    }
    if let Some(report) = hunt.finish() {
        assert_tick_invariants(&hunt, &report, BUDGET);
        closed += 1;
    }

    let ledger = *hunt.ledger();
    assert!(
        closed >= 2 * WINDOW_TICKS,
        "soak closed only {closed} ticks"
    );
    assert!(ledger.events_offered > 0);
    assert!(
        ledger.pairs_evicted > 0,
        "an over-budget soak must evict: {ledger:?}"
    );
    assert!(
        ledger.pairs_readmitted > 0,
        "reborn churn pairs must readmit: {ledger:?}"
    );
    assert!(ledger.is_balanced(), "final ledger: {ledger:?}");
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("stream_funnel.json")
}

/// Renders the per-tick funnel plus the final ledger as deterministic
/// JSON (integers and enum names only — no floats, no clocks).
fn funnel_export(reports: &[TickReport], hunt: &StreamingHunt) -> String {
    let mut out = String::from("{\n  \"ticks\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!(
            "    {{\"tick\":{},\"decision\":\"{:?}\",\"events\":{},\"pairs\":{},\
             \"after_global_whitelist\":{},\"after_local_whitelist\":{},\"periodic\":{},\
             \"after_token_filter\":{},\"after_novelty\":{},\"reported\":{},\
             \"live_pairs\":{},\"resident_bytes\":{},\"evicted\":{},\
             \"detect_runs\":{},\"detect_cached\":{}}}{}\n",
            r.tick,
            r.decision,
            s.events,
            s.pairs,
            s.after_global_whitelist,
            s.after_local_whitelist,
            s.periodic,
            s.after_token_filter,
            s.after_novelty,
            s.reported,
            r.live_pairs,
            r.resident_bytes,
            r.evicted.len(),
            r.detect_runs,
            r.detect_cached,
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    let l = hunt.ledger();
    out.push_str(&format!(
        "  ],\n  \"ledger\": {{\"events_offered\":{},\"events_admitted\":{},\
         \"events_late\":{},\"events_shed\":{},\"events_dropped_capacity\":{},\
         \"events_retired\":{},\"events_evicted\":{},\"events_resident\":{},\
         \"pairs_admitted\":{},\"pairs_live\":{},\"pairs_evicted\":{},\
         \"pairs_readmitted\":{}}}\n}}\n",
        l.events_offered,
        l.events_admitted,
        l.events_late,
        l.events_shed,
        l.events_dropped_capacity,
        l.events_retired,
        l.events_evicted,
        l.events_resident,
        l.pairs_admitted,
        l.pairs_live,
        l.pairs_evicted,
        l.pairs_readmitted
    ));
    out
}

/// Feeds `ticks` ticks of the seeded long trace under `budget` bytes,
/// then finishes the stream; returns every closed tick and the engine.
fn seeded_run(seed: u64, ticks: u64, budget: u64) -> (Vec<TickReport>, StreamingHunt) {
    let generator = generator(seed);
    let mut hunt = StreamingHunt::new(stream_config(budget)).expect("valid stream config");
    let mut reports = Vec::new();
    for tick in 0..ticks {
        let records: Vec<_> = generator
            .tick_events(tick)
            .iter()
            .map(record_from_event)
            .collect();
        reports.extend(hunt.ingest(&records));
    }
    reports.extend(hunt.finish());
    (reports, hunt)
}

/// Runs the fixed 12-tick streaming window under a moderate budget and
/// returns the deterministic funnel export.
fn golden_run() -> String {
    let (reports, hunt) = seeded_run(7, 12, 256 * 1024);
    funnel_export(&reports, &hunt)
}

#[test]
fn streaming_funnel_golden_snapshot() {
    let exported = golden_run();
    assert_eq!(
        exported,
        golden_run(),
        "the streaming funnel export must be run-to-run deterministic"
    );

    let path = golden_path();
    if std::env::var("BAYWATCH_BLESS").is_ok_and(|v| v == "1") {
        fs::write(&path, &exported).expect("write golden snapshot");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; bless it with BAYWATCH_BLESS=1 cargo test --test stream_soak",
            path.display()
        )
    });
    assert_eq!(
        exported,
        golden,
        "streaming funnel deviates from {}; if intentional, re-bless with \
         BAYWATCH_BLESS=1 cargo test --test stream_soak",
        path.display()
    );
}

/// A 24-tick run under half the golden's budget: the working set does not
/// fit, so admission sheds and pairs are evicted and readmitted (the
/// golden run sheds nothing). Its ledger and verdict-cache counts are a
/// function of the seeded trace and are pinned exactly.
#[test]
fn tight_budget_ledger_and_verdict_cache_are_pinned() {
    let (reports, hunt) = seeded_run(21, 24, 128 * 1024);
    let ledger = *hunt.ledger();
    assert!(ledger.is_balanced(), "final ledger: {ledger:?}");
    assert_eq!(reports.len(), 24, "ticks closed");
    assert_eq!(
        (
            ledger.events_offered,
            ledger.events_admitted,
            ledger.pairs_admitted,
            ledger.pairs_evicted,
            ledger.pairs_readmitted,
        ),
        (3_228, 1_748, 642, 572, 58),
        "events offered, admitted; pairs admitted, evicted, readmitted"
    );
    let (report, snapshot) = hunt.final_report();
    assert_eq!(
        (
            snapshot.counters["stream.detect.runs"],
            snapshot.counters["stream.detect.cached"],
        ),
        (311, 232),
        "detector runs, verdicts served from the cache"
    );
    assert_eq!(report.reported().len(), 1, "confirmed");
}
