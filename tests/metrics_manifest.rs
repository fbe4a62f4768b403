//! The metrics manifest is exact. Every name the pipeline emits is a row
//! of `METRICS.md` of the right kind, every row is emitted by at least one
//! scenario below, and no clean run (batch window, stream) exports a
//! `gated` row.
//!
//! A row's name is a dotted pattern: each segment matches one dotted
//! segment of a runtime name, and a `*` inside a segment stands for one or
//! more characters other than `.`. The kind is the snapshot family the
//! name sits in (`counter`, `gauge`, `histogram`, `timing`). Stage spans
//! reach the registry as `span.<path>` timings, so they are declared as
//! timings.
//!
//! A new metric fails here until it has a row, and a row whose last
//! emitter is deleted fails here until the row goes too.

use std::collections::BTreeSet;
use std::sync::Arc;

use baywatch::core::pair::CommunicationPair;
use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::stream::{StreamConfig, StreamingHunt};
use baywatch::core::ScheduleSpec;
use baywatch::mapreduce::FaultPlan;
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::obs::MetricsSnapshot;
use baywatch::record_from_event;

/// One row of the manifest table.
#[derive(Debug)]
struct Row {
    name: String,
    kind: String,
    gating: String,
}

fn manifest() -> Vec<Row> {
    let rows: Vec<Row> = include_str!("../METRICS.md")
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            Row {
                name: cells[1].trim_matches('`').to_owned(),
                kind: cells[2].to_owned(),
                gating: cells[3].to_owned(),
            }
        })
        .collect();
    assert!(rows.len() > 40, "METRICS.md table not found");
    rows
}

/// Whether the dotted `pattern` matches `name` segment by segment.
fn matches(pattern: &str, name: &str) -> bool {
    let (pattern, name): (Vec<&str>, Vec<&str>) =
        (pattern.split('.').collect(), name.split('.').collect());
    pattern.len() == name.len()
        && pattern
            .iter()
            .zip(&name)
            .all(|(p, n)| match p.split_once('*') {
                None => p == n,
                Some((head, tail)) => {
                    n.len() > head.len() + tail.len() && n.starts_with(head) && n.ends_with(tail)
                }
            })
}

/// Every name in `snap`, with the family it sits in.
fn emitted(snap: &MetricsSnapshot) -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    names.extend(snap.counters.keys().map(|n| (n.clone(), "counter")));
    names.extend(snap.gauges.keys().map(|n| (n.clone(), "gauge")));
    names.extend(snap.histograms.keys().map(|n| (n.clone(), "histogram")));
    names.extend(snap.timings.keys().map(|n| (n.clone(), "timing")));
    names
}

/// One beaconing pair per host, each on its own period.
fn beacon_records(hosts: u64) -> Vec<LogRecord> {
    let mut records = Vec::new();
    for h in 0..hosts {
        for i in 0..80 {
            records.push(LogRecord::new(
                50_000 + i * (60 + (h % 6) * 30),
                format!("10.0.0.{h}"),
                format!("zxq{h}wvkt{h}n.biz"),
                format!("{:x}", (h * 77 + i) * 2_654_435_761 % 0xFF_FFFF),
            ));
        }
    }
    records
}

/// Local whitelist off: a dozen hosts would whitelist every destination
/// at the paper's τ_P = 1 %.
fn quiet_config() -> BaywatchConfig {
    BaywatchConfig {
        local_tau: 0.9,
        ..Default::default()
    }
}

/// A fault-free batch window.
fn clean_window() -> MetricsSnapshot {
    let mut engine = Baywatch::new(quiet_config());
    engine.analyze(beacon_records(12));
    engine.metrics_snapshot()
}

/// A window with a one-shot map panic (bisected), a pair poisoned in
/// extraction's reduce and one poisoned in detection's map (both
/// quarantined).
fn faulted_window() -> MetricsSnapshot {
    let mut records = beacon_records(12);
    for (source, destination) in [
        ("patient-zero", "poison-c2.example.net"),
        ("patient-one", "poison-c3.example.net"),
    ] {
        records
            .extend((0..60u64).map(|i| LogRecord::new(50_000 + i * 45, source, destination, "p")));
    }
    let pair = |source, destination| format!("{:?}", CommunicationPair::new(source, destination));
    let plan = FaultPlan::new()
        .poison_key(&pair("patient-zero", "poison-c2.example.net"))
        .poison_input(&pair("patient-one", "poison-c3.example.net"))
        .panic_on_map_call(3);
    let mut engine = Baywatch::new(quiet_config());
    engine.arm_fault_plan(Arc::new(plan));
    let report = engine.analyze(records);
    assert!(report.faults.map_bisections > 0);
    assert!(report.stats.quarantined_pairs > 0);
    engine.metrics_snapshot()
}

const TICK_SECONDS: u64 = 300;

/// A lossless stream config over the long-trace generator's ticks.
fn stream_config() -> StreamConfig {
    let mut config = StreamConfig::lossless(ScheduleSpec::new(TICK_SECONDS, 4).unwrap());
    config.pipeline = BaywatchConfig {
        local_tau: 0.05,
        ..Default::default()
    };
    config
}

/// Runs `config` over sixteen generated ticks, then over `late`.
fn stream_run(config: StreamConfig, late: &[LogRecord]) -> StreamingHunt {
    let generator = LongTraceGenerator::new(LongTraceConfig {
        seed: 77,
        tick_seconds: TICK_SECONDS,
        ..LongTraceConfig::default()
    });
    let mut hunt = StreamingHunt::new(config).unwrap();
    for tick in 0..16 {
        let records: Vec<LogRecord> = generator
            .tick_events(tick)
            .iter()
            .map(record_from_event)
            .collect();
        hunt.ingest(&records);
    }
    hunt.ingest(late);
    hunt.finish();
    hunt
}

/// A lossless stream with the default rings and state budget and no
/// late event: no event is late, shed or dropped. (Idle pairs still
/// retire, so `pairs_evicted` may move.)
fn clean_stream() -> MetricsSnapshot {
    let hunt = stream_run(stream_config(), &[]);
    let ledger = hunt.ledger();
    assert_eq!(
        ledger.events_late + ledger.events_shed + ledger.events_dropped_capacity,
        0
    );
    hunt.metrics_snapshot()
}

/// A stream over a state budget its working set exceeds (eviction,
/// readmission, degraded and rejected ticks), with small rings that
/// overflow and one event that arrives after its tick closed.
fn stream_under_pressure() -> MetricsSnapshot {
    let mut config = stream_config();
    config.ring_capacity = 8;
    config.state_budget_bytes = 24 * 1024;
    let hunt = stream_run(
        config,
        &[LogRecord::new(0, "10.0.0.1", "late.example.net", "x")],
    );
    let ledger = hunt.ledger();
    assert!(ledger.events_late > 0 && ledger.events_shed > 0 && ledger.pairs_evicted > 0);
    hunt.metrics_snapshot()
}

#[test]
fn every_emitted_name_is_declared_and_every_row_is_emitted() {
    let rows = manifest();
    let clean = [
        ("clean window", clean_window()),
        ("clean stream", clean_stream()),
    ];
    let mut scenarios = clean.to_vec();
    scenarios.push(("faulted window", faulted_window()));
    scenarios.push(("stream under pressure", stream_under_pressure()));

    let mut problems = Vec::new();
    let mut hit = BTreeSet::new();
    for (scenario, snap) in &scenarios {
        for (name, family) in emitted(snap) {
            let declared: Vec<usize> = (0..rows.len())
                .filter(|&i| matches(&rows[i].name, &name))
                .collect();
            if declared.is_empty() {
                problems.push(format!("{scenario}: `{name}` ({family}) has no row"));
            }
            for i in declared {
                if rows[i].kind != family {
                    problems.push(format!(
                        "{scenario}: `{name}` is a {family}, row `{}` says {}",
                        rows[i].name, rows[i].kind
                    ));
                }
                hit.insert(i);
            }
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if !hit.contains(&i) {
            problems.push(format!("row `{}` is emitted by no scenario", row.name));
        }
    }
    for (scenario, snap) in &clean {
        for (name, _) in emitted(snap) {
            if let Some(row) = rows
                .iter()
                .find(|r| r.gating == "gated" && matches(&r.name, &name))
            {
                problems.push(format!(
                    "{scenario} exports `{name}`, gated by row `{}`",
                    row.name
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "METRICS.md is out of date:\n{}",
        problems.join("\n")
    );
}

#[test]
fn patterns_match_one_segment_per_star() {
    assert!(matches("stage.*.admitted", "stage.01_extract.admitted"));
    assert!(!matches("stage.*.admitted", "stage.01_extract.dropped"));
    assert!(!matches("stream.funnel.*", "stream.funnel.a.b"));
    assert!(!matches("stream.funnel.*", "stream.funnel"));
    assert!(matches("x.enter_*", "x.enter_reject"));
    assert!(!matches("x.enter_*", "x.enter_"));
    assert!(!matches("pipeline.events", "pipeline.pairs"));
}
