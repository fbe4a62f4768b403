//! The metrics manifest is exact. Every name the pipeline emits is a row
//! of `METRICS.md` of the right kind, every row is emitted by at least one
//! scenario below, and no clean run (batch window, stream, idle ingest
//! guard) exports a `gated` row.
//!
//! A row's name is a dotted pattern: each segment matches one dotted
//! segment of a runtime name, and a `*` inside a segment stands for one or
//! more characters other than `.`. The kind is the snapshot family the
//! name sits in (`counter`, `gauge`, `histogram`, `timing`,
//! `operational`). Stage spans reach the registry as `span.<path>`
//! timings, so they are declared as timings.
//!
//! A new metric fails here until it has a row, and a row whose last
//! emitter is deleted fails here until the row goes too.

#![allow(
    clippy::disallowed_methods,
    reason = "the checkpoint scenarios make and remove scratch dirs"
)]

use std::collections::BTreeSet;
use std::sync::Arc;

use baywatch::core::checkpoint::CheckpointSpec;
use baywatch::core::io::IngestGuard;
use baywatch::core::pair::CommunicationPair;
use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::stream::{StreamConfig, StreamingHunt};
use baywatch::core::ScheduleSpec;
use baywatch::mapreduce::{
    BudgetSnapshot, CheckpointStore, CheckpointedRun, FaultPlan, FaultPolicy, JobConfig, MapReduce,
};
use baywatch::netsim::adversarial::pathological_sparse_beacon;
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::netsim::resilience::{flapping_source, FlappingConfig};
use baywatch::obs::{Clock, ManualClock, MetricsRegistry, MetricsSnapshot};
use baywatch::record_from_event;
use baywatch::resilience::BreakerConfig;
use baywatch::timeseries::BudgetSpec;

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
    assert!(rows.len() > 50, "METRICS.md table not found");
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
    names.extend(snap.operational.keys().map(|n| (n.clone(), "operational")));
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

fn scratch(leaf: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("baywatch-manifest-{leaf}-{}", std::process::id()))
}

/// A fault-free batch window.
fn clean_window() -> MetricsSnapshot {
    let mut engine = Baywatch::new(quiet_config());
    engine.analyze(beacon_records(12));
    engine.metrics_snapshot()
}

/// A checkpointed window with a transient map panic (retried), a poison
/// pair (quarantined) and a pair whose budget runs out (dead-lettered),
/// then a resume that replays the dead-letter queue.
fn faulted_window_with_dlq_replay() -> Vec<MetricsSnapshot> {
    let mut records = beacon_records(12);
    records.extend(
        pathological_sparse_beacon(50_000, 300, 2_333)
            .into_iter()
            .map(|t| LogRecord::new(t, "10.0.0.0", "pathological-dest.biz", "x")),
    );
    records.extend((0..60u64).map(|i| {
        LogRecord::new(
            50_000 + i * 45,
            "patient-zero",
            "poison-c2.example.net",
            "p",
        )
    }));
    let mut config = quiet_config();
    config.detector.budget.max_ops = Some(800_000);
    let poison = format!(
        "{:?}",
        CommunicationPair::new("patient-zero", "poison-c2.example.net")
    );
    let dir = scratch("dlq");
    let spec = CheckpointSpec {
        shard_size: 4,
        ..CheckpointSpec::new(&dir)
    };

    let mut first = Baywatch::new(config.clone());
    first.arm_fault_plan(Arc::new(
        FaultPlan::new().poison_key(&poison).panic_on_map_call(3),
    ));
    let report = first.analyze_checkpointed(records.clone(), &spec).unwrap();
    assert!(report.faults.map_retries > 0 && report.stats.quarantined_pairs > 0);
    assert!(report.checkpoint.unwrap().dlq_entries > 0);

    let mut second = Baywatch::new(config);
    let replay = CheckpointSpec {
        resume: true,
        replay_budget: Some(BudgetSpec::UNLIMITED),
        ..spec
    };
    let report = second.analyze_checkpointed(records, &replay).unwrap();
    assert!(report.checkpoint.unwrap().dlq_replayed > 0);
    std::fs::remove_dir_all(&dir).ok();
    vec![first.metrics_snapshot(), second.metrics_snapshot()]
}

/// Checkpoint saves through a breaker on a manual clock: two failed
/// saves trip it open, the next shard is refused, and once the cooldown
/// has passed a probe save closes it again.
fn checkpointed_run_with_failing_saves() -> MetricsSnapshot {
    let registry = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(ManualClock::new());
    let config = BreakerConfig {
        failure_threshold: 2,
        success_threshold: 1,
        ..BreakerConfig::default()
    };
    let engine = MapReduce::new(JobConfig {
        partitions: 2,
        threads: 1,
    })
    .with_metrics(registry.clone())
    .with_checkpoint_breaker(config, clock.clone() as Arc<dyn Clock>);
    let dir = scratch("saves");
    let store = CheckpointStore::create(&dir).unwrap();
    let plan = FaultPlan::new().fail_next_saves(2);
    let shards: Vec<Vec<&str>> = vec![vec!["a b"], vec!["b c"], vec!["c d"], vec!["cooldown d"]];
    let outcome = engine
        .run_sharded_checkpointed(
            &shards,
            &CheckpointedRun {
                store: &store,
                fingerprint: 1,
                rng_seed: 0,
                budget: BudgetSnapshot::default(),
                resume: false,
                io_faults: Some(&plan),
                abort_after_shards: None,
            },
            &FaultPolicy::default(),
            |doc: &&str, emit| {
                if doc.starts_with("cooldown") {
                    clock.advance(config.cooldown_nanos);
                }
                for w in doc.split_whitespace() {
                    emit(w.to_owned(), 1usize);
                }
            },
            |k: &String, vs: &[usize]| vec![(k.clone(), vs.len())],
            |rows: &[(String, usize)]| format!("{rows:?}"),
            |_: &str| None,
            |_, _, _, _| Vec::new(),
        )
        .unwrap();
    assert_eq!(outcome.write_warnings, 3, "two failed saves, one refused");
    std::fs::remove_dir_all(&dir).ok();
    registry.snapshot()
}

/// An ELFF source alternating clean and corrupt windows walks its ingest
/// breaker open, half-open and closed.
fn flapping_ingest() -> MetricsSnapshot {
    let config = FlappingConfig {
        windows: 4,
        ..FlappingConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let mut guard = IngestGuard::new(BreakerConfig::default(), clock.clone() as Arc<dyn Clock>);
    for window in flapping_source(&config, 42) {
        guard
            .read_elff_source("flapping-proxy", window.bytes.as_slice())
            .unwrap();
        clock.advance(config.window_seconds * 1_000_000_000);
    }
    assert!(guard.stats().closed > 0);
    let registry = MetricsRegistry::new();
    guard.record_metrics(&registry);
    registry.snapshot()
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

/// An ingest guard that has read nothing.
fn idle_ingest() -> MetricsSnapshot {
    let guard = IngestGuard::new(BreakerConfig::default(), Arc::new(ManualClock::new()));
    let registry = MetricsRegistry::new();
    guard.record_metrics(&registry);
    registry.snapshot()
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
        ("idle ingest", idle_ingest()),
    ];
    let mut scenarios = clean.to_vec();
    scenarios.extend(
        faulted_window_with_dlq_replay()
            .into_iter()
            .map(|s| ("faulted window with DLQ replay", s)),
    );
    scenarios.push((
        "failing checkpoint saves",
        checkpointed_run_with_failing_saves(),
    ));
    scenarios.push(("flapping ingest", flapping_ingest()));
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
