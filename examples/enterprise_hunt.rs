//! Enterprise hunt: simulate a corporate network for a week, run BAYWATCH
//! daily (as the paper operates it, §VIII-B2), and score the findings
//! against ground truth.
//!
//! ```text
//! cargo run --release --example enterprise_hunt
//! ```
//!
//! Pass `--json` to additionally emit the machine-readable observability
//! export for the final day — the funnel, fault report, metrics snapshot
//! and ranked top-K as one stable JSON document (the same schema the
//! golden-run suite pins; see README "Observability"):
//!
//! ```text
//! cargo run --release --example enterprise_hunt -- --json
//! ```
//!
//! Durable hunts: `--checkpoint-dir DIR` persists each day's detection
//! phase shard-by-shard under `DIR/day_NN`, so an interrupted hunt loses
//! at most one shard of work. Re-run with `--resume` to pick up where the
//! interrupted run stopped (the resumed report is byte-identical to an
//! uninterrupted one), and its `--json` export equals a plain run's. Pairs
//! the engine quarantined are listed in each day's manifest dead-letter
//! queue with their shard and summaries; the shard's persisted fault
//! report holds the panic messages:
//!
//! ```text
//! cargo run --release --example enterprise_hunt -- --checkpoint-dir /tmp/hunt
//! cargo run --release --example enterprise_hunt -- --checkpoint-dir /tmp/hunt --resume
//! ```
//!
//! A flag not listed here exits with status 2 (`unknown flag --resum`), and
//! so does every flag that takes a value when the value is missing or is
//! itself a flag (`--checkpoint-dir --resume`).
//!
//! Streaming mode (see DESIGN.md §12): `--stream` replaces the daily
//! batch hunt with the incremental engine — bounded per-pair state,
//! budget-driven eviction, a funnel per tick — fed either from the
//! infinite netsim long trace (default) or from newline-delimited
//! `timestamp source domain [token]` shards on stdin (`--stream-stdin`):
//!
//! ```text
//! cargo run --release --example enterprise_hunt -- --stream
//! cargo run --release --example enterprise_hunt -- --stream \
//!     --tick-seconds 300 --window-ticks 4 --ring-capacity 64 \
//!     --state-budget-bytes 262144 --stream-ticks 24 --json
//! generate_shards | cargo run --release --example enterprise_hunt -- \
//!     --stream --stream-stdin
//! ```

#![warn(clippy::unwrap_used)]

use std::collections::BTreeSet;

use baywatch::core::checkpoint::CheckpointSpec;
use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::report::export_json;
use baywatch::core::stream::{StreamConfig, StreamingHunt, TickReport};
use baywatch::core::ScheduleSpec;
use baywatch::netsim::enterprise::{EnterpriseConfig, EnterpriseSimulator};
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::record_from_event;

/// Every flag this example reads, those taking a value included.
const FLAGS: [&str; 10] = [
    "--json",
    "--checkpoint-dir",
    "--resume",
    "--stream",
    "--stream-stdin",
    "--stream-ticks",
    "--tick-seconds",
    "--window-ticks",
    "--ring-capacity",
    "--state-budget-bytes",
];

/// Parses the value following `name`, exiting with a message when the
/// flag is present but its value is missing, is another flag, or does not
/// parse.
fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let Some(raw) = args.get(i + 1).filter(|raw| !raw.starts_with("--")) else {
        eprintln!("{name} requires a value");
        std::process::exit(2);
    };
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("invalid value `{raw}` for {name}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(unknown) = args[1..]
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("unknown flag {unknown}");
        std::process::exit(2);
    }
    let emit_json = args.iter().any(|a| a == "--json");
    let resume = args.iter().any(|a| a == "--resume");
    let checkpoint_dir: Option<std::path::PathBuf> = flag_value(&args, "--checkpoint-dir");
    if resume && checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir DIR");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--stream") {
        run_stream_scenario(&args, emit_json);
        return;
    }
    // ---- Simulate the enterprise. -------------------------------------
    let config = EnterpriseConfig {
        hosts: 150,
        days: 7,
        infection_rate: 0.06,
        ..Default::default()
    };
    let sim = EnterpriseSimulator::new(config);
    let truth = sim.ground_truth();
    println!(
        "simulated {} hosts, {} campaigns, {} infected hosts",
        sim.config().hosts,
        sim.campaigns().len(),
        truth.infected_host_count()
    );
    for c in sim.campaigns() {
        println!(
            "  campaign: {:?} -> {} ({} hosts, from day {})",
            c.profile,
            c.domain,
            c.hosts.len(),
            c.start_day
        );
    }

    // ---- Daily operation. ----------------------------------------------
    // τ_P = 5%: with 150 hosts, organizational services (update/AV pollers
    // subscribed by ~80% of machines) sit far above it, victim pools of
    // 1–5 hosts far below.
    let config = BaywatchConfig {
        local_tau: 0.05,
        ..Default::default()
    };
    let mut engine = Baywatch::new(config);

    let mut reported: BTreeSet<String> = BTreeSet::new();
    let mut flagged: BTreeSet<String> = BTreeSet::new();
    let mut last_report = None;
    for day in 0..sim.config().days {
        let events = sim.generate_day(day);
        let records = events.iter().map(record_from_event).collect();
        let report = match &checkpoint_dir {
            None => engine.analyze(records),
            Some(base) => {
                let spec = CheckpointSpec {
                    resume,
                    ..CheckpointSpec::new(base.join(format!("day_{day:02}")))
                };
                match engine.analyze_checkpointed(records, &spec) {
                    Ok(report) => report,
                    Err(err) => {
                        eprintln!("checkpoint I/O failed under {}: {err}", spec.dir.display());
                        std::process::exit(1);
                    }
                }
            }
        };
        let day_kind = if sim.is_weekend(day) {
            "weekend"
        } else {
            "weekday"
        };
        println!(
            "day {day} ({day_kind}): {} events, {} pairs, {} periodic, {} reported",
            report.stats.events, report.stats.pairs, report.stats.periodic, report.stats.reported
        );
        if let Some(ck) = &report.checkpoint {
            println!(
                "    checkpoint: {}/{} shards resumed, {} executed, dlq {} entries",
                ck.resumed_shards, ck.total_shards, ck.executed_shards, ck.dlq_entries
            );
        }
        for rc in &report.ranked {
            flagged.insert(rc.case.pair.destination.clone());
        }
        for rc in report.reported() {
            println!(
                "    reported: {}  (score {:.2}, period {:?})",
                rc.case.pair,
                rc.score,
                rc.case.smallest_period().map(|p| p.round())
            );
            reported.insert(rc.case.pair.destination.clone());
        }
        last_report = Some(report);
    }

    // ---- Score against ground truth. -----------------------------------
    let true_hits: Vec<&String> = reported.iter().filter(|d| truth.is_malicious(d)).collect();
    let missed: Vec<&String> = truth
        .malicious_domains
        .iter()
        .filter(|d| !flagged.contains(*d))
        .collect();
    println!("\n--- verdict ---");
    println!(
        "reported {} distinct destinations above the 90th percentile; {} truly malicious, {} false alarms",
        reported.len(),
        true_hits.len(),
        reported.len() - true_hits.len()
    );
    let flagged_mal = truth
        .malicious_domains
        .iter()
        .filter(|d| flagged.contains(*d))
        .count();
    println!(
        "coverage: {}/{} malicious destinations flagged by the pipeline ({} of them top-ranked)",
        flagged_mal,
        truth.malicious_domains.len(),
        true_hits.len()
    );
    if !missed.is_empty() {
        println!("missed: {missed:?} (low-and-slow campaigns may need the weekly/monthly pass)");
    }

    // ---- Machine-readable export. --------------------------------------
    // Funnel counts are the final day's window; the metrics snapshot is
    // cumulative over the whole week (the registry lives on the engine).
    if emit_json {
        if let Some(report) = &last_report {
            println!("\n--- observability export (--json) ---");
            println!("{}", export_json(report, &engine.metrics_snapshot(), 10));
        }
    }
}

/// Runs the streaming engine: continuous ingestion with bounded
/// per-pair state under a global memory budget, a funnel per tick, and
/// the finish tick's report as the final window's. Fed from the
/// infinite netsim long trace by default, or from stdin shards
/// (`--stream-stdin`, one `timestamp source domain [token]` per line).
fn run_stream_scenario(args: &[String], emit_json: bool) {
    let tick_seconds = flag_value(args, "--tick-seconds").unwrap_or(300);
    let window_ticks = flag_value(args, "--window-ticks").unwrap_or(4);
    let schedule = match ScheduleSpec::new(tick_seconds, window_ticks) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("invalid schedule: {err}");
            std::process::exit(2);
        }
    };
    let mut config = StreamConfig::lossless(schedule);
    config.ring_capacity = flag_value(args, "--ring-capacity").unwrap_or(64);
    config.state_budget_bytes = flag_value(args, "--state-budget-bytes").unwrap_or(256 * 1024);
    config.pipeline = BaywatchConfig {
        local_tau: 0.05,
        ..Default::default()
    };
    let mut hunt = match StreamingHunt::new(config) {
        Ok(hunt) => hunt,
        Err(err) => {
            eprintln!("invalid stream config: {err}");
            std::process::exit(2);
        }
    };

    let print_tick = |r: &TickReport| {
        println!(
            "tick {:>4} [{:>7}] events {:>5} pairs {:>4} periodic {:>3} reported {:>3} | \
             live {:>4} resident {:>8}B evicted {:>3} detect {}/{} cached",
            r.tick,
            format!("{:?}", r.decision),
            r.stats.events,
            r.stats.pairs,
            r.stats.periodic,
            r.stats.reported,
            r.live_pairs,
            r.resident_bytes,
            r.evicted.len(),
            r.detect_runs,
            r.detect_cached,
        );
    };

    if args.iter().any(|a| a == "--stream-stdin") {
        println!("streaming from stdin (timestamp source domain [token] per line)...");
        let mut malformed = 0usize;
        let mut line = String::new();
        while std::io::BufRead::read_line(&mut std::io::stdin().lock(), &mut line).unwrap_or(0) > 0
        {
            let mut fields = line.split_whitespace();
            let record = match (
                fields.next().and_then(|t| t.parse().ok()),
                fields.next(),
                fields.next(),
            ) {
                (Some(timestamp), Some(source), Some(domain)) => {
                    LogRecord::new(timestamp, source, domain, fields.next().unwrap_or(""))
                }
                _ => {
                    if !line.trim().is_empty() {
                        malformed += 1;
                    }
                    line.clear();
                    continue;
                }
            };
            line.clear();
            for report in hunt.ingest(&[record]) {
                print_tick(&report);
            }
        }
        if malformed > 0 {
            println!("skipped {malformed} malformed stdin lines");
        }
    } else {
        let ticks: u64 = flag_value(args, "--stream-ticks").unwrap_or(12);
        let generator = LongTraceGenerator::new(LongTraceConfig {
            tick_seconds,
            ..LongTraceConfig::default()
        });
        println!(
            "streaming {} ticks of the long trace; planted beacons: {:?}",
            ticks,
            generator.beacon_domains()
        );
        for tick in 0..ticks {
            let records: Vec<LogRecord> = generator
                .tick_events(tick)
                .iter()
                .map(record_from_event)
                .collect();
            for report in hunt.ingest(&records) {
                print_tick(&report);
            }
        }
    }
    if let Some(report) = hunt.finish() {
        print_tick(&report);
    }

    let ledger = hunt.ledger();
    println!(
        "ledger: offered {} admitted {} late {} shed {} capacity-dropped {} retired {} \
         evicted {} resident {} | pairs admitted {} live {} evicted {} readmitted {} \
         balanced={} lossless={}",
        ledger.events_offered,
        ledger.events_admitted,
        ledger.events_late,
        ledger.events_shed,
        ledger.events_dropped_capacity,
        ledger.events_retired,
        ledger.events_evicted,
        ledger.events_resident,
        ledger.pairs_admitted,
        ledger.pairs_live,
        ledger.pairs_evicted,
        ledger.pairs_readmitted,
        ledger.is_balanced(),
        ledger.is_lossless(),
    );
    // The finish tick's report serves both printouts.
    let (report, snapshot) = hunt.final_report();
    println!("confirmed beacons at the final window:");
    for case in report.reported() {
        println!("    {}", case.case.pair);
    }
    if emit_json {
        println!("\n--- observability export (--json) ---");
        println!("{}", export_json(&report, &snapshot, 10));
    }
}
