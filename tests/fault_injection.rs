//! End-to-end fault-injection suite: deterministic task faults
//! ([`FaultPlan`]) and log corruption ([`netsim::corrupt`]) driven through
//! the full pipeline. The contract under test is *graceful degradation*:
//! analysis always completes, the damage is accounted for in the report
//! (quarantined pairs, skipped events, malformed lines), and pairs the
//! faults did not touch rank byte-identically to a fault-free run.

#![allow(
    clippy::disallowed_methods,
    reason = "checkpoint tests make and remove scratch dirs"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use baywatch::core::elff::read_elff;
use baywatch::core::pair::CommunicationPair;
use baywatch::core::pipeline::{AnalysisReport, Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::report::{render_case, render_funnel, ReportOptions};
use baywatch::mapreduce::FaultPlan;
use baywatch::netsim::adversarial::pathological_sparse_beacon;
use baywatch::netsim::corrupt::{
    corrupt_elff_lines, skew_and_duplicate, to_elff, CorruptionConfig,
};
use baywatch::netsim::types::{HostId, ProxyEvent};
use baywatch::record_from_event;
use baywatch::stats::rng::Rng;

const HOSTS: u64 = 12;
const EVENTS_PER_PAIR: u64 = 80;

fn dga_domain(h: u64) -> String {
    format!("zxq{h}wvkt{h}n.biz")
}

fn beacon_period(h: u64) -> u64 {
    60 + (h % 6) * 30
}

/// One beaconing pair per host: host `h` polls its own DGA destination
/// every `beacon_period(h)` seconds with pseudo-random URL tokens.
fn beacon_events() -> Vec<ProxyEvent> {
    let mut events = Vec::new();
    for h in 0..HOSTS {
        for i in 0..EVENTS_PER_PAIR {
            events.push(ProxyEvent {
                timestamp: 50_000 + i * beacon_period(h),
                host: HostId(h as u32),
                source_ip: 0x0a00_0000 + h as u32,
                domain: dga_domain(h),
                url_path: format!("{:x}", (h * 77 + i) * 2_654_435_761 % 0xFF_FFFF),
            });
        }
    }
    events
}

/// Local whitelist effectively disabled: the test population is a dozen
/// hosts, so the paper's τ_P = 1% would whitelist every destination.
fn quiet_engine() -> Baywatch {
    Baywatch::new(BaywatchConfig {
        local_tau: 0.9,
        ..Default::default()
    })
}

/// Renders a case rank-independently for byte-identity comparison.
fn evidence(report: &AnalysisReport, destination: &str) -> Option<String> {
    report
        .ranked
        .iter()
        .find(|rc| rc.case.pair.destination == destination)
        .map(|rc| render_case(1, rc, &ReportOptions::default()))
}

fn pair_counts(records: &[LogRecord]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    for r in records {
        *counts
            .entry((r.source.clone(), r.domain.clone()))
            .or_insert(0) += 1;
    }
    counts
}

/// A seeded [`FaultPlan`] — one poison pair plus a one-shot map panic —
/// degrades the run (pair quarantined, bisection logged, funnel flags it)
/// while every unaffected pair ranks byte-identically to a fault-free run.
#[test]
fn fault_plan_quarantines_poison_pair_and_preserves_the_rest() {
    let mk_records = || {
        let mut records: Vec<LogRecord> = beacon_events().iter().map(record_from_event).collect();
        for i in 0..60u64 {
            records.push(LogRecord::new(
                50_000 + i * 45,
                "patient-zero",
                "poison-c2.example.net",
                format!("{:x}", i * 7919 % 0xFFFF),
            ));
        }
        records
    };

    let clean = quiet_engine().analyze(mk_records());
    assert!(clean.faults.is_clean());
    assert!(
        clean.ranked.len() >= HOSTS as usize / 2,
        "expected most beacons ranked, got {}",
        clean.ranked.len()
    );

    let poison = format!(
        "{:?}",
        CommunicationPair::new("patient-zero", "poison-c2.example.net")
    );
    let plan = Arc::new(FaultPlan::new().poison_key(&poison).panic_on_map_call(3));
    let mut engine = quiet_engine();
    engine.arm_fault_plan(Arc::clone(&plan));
    let faulted = engine.analyze(mk_records());

    // The run completed and the damage is accounted for.
    assert!(plan.injected_faults() > 0, "the plan never fired");
    assert!(!faulted.faults.is_clean());
    assert!(
        faulted.faults.map_bisections >= 1,
        "one-shot panic not bisected"
    );
    assert_eq!(faulted.faults.quarantined_inputs, 0, "no record lost to it");
    assert_eq!(faulted.stats.quarantined_pairs, 1);
    assert_eq!(faulted.stats.skipped_events, 60, "poison pair's records");
    let funnel = render_funnel(&faulted);
    assert!(funnel.contains("quarantined pairs"));
    assert!(funnel.contains("degraded mode"));

    // Exactly the poison pair is missing...
    let dests = |r: &AnalysisReport| -> BTreeSet<String> {
        r.ranked
            .iter()
            .map(|rc| rc.case.pair.destination.clone())
            .collect()
    };
    let mut expected = dests(&clean);
    expected.remove("poison-c2.example.net");
    assert_eq!(dests(&faulted), expected);

    // ...and every surviving pair's evidence block is byte-identical.
    for dest in &expected {
        assert_eq!(
            evidence(&faulted, dest),
            evidence(&clean, dest),
            "evidence for {dest} changed under fault injection"
        );
    }
}

/// 5% seeded ELFF line corruption (plus a one-shot task panic) flows
/// through lenient ingest and [`Baywatch::analyze_outcome`]: malformed
/// lines are counted exactly, analysis completes, and pairs that lost no
/// events rank byte-identically to the clean run.
#[test]
fn corrupted_elff_ingest_degrades_without_losing_untouched_pairs() {
    let events = beacon_events();
    let clean_elff = to_elff(&events);

    let clean_outcome = read_elff(clean_elff.as_bytes()).unwrap();
    assert_eq!(clean_outcome.malformed_lines, 0);
    assert_eq!(
        clean_outcome.records.len(),
        (HOSTS * EVENTS_PER_PAIR) as usize
    );
    let clean_counts = pair_counts(&clean_outcome.records);
    let clean_report = quiet_engine().analyze_outcome(clean_outcome);
    assert!(
        clean_report.ranked.len() >= HOSTS as usize / 2,
        "expected most beacons ranked, got {}",
        clean_report.ranked.len()
    );

    // Corrupt the first six hosts' section of the log; appending the
    // second section untouched guarantees hosts 6..12 lose nothing, so the
    // byte-identity assertion below can never be vacuous.
    let (first, second): (Vec<ProxyEvent>, Vec<ProxyEvent>) = events
        .into_iter()
        .partition(|e| u64::from(e.host.0) < HOSTS / 2);
    let mut rng = Rng::seed_from_u64(0xBA1_D0C);
    let (mut corrupted, damaged) = corrupt_elff_lines(&to_elff(&first), 0.05, &mut rng);
    corrupted.extend_from_slice(to_elff(&second).as_bytes());
    assert!(damaged > 0, "seed produced no damage at 5% over 480 lines");

    let outcome = read_elff(corrupted.as_slice()).unwrap();
    assert_eq!(
        outcome.malformed_lines, damaged,
        "every damaged line must fail parsing"
    );
    assert_eq!(
        outcome.records.len(),
        (HOSTS * EVENTS_PER_PAIR) as usize - damaged
    );
    let corrupt_counts = pair_counts(&outcome.records);

    let unpanicked = quiet_engine().analyze_outcome(read_elff(corrupted.as_slice()).unwrap());
    let mut engine = quiet_engine();
    engine.arm_fault_plan(Arc::new(FaultPlan::new().panic_on_map_call(7)));
    let report = engine.analyze_outcome(outcome);

    // Degradation is visible end to end: exact malformed count, bounded
    // samples, the one-shot panic bisected away, nothing quarantined.
    assert_eq!(report.stats.malformed_lines, damaged);
    assert_eq!(report.malformed_samples.len(), damaged.min(64));
    assert!(!report.faults.is_clean());
    assert!(report.faults.map_bisections >= 1);
    assert_eq!(report.faults.quarantined_units(), 0);
    assert_eq!(report.stats.quarantined_pairs, 0);
    let funnel = render_funnel(&report);
    assert!(funnel.contains("malformed lines"));
    assert!(funnel.contains("degraded mode"));
    // The bisection lost nothing: the ranked output is byte-identical to
    // the same input's run without the panic.
    let ranked = |r: &AnalysisReport| -> Vec<String> {
        r.ranked
            .iter()
            .enumerate()
            .map(|(i, rc)| render_case(i + 1, rc, &ReportOptions::default()))
            .collect()
    };
    assert!(unpanicked.faults.is_clean());
    assert_eq!(ranked(&report), ranked(&unpanicked));
    assert_eq!(report.report_cutoff, unpanicked.report_cutoff);

    // The population itself survives 5% line loss (no source vanishes).
    assert_eq!(
        report.popularity_total_sources,
        clean_report.popularity_total_sources
    );

    // Pairs with zero damaged lines must rank byte-identically.
    let unaffected: Vec<&(String, String)> = clean_counts
        .iter()
        .filter(|(pair, n)| corrupt_counts.get(pair) == Some(n))
        .map(|(pair, _)| pair)
        .collect();
    assert!(
        unaffected.len() >= HOSTS as usize / 2,
        "hosts 6..12 are untouched by construction"
    );
    let mut verified = 0usize;
    for (_, dest) in &unaffected {
        if let Some(clean_evidence) = evidence(&clean_report, dest) {
            assert_eq!(
                evidence(&report, dest).as_ref(),
                Some(&clean_evidence),
                "evidence for untouched pair {dest} changed under corruption"
            );
            verified += 1;
        }
    }
    assert!(verified >= 1, "no untouched pair was ranked in both runs");
}

/// `max_bins` is the one bound on a pair's work. Two slow pairs join the
/// window under the default detector: netsim's 39-minute beacon (300
/// events 2 333 s apart, ~7·10⁵ one-second bins) and a pair whose span
/// passes `max_bins` (cut while binning). Both complete, the slow beacon
/// is periodic, every other pair's ranked evidence is byte-identical to
/// the window without them, and the export is the same bytes at any
/// thread count and whether the window runs plain or checkpointed —
/// killed after one shard and resumed included.
#[test]
fn max_bins_bounds_slow_pairs_which_complete_and_preserve_the_rest() {
    use baywatch::core::checkpoint::CheckpointSpec;
    use baywatch::core::report::export_json;
    use baywatch::timeseries::DetectorConfig;

    // The slow pairs reuse hosts 0 and 1 as sources, so the source
    // population — and with it every popularity value downstream — is
    // identical whether or not their records are present.
    let slow_beacon = pathological_sparse_beacon(50_000, 300, 2_333);
    let long_span = pathological_sparse_beacon(50_000, 300, 4_001);
    let max_bins = DetectorConfig::default().max_bins as u64;
    assert!(long_span[299] - long_span[0] > max_bins);
    let slow_records = slow_beacon
        .iter()
        .map(|&t| LogRecord::new(t, HostId(0).to_string(), "pathological-dest.biz", "x"))
        .chain(
            long_span
                .iter()
                .map(|&t| LogRecord::new(t, HostId(1).to_string(), "long-span-dest.biz", "y")),
        );

    let base_records: Vec<LogRecord> = beacon_events().iter().map(record_from_event).collect();
    let mut reference_engine = quiet_engine();
    let reference = reference_engine.analyze(base_records.clone());
    assert!(reference.faults.is_clean());
    assert!(
        reference.ranked.len() >= HOSTS as usize / 2,
        "expected most beacons ranked, got {}",
        reference.ranked.len()
    );

    let mut full = base_records;
    full.extend(slow_records);

    let engine = |threads: usize| {
        let mut config = BaywatchConfig {
            local_tau: 0.9,
            ..Default::default()
        };
        config.mapreduce.threads = threads;
        Baywatch::new(config)
    };
    let plain = |threads: usize| {
        let mut engine = engine(threads);
        let report = engine.analyze(full.clone());
        let snapshot = engine.metrics_snapshot();
        let json = export_json(&report, &snapshot, 20);
        (report, snapshot, json)
    };
    let (report, snapshot, json) = plain(2);
    for threads in [1, 8] {
        assert_eq!(plain(threads).2, json, "{threads} threads");
    }

    // Both slow pairs reach a verdict; nothing is cut or quarantined.
    assert!(report.faults.is_clean());
    assert_eq!(report.stats.quarantined_pairs, 0);
    let analyzed = |snap: &baywatch::obs::MetricsSnapshot| snap.counters["detector.pairs_analyzed"];
    assert_eq!(
        analyzed(&snapshot),
        analyzed(&reference_engine.metrics_snapshot()) + 2
    );
    assert_eq!(
        report.stats.after_local_whitelist,
        reference.stats.after_local_whitelist + 2
    );
    // The 2 333 s beacon is found: one periodic pair more than without
    // the slow pairs.
    assert!(report.stats.periodic > reference.stats.periodic);
    let detector = baywatch::timeseries::PeriodicityDetector::default();
    let slow = detector.detect(&slow_beacon).unwrap();
    assert!(slow.is_periodic());
    assert!((slow.best().unwrap().period - 2_333.0).abs() < 2_333.0 * 0.02);

    // Every other pair ranks with byte-identical evidence.
    assert_eq!(
        report.popularity_total_sources,
        reference.popularity_total_sources
    );
    for rc in &reference.ranked {
        let dest = &rc.case.pair.destination;
        assert_eq!(
            evidence(&report, dest),
            evidence(&reference, dest),
            "evidence for {dest} changed beside the slow pairs"
        );
    }

    // Checkpointed: uninterrupted, and killed after one shard then
    // resumed by a fresh engine, export the plain window's bytes and
    // report its funnel and ranking.
    let base = std::env::temp_dir().join(format!("baywatch-max-bins-{}", std::process::id()));
    let checkpointed = |leaf: &str, abort_after_shards: Option<usize>, resume: bool| {
        let mut engine = engine(2);
        let spec = CheckpointSpec {
            shard_size: 4,
            abort_after_shards,
            resume,
            ..CheckpointSpec::new(base.join(leaf))
        };
        let report = engine.analyze_checkpointed(full.clone(), &spec).unwrap();
        let snapshot = engine.metrics_snapshot();
        let json = export_json(&report, &snapshot, 20);
        (report, json, snapshot.operational)
    };
    let (whole, whole_json, whole_ops) = checkpointed("whole", None, false);
    let (killed, _, _) = checkpointed("killed", Some(1), false);
    assert!(killed.checkpoint.unwrap().interrupted);
    let (resumed, resumed_json, _) = checkpointed("killed", None, true);
    let resumed_outcome = resumed.checkpoint.unwrap();
    assert_eq!(resumed_outcome.resumed_shards, 1);
    assert!(resumed_outcome.total_shards >= 3, "want a multi-shard plan");
    assert_eq!(whole_json, json);
    assert_eq!(resumed_json, whole_json);
    // The uninterrupted run writes each shard once and the manifest once
    // per shard, and quarantines nothing.
    let whole_outcome = whole.checkpoint.unwrap();
    assert_eq!(whole_outcome.total_shards, 4);
    for written in ["checkpoint.shards_written", "checkpoint.manifest_writes"] {
        assert_eq!(
            whole_ops[written], whole_outcome.total_shards as u64,
            "{written}"
        );
    }
    assert_eq!(whole_outcome.dlq_entries, 0);
    for run in [&whole, &resumed] {
        assert_eq!(run.stats, report.stats);
        assert_eq!(run.ranked, report.ranked);
    }

    std::fs::remove_dir_all(&base).ok();
}

/// Timestamp skew, duplicated events, and out-of-order delivery — the
/// event-level fault model — are absorbed semantically: duplicates collapse
/// in the activity summaries and skewed beacons still verify as periodic.
#[test]
fn skewed_duplicated_out_of_order_events_are_absorbed() {
    let events = beacon_events();
    let cfg = CorruptionConfig {
        line_corruption_rate: 0.0,
        duplicate_rate: 0.05,
        max_skew_seconds: 2,
    };
    let perturbed = skew_and_duplicate(&events, &cfg, &mut Rng::seed_from_u64(11));
    assert!(perturbed.len() > events.len(), "some duplicates expected");

    let mut records: Vec<LogRecord> = perturbed.iter().map(record_from_event).collect();
    // Force out-of-order delivery on top of the skew.
    records.reverse();

    let mut engine = quiet_engine();
    let report = engine.analyze(records);

    assert!(
        report.faults.is_clean(),
        "event-level damage is not a task fault"
    );
    assert_eq!(report.stats.events, perturbed.len());
    assert_eq!(report.stats.pairs, HOSTS as usize);
    let detected = report
        .ranked
        .iter()
        .filter(|rc| rc.case.pair.destination.starts_with("zxq"))
        .count();
    assert!(
        detected >= HOSTS as usize / 2,
        "only {detected}/{HOSTS} skewed beacons still detected"
    );
}

/// The checkpoint/resume contract (durable hunts): a run killed mid-window
/// and resumed by a fresh engine — a new process, as far as the pipeline
/// can tell — produces a report *byte-identical* to an uninterrupted run:
/// same funnel, same fault tallies, same metrics export, same top-K JSON.
#[test]
fn interrupted_hunt_resumes_byte_identically() {
    use baywatch::core::checkpoint::CheckpointSpec;
    use baywatch::core::report::export_json;

    let records: Vec<LogRecord> = beacon_events().iter().map(record_from_event).collect();
    let base = std::env::temp_dir().join(format!("baywatch-resume-{}", std::process::id()));
    let spec = |leaf: &str| CheckpointSpec {
        shard_size: 4,
        ..CheckpointSpec::new(base.join(leaf))
    };

    // Reference: an uninterrupted checkpointed run.
    let mut full_engine = quiet_engine();
    let full = full_engine
        .analyze_checkpointed(records.clone(), &spec("full"))
        .unwrap();
    let outcome = full.checkpoint.unwrap();
    assert_eq!(outcome.executed_shards, outcome.total_shards);
    assert!(outcome.total_shards >= 3, "want a multi-shard plan");
    assert!(!outcome.interrupted);

    // Kill a second run after one shard…
    let killed_spec = CheckpointSpec {
        abort_after_shards: Some(1),
        ..spec("killed")
    };
    let killed = quiet_engine()
        .analyze_checkpointed(records.clone(), &killed_spec)
        .unwrap();
    let killed_outcome = killed.checkpoint.unwrap();
    assert!(killed_outcome.interrupted);
    assert_eq!(killed_outcome.executed_shards, 1);
    assert!(
        killed.stats.periodic < full.stats.periodic,
        "the kill must actually cut the window short"
    );

    // …and resume it with a fresh engine.
    let resume_spec = CheckpointSpec {
        resume: true,
        ..spec("killed")
    };
    let mut resumed_engine = quiet_engine();
    let resumed = resumed_engine
        .analyze_checkpointed(records, &resume_spec)
        .unwrap();
    let resumed_outcome = resumed.checkpoint.unwrap();
    assert!(!resumed_outcome.interrupted);
    assert_eq!(resumed_outcome.resumed_shards, 1);
    assert_eq!(
        resumed_outcome.executed_shards,
        resumed_outcome.total_shards - 1
    );
    assert_eq!(resumed_outcome.load_warnings, 0);

    assert_eq!(render_funnel(&resumed), render_funnel(&full));
    assert_eq!(
        export_json(&resumed, &resumed_engine.metrics_snapshot(), 10),
        export_json(&full, &full_engine.metrics_snapshot(), 10),
        "resumed run must export byte-identically to the uninterrupted run"
    );

    std::fs::remove_dir_all(&base).ok();
}

/// The far-line probe: host `10.0.0.66` beacons every 60 s, 120 lines,
/// and one more line of the same pair arrives `far` seconds after the
/// epoch; twelve human hosts browse a handful of sites at irregular gaps,
/// and one of them also polls its antivirus signatures every 300 s.
fn far_line_records(far: u64) -> Vec<LogRecord> {
    let beacon = |t: u64, i: u64| {
        LogRecord::new(
            t,
            "10.0.0.66",
            "qkz7vw2nx9.biz",
            format!("{:x}", (i + 3) * 2_654_435_761 % 0xFF_FFFF),
        )
    };
    let mut records: Vec<LogRecord> = (0..120).map(|i| beacon(50_000 + i * 60, i)).collect();
    records.push(beacon(far, 120));
    let sites = [
        "news.example.org",
        "mail.example.com",
        "wiki.example.net",
        "shop.example.com",
    ];
    let mut rng = Rng::seed_from_u64(9);
    for h in 0..12u64 {
        let mut t = 50_000;
        for i in 0..40u64 {
            t += rng.random_range(1u64..900);
            let site = sites[rng.random_range(0..sites.len())];
            records.push(LogRecord::new(
                t,
                format!("10.0.1.{h}"),
                site,
                format!("/page{i}"),
            ));
        }
    }
    for i in 0..60u64 {
        records.push(LogRecord::new(
            50_000 + i * 300,
            "10.0.1.0",
            "av.example.net",
            "/signatures/update",
        ));
    }
    records
}

/// One line of a beaconing pair placed far ahead of the rest — a clock
/// fault or a mistyped date — is one more event of its pair. The series
/// is built from the events and cut at `max_bins` while binning, so the
/// span is never allocated: at 10¹⁰ s that allocation was 80 GB and
/// aborted the process, at 2⁶² s it overflowed and quarantined the
/// beacon. CI runs the `far_span` tests under an 8 GiB address-space
/// limit.
#[test]
fn far_span_line_leaves_the_funnel_unchanged() {
    let stats = |far: u64| quiet_engine().analyze(far_line_records(far)).stats;
    let near = stats(100_000_000);
    assert_eq!(
        (near.periodic, near.quarantined_pairs, near.reported),
        (2, 0, 1)
    );
    for far in [10_000_000_000, 1 << 62] {
        assert_eq!(stats(far), near, "the extra line at {far} s");
    }
}

/// An ELFF window dated 2024 in which one beacon line was typed as 2120:
/// the window parses clean and the beacon still ranks first, its period
/// intact.
#[test]
fn far_span_elff_line_typed_a_century_ahead_is_absorbed() {
    let mut log = String::from(
        "#Software: SGOS 6.5\n#Fields: date time c-ip cs-host cs-uri-path sc-status\n",
    );
    for i in 0..144u64 {
        let (h, m) = ((i * 10) / 60, (i * 10) % 60);
        let year = if i == 77 { 2120 } else { 2024 };
        log.push_str(&format!(
            "{year}-03-01 {h:02}:{m:02}:00 10.0.0.9 qzvkxw.example.biz /c0{i:03x} 200\n"
        ));
    }
    for i in 0..60u64 {
        let t = (i * i * 613) % 86_400;
        let (h, m, s) = (t / 3600, (t % 3600) / 60, t % 60);
        log.push_str(&format!(
            "2024-03-01 {h:02}:{m:02}:{s:02} 10.0.0.7 news.example.org /story{i} 200\n"
        ));
    }
    let outcome = read_elff(log.as_bytes()).unwrap();
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.records.len(), 144 + 60);

    let report = quiet_engine().analyze(outcome.records);
    assert_eq!(report.stats.quarantined_pairs, 0);
    assert!(report.faults.is_clean());
    let top = &report.ranked[0].case;
    assert_eq!(top.pair.destination, "qzvkxw.example.biz");
    let period = top.primary_period().unwrap();
    assert!((period - 600.0).abs() < 30.0, "period = {period}");
}
