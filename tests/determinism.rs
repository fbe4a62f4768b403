//! Determinism regression tests: the full pipeline must produce identical
//! ranked output run-to-run and regardless of how the work is spread over
//! MapReduce worker threads; so must the streaming engine, tick by tick.
//!
//! This pins two behaviors at once: the fixed-seed permutation threshold
//! (`timeseries::permutation` derives every shuffle from one seeded
//! `stats::rng::Rng`, so the power threshold is a pure function of the series), and
//! the thread-local spectral workspace (recycled buffers and shared FFT
//! plans must be numerically transparent — a pair's report cannot depend on
//! which worker thread, with whatever buffers, happened to process it, nor
//! on which thread built a plan first).

use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::stream::{StreamConfig, StreamingHunt};
use baywatch::core::ScheduleSpec;
use baywatch::mapreduce::JobConfig;
use baywatch::netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch::netsim::synth::{multi_period_burst, SyntheticBeacon};
use baywatch::record_from_event;
use baywatch::timeseries::detector::{DetectorConfig, PeriodicityDetector};
use baywatch::timeseries::workspace::SpectralWorkspace;

/// A mixed window: three beacons (one jitter-free, one with coarse
/// timestamp quantization, one slow) plus deterministic human-like noise.
fn window_records() -> Vec<LogRecord> {
    let mut records = Vec::new();
    for i in 0..120u64 {
        records.push(LogRecord::new(
            10_000 + i * 60,
            "victim-a",
            "qzkxwvbn.com",
            "beacon",
        ));
    }
    for i in 0..90u64 {
        records.push(LogRecord::new(
            20_000 + i * 83,
            "victim-b",
            "xkvqzw.net",
            "cb",
        ));
    }
    for i in 0..70u64 {
        records.push(LogRecord::new(
            5_000 + i * 420,
            "victim-c",
            "wvbnqz.org",
            "ping",
        ));
    }
    for h in 0..10u64 {
        let mut t = 10_000u64;
        for i in 0..50u64 {
            t += 1 + (h * 7919 + i * i * 104_729) % 700;
            records.push(LogRecord::new(
                t,
                format!("host{h}"),
                format!("site{h}.example.org"),
                "index",
            ));
        }
    }
    records
}

fn config_with(threads: usize, partitions: usize) -> BaywatchConfig {
    BaywatchConfig {
        // Tiny test population: disable the paper's τ_P = 1% local
        // whitelist, which would otherwise swallow every destination.
        local_tau: 0.9,
        mapreduce: JobConfig {
            threads,
            partitions,
        },
        ..Default::default()
    }
}

fn ranked_fingerprint(cfg: BaywatchConfig) -> Vec<(String, f64, Vec<f64>)> {
    ranked_fingerprint_of(cfg, window_records())
}

fn ranked_fingerprint_of(
    cfg: BaywatchConfig,
    records: Vec<LogRecord>,
) -> Vec<(String, f64, Vec<f64>)> {
    let mut engine = Baywatch::new(cfg);
    let report = engine.analyze(records);
    assert!(
        !report.ranked.is_empty(),
        "window must produce at least one ranked case"
    );
    report
        .ranked
        .iter()
        .map(|r| {
            (
                format!("{}→{}", r.case.pair.source, r.case.pair.destination),
                r.score,
                r.case.candidates.iter().map(|c| c.period).collect(),
            )
        })
        .collect()
}

#[test]
fn analyze_is_deterministic_run_to_run() {
    let a = ranked_fingerprint(config_with(4, 8));
    let b = ranked_fingerprint(config_with(4, 8));
    assert_eq!(a, b);
}

/// Log collectors deliver records in whatever order the sensors flushed
/// them; the ranked report must not care. Reversal and a seeded
/// Fisher–Yates shuffle (hand-rolled xorshift, so the test itself is
/// deterministic) must both produce the identical fingerprint.
#[test]
fn analyze_is_independent_of_input_record_order() {
    let base = ranked_fingerprint(config_with(4, 8));

    let mut reversed = window_records();
    reversed.reverse();
    assert_eq!(
        base,
        ranked_fingerprint_of(config_with(4, 8), reversed),
        "ranked output changed when the window was reversed"
    );

    let mut shuffled = window_records();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..shuffled.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shuffled.swap(i, (state % (i as u64 + 1)) as usize);
    }
    assert_eq!(
        base,
        ranked_fingerprint_of(config_with(4, 8), shuffled),
        "ranked output changed when the window was shuffled"
    );
}

#[test]
fn analyze_is_deterministic_across_thread_counts() {
    let base = ranked_fingerprint(config_with(1, 8));
    for threads in [2usize, 4, 8] {
        let other = ranked_fingerprint(config_with(threads, 8));
        assert_eq!(base, other, "ranked output changed with {threads} threads");
    }
}

/// The stream re-detects each tick's stale pairs on the MapReduce workers;
/// its output must not depend on how many there are. Under a state budget
/// the trace overflows — so ticks degrade, evict and serve stale verdicts —
/// every tick report, the ledger and the final export are identical at
/// 1, 2 and 8 threads.
#[test]
fn stream_is_deterministic_across_thread_counts() {
    let run = |threads| {
        let mut config = StreamConfig::lossless(ScheduleSpec::new(300, 4).unwrap());
        config.ring_capacity = 64;
        config.state_budget_bytes = 96 * 1024;
        config.pipeline = BaywatchConfig {
            local_tau: 0.05,
            ..config_with(threads, 32)
        };
        let generator = LongTraceGenerator::new(LongTraceConfig {
            seed: 7,
            tick_seconds: 300,
            ..LongTraceConfig::default()
        });
        let mut hunt = StreamingHunt::new(config).unwrap();
        let mut reports = Vec::new();
        for tick in 0..16 {
            let records: Vec<LogRecord> = generator
                .tick_events(tick)
                .iter()
                .map(record_from_event)
                .collect();
            reports.extend(hunt.ingest(&records));
        }
        reports.extend(hunt.finish());
        let reports: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
        (reports, *hunt.ledger(), hunt.final_export(50))
    };
    let base = run(1);
    assert!(
        base.0.iter().any(|r| r.contains("decision: Degrade")),
        "the budget must degrade some ticks"
    );
    for threads in [2usize, 8] {
        assert_eq!(
            run(threads),
            base,
            "stream output changed with {threads} threads"
        );
    }
}

#[test]
fn analyze_is_deterministic_across_partition_counts() {
    let base = ranked_fingerprint(config_with(4, 1));
    for partitions in [4usize, 32] {
        let other = ranked_fingerprint(config_with(4, partitions));
        assert_eq!(
            base, other,
            "ranked output changed with {partitions} partitions"
        );
    }
}

/// The detector corpus: for each of five periods, three seeds of a clean
/// beacon and of a jittered, lossy, noisy one, plus four Conficker-style
/// two-scale bursts. Periods repeat across seeds, so a workspace that runs
/// it sees both cold plan builds and warm hits.
fn detector_corpus() -> Vec<Vec<u64>> {
    let mut pairs = Vec::new();
    for (i, period) in [30.0, 60.0, 120.0, 300.0, 600.0].into_iter().enumerate() {
        for seed in 0..3u64 {
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
    for seed in 0..4 {
        pairs.push(multi_period_burst(0, 20, 16, 7.5, 600.0, 0.4, seed));
    }
    pairs
}

/// A detection report must not depend on which thread (with whatever
/// already-grown buffers) runs it: cold workspace, warm workspace and
/// foreign-thread workspace all agree bit-for-bit. The workspace is warmed
/// on the detector corpus, whose verdicts are pinned exactly and whose
/// second pass must find every plan built.
#[test]
fn detection_report_is_workspace_independent() {
    let timestamps: Vec<u64> = (0..150u64).map(|i| 1_000_000 + i * 83).collect();
    let detector = PeriodicityDetector::new(DetectorConfig::default());

    let cold = detector
        .detect_in(&SpectralWorkspace::new(), &timestamps)
        .unwrap();

    let warm_ws = SpectralWorkspace::new();
    let corpus = detector_corpus();
    let pass = || -> Vec<_> {
        corpus
            .iter()
            .map(|ts| detector.detect_in(&warm_ws, ts))
            .collect()
    };
    let first = pass();
    let plans_built = warm_ws.plans_built();
    assert_eq!(pass(), first, "a second pass changed a verdict");
    assert_eq!(
        warm_ws.plans_built(),
        plans_built,
        "a second pass on the same workspace built a plan"
    );
    let reports: Vec<_> = first.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(
        (reports.len(), first.len() - reports.len()),
        (34, 0),
        "detections ok, err"
    );
    assert_eq!(reports.iter().filter(|r| r.is_periodic()).count(), 34);
    // Σ round(1000 · best period) over the corpus: flips if any verdict's
    // period moves by a millisecond.
    let period_checksum: u64 = reports
        .iter()
        .filter_map(|r| r.best())
        .map(|best| (best.period * 1000.0).round() as u64)
        .sum();
    assert_eq!(period_checksum, 8_523_307);

    let warm = detector.detect_in(&warm_ws, &timestamps).unwrap();

    let foreign = std::thread::spawn({
        let timestamps = timestamps.clone();
        move || {
            PeriodicityDetector::new(DetectorConfig::default())
                .detect(&timestamps)
                .unwrap()
        }
    })
    .join()
    .unwrap();

    assert_eq!(cold, warm);
    assert_eq!(cold, foreign);
}
