//! Golden-run regression suite: a seeded `netsim::enterprise` trace runs
//! end-to-end and the complete deterministic export — funnel counts,
//! quarantine/timeout tallies, metrics snapshot, ranked top-K — is compared
//! byte-for-byte against `tests/golden/funnel.json`.
//!
//! # Bless workflow
//!
//! The snapshot is committed. Its bytes are a function of the seeds
//! alone — every draw comes from `stats::rng` and every spectrum from
//! `timeseries::fft` — so it is the same on every machine. A missing
//! snapshot fails the test; after an intentional change,
//!
//! ```text
//! BAYWATCH_BLESS=1 cargo test --test golden_funnel
//! ```
//!
//! rewrites it, and the diff is reviewed before it is committed. The
//! export must also be byte-stable across consecutive runs and across
//! shuffled input order, which
//! [`export_is_deterministic_and_order_independent`] asserts in-process.

#![allow(
    clippy::disallowed_methods,
    reason = "the golden snapshot is blessed to and read from disk"
)]

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::record::LogRecord;
use baywatch::core::report::export_json;
use baywatch::netsim::enterprise::{EnterpriseConfig, EnterpriseSimulator};
use baywatch::obs::ManualClock;
use baywatch::record_from_event;
use baywatch::stats::rng::Rng;

const TOP_K: usize = 10;

/// The seeded enterprise trace the suite pins: small enough to run in the
/// default test profile, busy enough that every pipeline stage sees
/// non-trivial volume (benign periodic services + malware campaigns).
fn trace() -> Vec<LogRecord> {
    let sim = EnterpriseSimulator::new(EnterpriseConfig {
        hosts: 60,
        days: 2,
        infection_rate: 0.10,
        ..Default::default()
    });
    let mut records = Vec::new();
    for day in 0..sim.config().days {
        records.extend(sim.generate_day(day).iter().map(record_from_event));
    }
    records
}

/// Runs one analysis window under a manual clock (so no wall-clock value
/// can reach the export) and returns the deterministic JSON export.
fn run_window(records: Vec<LogRecord>) -> String {
    let mut engine = Baywatch::with_clock(
        BaywatchConfig {
            // 60-host population: τ_P = 5% separates org-wide services
            // from victim pools, as in the end-to-end suite.
            local_tau: 0.05,
            ..Default::default()
        },
        Arc::new(ManualClock::new()),
    );
    let report = engine.analyze(records);
    export_json(&report, &engine.metrics_snapshot(), TOP_K)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("funnel.json")
}

/// Extracts the integer value of `"name":<digits>` from the export.
fn counter(json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} missing from export"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an unsigned integer"))
}

#[test]
fn golden_snapshot_matches() {
    let exported = run_window(trace());
    let path = golden_path();
    if std::env::var("BAYWATCH_BLESS").is_ok_and(|v| v == "1") {
        fs::write(&path, &exported).expect("write golden snapshot");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; bless it with BAYWATCH_BLESS=1 cargo test --test golden_funnel",
            path.display()
        )
    });
    assert_eq!(
        exported,
        golden,
        "export deviates from {}; if the change is intentional, re-bless \
         with BAYWATCH_BLESS=1 cargo test --test golden_funnel",
        path.display()
    );
}

#[test]
fn export_is_deterministic_and_order_independent() {
    let records = trace();
    let first = run_window(records.clone());
    let second = run_window(records.clone());
    assert_eq!(first, second, "two consecutive runs must be byte-identical");

    let mut shuffled = records;
    Rng::seed_from_u64(0xBEAC0).shuffle(&mut shuffled);
    let reordered = run_window(shuffled);
    assert_eq!(
        first, reordered,
        "input order must not leak into the export"
    );
}

#[test]
fn every_stage_appears_with_real_counts() {
    let exported = run_window(trace());

    // Funnel stages (whitelists → periodicity → rank) carry real volume.
    assert!(counter(&exported, "events") > 1_000);
    assert!(counter(&exported, "pairs") > 10);
    assert!(counter(&exported, "stage.02_global_whitelist.admitted") > 0);
    assert!(counter(&exported, "stage.03_local_whitelist.admitted") > 0);
    assert!(
        counter(&exported, "stage.04_periodicity.admitted") > 0,
        "the seeded trace contains beaconing campaigns; detection must fire"
    );
    assert!(counter(&exported, "stage.07_lm_rank.admitted") > 0);

    // Detector internals: periodogram → pruning → ACF all ran.
    assert!(counter(&exported, "detector.pairs_analyzed") > 0);
    assert!(counter(&exported, "detector.periodogram.raw_candidates") > 0);
    assert!(counter(&exported, "detector.prune.survivors") > 0);
    assert!(counter(&exported, "detector.acf.verified") > 0);

    // Step 1 accounts for every analyzed pair: it either left with no
    // candidate (as few as 2 shuffle rounds) or passed on all m = 20.
    let analyzed = counter(&exported, "detector.pairs_analyzed");
    let rejected = counter(&exported, "detector.permutation.rejected");
    let rounds = counter(&exported, "detector.permutation.rounds");
    assert!(rejected <= analyzed);
    let passed = analyzed - rejected;
    assert!((20 * passed + 2 * rejected..=20 * analyzed).contains(&rounds));

    // MapReduce ran at least extract + detect jobs.
    assert!(counter(&exported, "mapreduce.jobs") >= 2);

    // Wall-clock-derived data must never reach the golden export.
    assert!(
        !exported.contains("timings") && !exported.contains("nanos") && !exported.contains("span."),
        "timing data leaked into the deterministic export"
    );
}
