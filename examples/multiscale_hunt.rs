//! Multi-scale operation (§X): daily, weekly and monthly passes catch
//! beacons at different time scales — a 24-hour callback is invisible to a
//! daily run (one event per day!) but unmistakable over a month.
//!
//! ```text
//! cargo run --release --example multiscale_hunt
//! ```

#![warn(clippy::unwrap_used)]

use baywatch::core::pipeline::BaywatchConfig;
use baywatch::core::record::LogRecord;
use baywatch::core::schedule::{standard_tiers, MultiScaleScheduler};

const DAY: u64 = 86_400;

/// One day of records for a beacon with the given period.
fn beacon_day(day: usize, source: &str, domain: &str, period: u64) -> Vec<LogRecord> {
    let start = day as u64 * DAY;
    let mut t = start + (period - (start % period)) % period;
    let mut out = Vec::new();
    while t < start + DAY {
        out.push(LogRecord::new(t, source, domain, "cb"));
        t += period;
    }
    out
}

fn main() {
    // Three hosts, so each destination is contacted by a third of the
    // population: the paper's τ_P = 1% (set for ~130 K hosts) would
    // whitelist all of them as organisation-wide.
    let config = BaywatchConfig {
        local_tau: 0.5,
        ..Default::default()
    };
    let mut sched =
        MultiScaleScheduler::new(standard_tiers(), config).expect("standard tiers are valid");

    println!("simulating 30 days with three infections at different cadences:");
    println!("  laptop-a -> fast-c2.example      (5-minute beacon)");
    println!("  laptop-b -> medium-c2.example    (6-hour beacon)");
    println!("  laptop-c -> slow-c2.example      (24-hour beacon)\n");

    // (day, tier, destination, period, reported)
    let mut ranked: Vec<(usize, &'static str, String, f64, bool)> = Vec::new();
    for day in 0..30 {
        let mut records = beacon_day(day, "laptop-a", "fast-c2.example", 300);
        records.extend(beacon_day(day, "laptop-b", "medium-c2.example", 6 * 3600));
        records.extend(beacon_day(day, "laptop-c", "slow-c2.example", 24 * 3600));
        for (tier, report) in sched.ingest_day(records) {
            for (rank, case) in report.ranked.iter().enumerate() {
                ranked.push((
                    day + 1,
                    tier,
                    case.case.pair.destination.clone(),
                    case.case.primary_period().unwrap_or(0.0),
                    rank < report.report_cutoff,
                ));
            }
        }
    }

    // Novelty is per tier, so each tier ranks a pair once: on the first
    // window that shows it.
    println!("day | tier    | destination        | period     | reported");
    println!("----+---------+--------------------+------------+---------");
    for (day, tier, dest, period, reported) in &ranked {
        let mark = if *reported { "yes" } else { "" };
        println!("{day:>3} | {tier:<7} | {dest:<18} | {period:>8.0} s | {mark}");
    }
    let reported: Vec<String> = ranked
        .iter()
        .filter(|(.., reported)| *reported)
        .map(|(_, tier, dest, ..)| format!("{tier}: {dest}"))
        .collect();
    println!("\nreported (above each report's 90th-percentile cut): {reported:?}");

    let tiers_for = |d: &str| -> Vec<&str> {
        ranked
            .iter()
            .filter(|(_, _, dest, ..)| dest == d)
            .map(|(_, t, ..)| *t)
            .collect()
    };
    assert!(
        tiers_for("fast-c2.example").contains(&"daily"),
        "5-minute beacon must be caught daily"
    );
    assert!(
        tiers_for("medium-c2.example").contains(&"weekly"),
        "6-hour beacon needs the weekly pass"
    );
    assert!(
        tiers_for("slow-c2.example").contains(&"monthly"),
        "24-hour beacon needs the monthly pass"
    );
    assert!(
        !tiers_for("slow-c2.example").contains(&"daily"),
        "one event per day can never look periodic in a daily window"
    );
    println!("\nOK: each cadence was ranked by the tier designed for it.");
}
