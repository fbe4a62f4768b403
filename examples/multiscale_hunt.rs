//! Multi-scale operation (§X): daily, weekly and monthly passes catch
//! beacons at different time scales — a 24-hour callback is invisible to a
//! daily run (one event per day!) but unmistakable over a month.
//!
//! ```text
//! cargo run --release --example multiscale_hunt
//! ```

#![warn(clippy::unwrap_used)]

use baywatch::core::record::LogRecord;
use baywatch::core::schedule::MultiScaleScheduler;

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
    let mut sched = MultiScaleScheduler::standard();

    println!("simulating 30 days with three infections at different cadences:");
    println!("  laptop-a -> fast-c2.example      (5-minute beacon)");
    println!("  laptop-b -> medium-c2.example    (6-hour beacon)");
    println!("  laptop-c -> slow-c2.example      (24-hour beacon)\n");

    let mut findings: Vec<(usize, &'static str, String, f64)> = Vec::new();
    for day in 0..30 {
        let mut records = beacon_day(day, "laptop-a", "fast-c2.example", 300);
        records.extend(beacon_day(day, "laptop-b", "medium-c2.example", 6 * 3600));
        records.extend(beacon_day(day, "laptop-c", "slow-c2.example", 24 * 3600));
        for det in sched.ingest_day(records) {
            let period = det.best().map(|c| c.period).unwrap_or(0.0);
            findings.push((day, det.tier, det.pair.destination.clone(), period));
        }
    }

    println!("day | tier    | destination        | detected period");
    println!("----+---------+--------------------+----------------");
    let mut seen = std::collections::HashSet::new();
    for (day, tier, dest, period) in &findings {
        // Print only the first sighting per (tier, dest) to keep it short.
        if seen.insert((tier.to_string(), dest.clone())) {
            println!("{day:>3} | {tier:<7} | {dest:<18} | {period:>8.0} s");
        }
    }

    let tiers_for = |d: &str| -> Vec<&str> {
        findings
            .iter()
            .filter(|(_, _, dest, _)| dest == d)
            .map(|(_, t, _, _)| *t)
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
    println!("\nOK: each cadence was caught exactly by the tier designed for it.");
}
