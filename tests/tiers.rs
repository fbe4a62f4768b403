//! The multi-scale tiers are the batch engine: a tier's report is the
//! report a fresh `Baywatch` at the tier's time scale returns over the raw
//! records of the tier's days, and the popularity it reads — the union of
//! the days' distinct pairs — is the popularity of those records.

use std::collections::BTreeSet;

use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::popularity::PopularityStats;
use baywatch::core::record::LogRecord;
use baywatch::core::report::export_json;
use baywatch::core::schedule::{standard_tiers, MultiScaleScheduler};
use baywatch::obs::MetricsSnapshot;
use baywatch::stats::rng::{forall, Rng};

const DAY: u64 = 86_400;

/// Day `day` of a 10-host enterprise: three beacons (300 s, 6 h, 24 h),
/// six browsing hosts with a rare site each, an intranet every host visits, and a printer that
/// only ever contacts a globally whitelisted destination.
fn enterprise_day(day: u64, rng: &mut Rng) -> Vec<LogRecord> {
    let start = day * DAY;
    let mut records = Vec::new();
    for (source, destination, period) in [
        ("victim-a", "qzkxwvbnmtr.com", 300),
        ("victim-b", "medium-c2.biz", 6 * 3600),
        ("victim-c", "slow-c2.net", DAY),
    ] {
        let mut t = start + 17;
        while t < start + DAY {
            records.push(LogRecord::new(t, source, destination, "a91f3c"));
            t += period;
        }
    }
    let sites = [
        "news-portal.org",
        "wiki-site.net",
        "google.com",
        "shop-front.com",
    ];
    for host in 0..6 {
        let source = format!("host{host}");
        for _ in 0..rng.random_range(10..30u64) {
            let site = sites[rng.random_range(0..sites.len())];
            let t = start + rng.random_range(0..DAY);
            records.push(LogRecord::new(t, &source, site, "index"));
        }
        // A site only this host reads, so bystander pairs reach filter 3.
        for _ in 0..rng.random_range(5..15u64) {
            let t = start + rng.random_range(0..DAY);
            records.push(LogRecord::new(
                t,
                &source,
                format!("blog{host}.org"),
                "post",
            ));
        }
    }
    for source in [
        "host0", "host1", "host2", "host3", "host4", "host5", "victim-a",
    ] {
        let t = start + rng.random_range(0..DAY);
        records.push(LogRecord::new(t, source, "intranet.corp", "home"));
    }
    for _ in 0..5 {
        let t = start + rng.random_range(0..DAY);
        records.push(LogRecord::new(t, "printer", "google.com", "ping"));
    }
    records
}

#[test]
fn tier_report_is_the_batch_report_of_its_window() {
    // τ_P = 0.5 keeps each beacon (1 of 10 hosts) and whitelists the
    // intranet (7 of 10).
    let config = BaywatchConfig {
        local_tau: 0.5,
        ..Default::default()
    };
    let mut rng = Rng::seed_from_u64(38);
    let days: Vec<Vec<LogRecord>> = (0..30).map(|d| enterprise_day(d, &mut rng)).collect();

    let mut sched = MultiScaleScheduler::new(standard_tiers(), config.clone()).unwrap();
    let mut compared = BTreeSet::new();
    for (d, day) in days.iter().enumerate() {
        for (name, report) in sched.ingest_day(day.clone()) {
            if !compared.insert(name) {
                continue;
            }
            let tier = standard_tiers()
                .into_iter()
                .find(|t| t.name == name)
                .unwrap();
            let mut batch_config = config.clone();
            batch_config.detector.time_scale = tier.scale;
            let window: Vec<LogRecord> = days[d + 1 - tier.window_days..=d].concat();
            let batch = Baywatch::new(batch_config).analyze(window);

            // Filters 1, 2 and 3 all act on the window.
            let s = batch.stats;
            assert!(s.after_global_whitelist < s.pairs, "{name}: {s:?}");
            assert!(
                s.after_local_whitelist < s.after_global_whitelist,
                "{name}: {s:?}"
            );
            assert!(!batch.ranked.is_empty(), "{name}: {s:?}");
            assert_eq!(
                report.popularity_total_sources, batch.popularity_total_sources,
                "{name}"
            );
            let none = MetricsSnapshot::default();
            assert_eq!(
                export_json(&report, &none, 10),
                export_json(&batch, &none, 10),
                "{name} (day {})",
                d + 1
            );
        }
    }
    assert_eq!(compared.len(), 3, "every standard tier fired: {compared:?}");
}

/// The distinct `(destination, source)` pairs of one day's records.
fn day_pairs(records: &[LogRecord]) -> BTreeSet<(String, String)> {
    records
        .iter()
        .map(|r| (r.domain.clone(), r.source.clone()))
        .collect()
}

#[test]
fn popularity_of_a_union_of_days_is_the_popularity_of_their_lines() {
    let listed = |d: &str| d == "google.com";
    forall(64, 0x5eed_0038, |rng| {
        let destinations = ["google.com", "a.test", "b.test", "c.test", "d.test"];
        let days: Vec<Vec<LogRecord>> = (0..rng.random_range(1..6usize))
            .map(|day| {
                let mut records = Vec::new();
                // Small pools: pairs repeat within and across days.
                for _ in 0..rng.random_range(0..40usize) {
                    let source = format!("h{}", rng.random_range(0..6u32));
                    let destination = destinations[rng.random_range(0..destinations.len())];
                    let t = day as u64 * DAY + rng.random_range(0..DAY);
                    records.push(LogRecord::new(t, &source, destination, ""));
                }
                // A source seen only on the listed destination, some days.
                if rng.random_range(0..2u32) == 0 {
                    records.push(LogRecord::new(
                        day as u64 * DAY,
                        "printer",
                        "google.com",
                        "",
                    ));
                }
                records
            })
            .collect();

        let per_day: Vec<BTreeSet<(String, String)>> = days.iter().map(|d| day_pairs(d)).collect();
        let mut union = PopularityStats::from_pairs(
            per_day
                .iter()
                .flatten()
                .map(|(d, s)| (d.as_str(), s.as_str())),
        );
        let mut lines = PopularityStats::from_records(&days.concat());

        assert_eq!(union.total_sources(), lines.total_sources());
        for destination in destinations.iter().chain(&["never.test"]) {
            assert_eq!(
                union.popularity(destination).to_bits(),
                lines.popularity(destination).to_bits(),
                "{destination}"
            );
        }
        assert_eq!(union.list(listed), lines.list(listed));
        for destination in destinations.iter().chain(&["never.test"]) {
            assert_eq!(
                union.is_listed(destination),
                lines.is_listed(destination),
                "{destination}"
            );
        }
    });
}
