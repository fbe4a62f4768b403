//! Integration: ELFF log ingestion → multi-scale scheduler → analyst
//! report. The full path a real deployment walks, end to end.

use baywatch::core::elff::read_elff;
use baywatch::core::pipeline::{Baywatch, BaywatchConfig};
use baywatch::core::report::{render_report, ReportOptions};
use baywatch::core::schedule::{standard_tiers, MultiScaleScheduler};

/// Builds an ELFF log covering `days` days with a 10-minute beacon plus
/// human noise, starting 2015-03-01.
fn build_elff(days: u64) -> String {
    let mut log = String::from(
        "#Software: SGOS 6.5\n#Fields: date time c-ip cs-host cs-uri-path sc-status\n",
    );
    for day in 0..days {
        let dom = day + 1;
        // Beacon every 10 minutes around the clock.
        for i in 0..144u64 {
            let (h, m) = ((i * 10) / 60, (i * 10) % 60);
            log.push_str(&format!(
                "2015-03-{dom:02} {h:02}:{m:02}:00 10.0.0.9 qzvkxw.example.biz /c0{i:03x} 200\n"
            ));
        }
        // Human-ish noise from another host.
        for i in 0..60u64 {
            let t = (i * i * 613 + day * 17) % 86_400;
            let (h, m, s) = (t / 3600, (t % 3600) / 60, t % 60);
            log.push_str(&format!(
                "2015-03-{dom:02} {h:02}:{m:02}:{s:02} 10.0.0.7 news.example.org /story{i} 200\n"
            ));
        }
    }
    log
}

#[test]
fn elff_to_pipeline_to_report() {
    let log = build_elff(1);
    let outcome = read_elff(log.as_bytes()).unwrap();
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.records.len(), 144 + 60);

    let mut engine = Baywatch::new(BaywatchConfig {
        local_tau: 0.9,
        ..Default::default()
    });
    let analysis = engine.analyze(outcome.records);
    assert!(analysis.stats.periodic >= 1);
    assert_eq!(
        analysis.ranked[0].case.pair.destination,
        "qzvkxw.example.biz"
    );
    let period = analysis.ranked[0].case.primary_period().unwrap();
    assert!((period - 600.0).abs() < 30.0, "period = {period}");

    let text = render_report(&analysis, &ReportOptions::default());
    assert!(text.contains("qzvkxw.example.biz"));
    assert!(text.contains("periodic (verified)"));
    assert!(text.contains("series: x"));
}

#[test]
fn elff_to_multiscale_scheduler() {
    // Parse the week once, then feed the scheduler day by day. Two hosts:
    // relax τ_P as the single-window test above does.
    let outcome = read_elff(build_elff(7).as_bytes()).unwrap();
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let first_day = outcome.records[0].timestamp / 86_400 * 86_400;
    let mut sched = MultiScaleScheduler::new(
        standard_tiers(),
        BaywatchConfig {
            local_tau: 0.9,
            ..Default::default()
        },
    )
    .unwrap();
    let mut reported_daily = false;
    for day in 0..7u64 {
        let day_start = first_day + day * 86_400;
        let day_records: Vec<_> = outcome
            .records
            .iter()
            .filter(|r| r.timestamp >= day_start && r.timestamp < day_start + 86_400)
            .cloned()
            .collect();
        assert!(!day_records.is_empty());
        for (tier, report) in sched.ingest_day(day_records) {
            if tier == "daily"
                && report
                    .reported()
                    .iter()
                    .any(|c| c.case.pair.destination == "qzvkxw.example.biz")
            {
                reported_daily = true;
            }
        }
    }
    assert!(
        reported_daily,
        "daily tier should report the 10-minute beacon"
    );
    assert_eq!(sched.days_ingested(), 7);
}

/// Hand-written corrupt fixture: every corruption kind the lenient ELFF
/// parser distinguishes, with the exact line numbers and reasons pinned.
#[test]
fn elff_malformed_lines_are_counted_exactly() {
    let mut fixture: Vec<u8> = b"\
#Software: SGOS 6.5\n\
2015-03-01 07:59:59 10.0.0.9 early.example.com /x 200\n\
#Fields: date time c-ip cs-host cs-uri-path sc-status\n\
2015-03-01 08:00:00 10.0.0.1 beacon.example.net /ping 200\n\
2015-03-01 08:00:05 10.0.0.1\n\
not-a-date garbage 10.0.0.2 host.example.com /x 200\n\
2015-03-01 08:00:10 10.0.0.3 - /y 200\n"
        .to_vec();
    fixture.extend_from_slice(&[0xFF, 0xFE, 0x80, b'\n']); // line 8: not UTF-8
    fixture.extend_from_slice(b"2015-03-01 08:00:15 10.0.0.1 beacon.example.net /ping 200\n");

    let outcome = read_elff(fixture.as_slice()).unwrap();

    assert_eq!(outcome.records.len(), 2, "only the two clean records parse");
    assert_eq!(outcome.malformed_lines, 5);
    assert_eq!(
        outcome.errors.len(),
        5,
        "all errors sampled while under the bound"
    );

    let lines: Vec<usize> = outcome.errors.iter().map(|e| e.line_number).collect();
    assert_eq!(lines, vec![2, 5, 6, 7, 8]);

    let reasons: Vec<&str> = outcome.errors.iter().map(|e| e.reason.as_str()).collect();
    assert!(reasons[0].contains("before #Fields"), "{:?}", reasons[0]);
    assert!(
        reasons[1].contains("expected 6 fields, got 3"),
        "{:?}",
        reasons[1]
    );
    assert!(reasons[2].contains("invalid date/time"), "{:?}", reasons[2]);
    assert!(reasons[3].contains("empty host"), "{:?}", reasons[3]);
    assert!(reasons[4].contains("expected 6 fields"), "{:?}", reasons[4]);
}

/// Past [`ERROR_SAMPLE_LIMIT`] the sample vector stays bounded but the
/// malformed count stays exact, and `analyze_outcome` carries both —
/// exact count into `stats.malformed_lines`, bounded samples into
/// `report.malformed_samples` — without perturbing detection.
#[test]
fn elff_sample_bound_survives_analyze_outcome() {
    use baywatch::core::io::ERROR_SAMPLE_LIMIT;

    let flood = ERROR_SAMPLE_LIMIT + 25;
    let mut log = build_elff(1);
    for i in 0..flood {
        log.push_str(&format!("corrupt-fragment-{i}\n"));
    }
    let outcome = read_elff(log.as_bytes()).unwrap();
    assert_eq!(outcome.records.len(), 144 + 60);
    assert_eq!(
        outcome.malformed_lines, flood,
        "count stays exact past the bound"
    );
    assert_eq!(
        outcome.errors.len(),
        ERROR_SAMPLE_LIMIT,
        "samples stay bounded"
    );

    let mut engine = Baywatch::new(BaywatchConfig {
        local_tau: 0.9,
        ..Default::default()
    });
    let report = engine.analyze_outcome(outcome);
    assert_eq!(report.stats.malformed_lines, flood);
    assert_eq!(report.malformed_samples.len(), ERROR_SAMPLE_LIMIT);
    assert!(
        report.malformed_samples[0].contains("line "),
        "samples keep their line provenance: {:?}",
        report.malformed_samples[0]
    );
    // The corrupt lines must not leak into the funnel's event count or
    // suppress the beacon the clean records carry.
    assert_eq!(report.stats.events, 144 + 60);
    assert!(report.stats.periodic >= 1);
}
