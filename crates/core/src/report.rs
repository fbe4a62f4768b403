//! Analyst-facing report rendering.
//!
//! BAYWATCH's output is a *prioritized list of beaconing cases* for manual
//! verification and investigation (§VI). This module turns an
//! [`AnalysisReport`] into the text artifact an analyst actually reads:
//! a ranked digest with per-case evidence — detected periods, score
//! components, the symbolized interval series, and the filter funnel that
//! produced the list.

use std::fmt::Write as _;

use baywatch_obs::{JsonWriter, MetricsSnapshot};
use baywatch_timeseries::symbolize::symbolize;

use crate::pipeline::AnalysisReport;
use crate::rank::RankedCase;

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportOptions {
    /// Maximum number of cases to include (0 = all ranked cases).
    pub max_cases: usize,
    /// Whether to include only cases above the report percentile.
    pub reported_only: bool,
    /// Maximum symbolized-series characters shown per case.
    pub max_symbols: usize,
    /// Tolerance for the symbolized-series rendering.
    pub symbol_tolerance: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            max_cases: 50,
            reported_only: false,
            max_symbols: 64,
            symbol_tolerance: 0.05,
        }
    }
}

/// Renders the filter funnel (Fig. 3 data flow) as text.
pub fn render_funnel(report: &AnalysisReport) -> String {
    let s = report.stats;
    let mut out = String::new();
    let mut row = |label: &str, value: usize| {
        let _ = writeln!(out, "{label:<28}{value:>10}");
    };
    row("events", s.events);
    row("malformed lines", s.malformed_lines);
    row("skipped events (faults)", s.skipped_events);
    row("communication pairs", s.pairs);
    row("quarantined pairs", s.quarantined_pairs);
    // The budget row only appears when the budget actually fired, so the
    // funnel of an unbudgeted (or in-budget) run is byte-identical to before.
    if s.timed_out_pairs > 0 {
        row("timed-out pairs (budget)", s.timed_out_pairs);
    }
    if s.dlq_replayed > 0 {
        row("dlq pairs replayed", s.dlq_replayed);
        row("dlq pairs recovered", s.dlq_recovered);
    }
    row("after global whitelist", s.after_global_whitelist);
    row("after local whitelist", s.after_local_whitelist);
    row("periodic (verified)", s.periodic);
    row("after URL-token filter", s.after_token_filter);
    row("after novelty analysis", s.after_novelty);
    row("reported (percentile)", s.reported);
    if !report.faults.is_clean() || s.timed_out_pairs > 0 {
        let mut banner = format!(
            "degraded mode: {} map / {} reduce retries, {} quarantined unit(s)",
            report.faults.map_retries,
            report.faults.reduce_retries,
            report.faults.quarantined_units()
        );
        if s.timed_out_pairs > 0 {
            let _ = write!(banner, ", {} timed-out pair(s)", s.timed_out_pairs);
        }
        let _ = writeln!(out, "{banner}");
    }
    out
}

/// Deterministic JSON export of an analysis window: the complete filter
/// funnel, the deterministic sections of the metrics snapshot, the fault
/// tallies, and the top-`top_k` ranked cases.
///
/// The output has stable key order and fixed-precision floats, so it is
/// byte-identical across runs on identical input — the golden-run suite
/// (`tests/golden_funnel.rs`) compares it verbatim. Wall-clock timings
/// never appear here: [`MetricsSnapshot::to_json`] quarantines them by
/// construction.
pub fn export_json(report: &AnalysisReport, metrics: &MetricsSnapshot, top_k: usize) -> String {
    let s = report.stats;
    let mut w = JsonWriter::new();
    w.raw("{");

    w.key("funnel");
    w.raw("{");
    for (key, value) in [
        ("events", s.events),
        ("malformed_lines", s.malformed_lines),
        ("skipped_events", s.skipped_events),
        ("pairs", s.pairs),
        ("quarantined_pairs", s.quarantined_pairs),
        ("timed_out_pairs", s.timed_out_pairs),
        ("dlq_replayed", s.dlq_replayed),
        ("dlq_recovered", s.dlq_recovered),
        ("after_global_whitelist", s.after_global_whitelist),
        ("after_local_whitelist", s.after_local_whitelist),
        ("periodic", s.periodic),
        ("after_token_filter", s.after_token_filter),
        ("after_novelty", s.after_novelty),
        ("reported", s.reported),
    ] {
        w.key(key);
        w.uint(value as u64);
    }
    w.raw("}");
    w.end_value();

    w.key("faults");
    w.raw("{");
    for (key, value) in [
        ("map_retries", report.faults.map_retries),
        ("map_bisections", report.faults.map_bisections),
        ("reduce_retries", report.faults.reduce_retries),
        ("quarantined_inputs", report.faults.quarantined_inputs),
        ("quarantined_keys", report.faults.quarantined_keys),
        ("lost_values", report.faults.lost_values),
    ] {
        w.key(key);
        w.uint(value as u64);
    }
    // Checkpoint corruption downgrades: surfaced (with bounded samples)
    // only when a restore was actually refused, so runs that never resume
    // — and clean resumes — export byte-identically to earlier releases.
    if report.faults.checkpoint_corruptions > 0 {
        w.key("checkpoint_corruptions");
        w.uint(report.faults.checkpoint_corruptions as u64);
        let mut sorted: Vec<&str> = report
            .faults
            .corruption_samples
            .iter()
            .map(String::as_str)
            .collect();
        sorted.sort_unstable();
        w.key("corruption_samples");
        w.raw("[");
        for sample in sorted {
            w.string(sample);
        }
        w.raw("]");
        w.end_value();
    }
    // Bounded provenance samples. The engine collects them in completion
    // order, which parallel execution does not fix — sort each list so the
    // export stays byte-identical across runs and across resume.
    for (key, samples) in [
        ("input_samples", &report.faults.input_samples),
        ("key_samples", &report.faults.key_samples),
        ("panic_samples", &report.faults.panic_samples),
    ] {
        let mut sorted: Vec<&str> = samples.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        w.key(key);
        w.raw("[");
        for sample in sorted {
            w.string(sample);
        }
        w.raw("]");
        w.end_value();
    }
    w.raw("}");
    w.end_value();

    w.key("metrics");
    w.raw(&metrics.to_json());
    w.end_value();

    w.key("report_cutoff");
    w.uint(report.report_cutoff as u64);

    w.key("top_cases");
    w.raw("[");
    for (i, rc) in report.ranked.iter().take(top_k).enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("{");
        w.key("rank");
        w.uint(i as u64 + 1);
        w.key("source");
        w.string(&rc.case.pair.source);
        w.key("destination");
        w.string(&rc.case.pair.destination);
        w.key("score");
        w.float(rc.score, 6);
        w.key("periods");
        w.raw("[");
        for c in &rc.case.candidates {
            w.float(c.period, 3);
        }
        w.raw("]");
        w.end_value();
        w.raw("}");
    }
    w.raw("]");
    w.end_value();

    w.raw("}");
    w.finish()
}

/// Renders one case as a multi-line evidence block.
pub fn render_case(rank: usize, rc: &RankedCase, options: &ReportOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "#{rank} {}  score {:.3}", rc.case.pair, rc.score);
    let _ = writeln!(
        out,
        "    components: periodicity {:.2} | language {:.2} | unpopularity {:.2} | persistence {:.2}",
        rc.periodicity_component,
        rc.language_component,
        rc.unpopularity_component,
        rc.persistence_component
    );
    if rc.case.candidates.is_empty() {
        let _ = writeln!(out, "    periods: none verified");
    } else {
        let periods: Vec<String> = rc
            .case
            .candidates
            .iter()
            .map(|c| format!("{:.1}s (ACF {:.2})", c.period, c.acf_score))
            .collect();
        let _ = writeln!(out, "    periods: {}", periods.join(", "));
    }
    let _ = writeln!(
        out,
        "    intervals: n={}  popularity {:.5}  lm/char {:.2}  shared by {} source(s)",
        rc.case.intervals.len(),
        rc.case.popularity,
        rc.case.lm_score,
        rc.case.similar_sources
    );
    if !rc.case.url_tokens.is_empty() {
        let tokens: Vec<&str> = rc
            .case
            .url_tokens
            .iter()
            .map(String::as_str)
            .take(8)
            .collect();
        let _ = writeln!(out, "    url tokens: {}", tokens.join(", "));
    }
    let periods: Vec<f64> = rc.case.candidates.iter().map(|c| c.period).collect();
    if !rc.case.intervals.is_empty() && !periods.is_empty() {
        let symbols = symbolize(&rc.case.intervals, &periods, options.symbol_tolerance);
        let shown = &symbols[..symbols.len().min(options.max_symbols)];
        let ellipsis = if symbols.len() > shown.len() {
            "…"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    series: {}{}",
            String::from_utf8_lossy(shown),
            ellipsis
        );
    }
    out
}

/// Renders the full analyst report.
///
/// # Example
///
/// ```
/// use baywatch_core::pipeline::{Baywatch, BaywatchConfig};
/// use baywatch_core::record::LogRecord;
/// use baywatch_core::report::{render_report, ReportOptions};
///
/// let mut records = Vec::new();
/// for i in 0..60u64 {
///     records.push(LogRecord::new(1_000 + i * 60, "victim", "qzkxwv.com", "a1"));
///     records.push(LogRecord::new(900 + i * i * 31 % 4000, "other", "site.org", "index"));
/// }
/// let mut engine = Baywatch::new(BaywatchConfig { local_tau: 0.9, ..Default::default() });
/// let analysis = engine.analyze(records);
/// let text = render_report(&analysis, &ReportOptions::default());
/// assert!(text.contains("qzkxwv.com"));
/// assert!(text.contains("communication pairs"));
/// ```
pub fn render_report(report: &AnalysisReport, options: &ReportOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== BAYWATCH analysis report ===\n");
    out.push_str(&render_funnel(report));
    out.push('\n');

    let cases: Vec<&RankedCase> = if options.reported_only {
        report.reported().iter().collect()
    } else {
        report.ranked.iter().collect()
    };
    let limit = if options.max_cases == 0 {
        cases.len()
    } else {
        options.max_cases
    };
    if cases.is_empty() {
        let _ = writeln!(out, "no beaconing cases surfaced in this window");
        return out;
    }
    let _ = writeln!(
        out,
        "--- {} case(s){} ---\n",
        cases.len().min(limit),
        if options.reported_only {
            " above the report threshold"
        } else {
            ""
        }
    );
    for (i, rc) in cases.into_iter().take(limit).enumerate() {
        out.push_str(&render_case(i + 1, rc, options));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::CommunicationPair;
    use crate::pipeline::FilterStats;
    use crate::rank::BeaconCase;
    use baywatch_timeseries::detector::CandidatePeriod;

    fn toy_report(n_cases: usize) -> AnalysisReport {
        let ranked: Vec<RankedCase> = (0..n_cases)
            .map(|i| RankedCase {
                case: BeaconCase {
                    pair: CommunicationPair::new(format!("host-{i}"), format!("dest-{i}.com")),
                    intervals: vec![60.0; 100],
                    candidates: vec![CandidatePeriod {
                        frequency: 1.0 / 60.0,
                        period: 60.0,
                        power: 5.0,
                        acf_score: 0.8,
                        p_value: None,
                    }],
                    url_tokens: ["a1f".to_owned()].into(),
                    popularity: 0.001,
                    lm_score: -3.0,
                    similar_sources: 2,
                },
                score: 2.0 - i as f64 * 0.1,
                periodicity_component: 0.8,
                language_component: 0.5,
                unpopularity_component: 0.9,
                persistence_component: 0.7,
            })
            .collect();
        AnalysisReport {
            stats: FilterStats {
                events: 1000,
                pairs: 50,
                after_global_whitelist: 40,
                after_local_whitelist: 30,
                periodic: n_cases,
                after_token_filter: n_cases,
                after_novelty: n_cases,
                reported: n_cases.min(1),
                malformed_lines: 0,
                skipped_events: 0,
                quarantined_pairs: 0,
                timed_out_pairs: 0,
                dlq_replayed: 0,
                dlq_recovered: 0,
            },
            report_cutoff: n_cases.min(1),
            ranked,
            popularity_total_sources: 20,
            faults: Default::default(),
            malformed_samples: Vec::new(),
            checkpoint: None,
        }
    }

    #[test]
    fn funnel_shows_all_stages() {
        let text = render_funnel(&toy_report(3));
        for label in [
            "events",
            "malformed lines",
            "skipped events",
            "communication pairs",
            "quarantined pairs",
            "global whitelist",
            "local whitelist",
            "periodic",
            "token filter",
            "novelty",
            "reported",
        ] {
            assert!(text.contains(label), "missing {label}");
        }
        // Clean run: no degraded-mode banner.
        assert!(!text.contains("degraded mode"));
    }

    #[test]
    fn funnel_flags_degraded_runs() {
        let mut report = toy_report(1);
        report.stats.malformed_lines = 7;
        report.stats.quarantined_pairs = 2;
        report.faults.reduce_retries = 4;
        report.faults.quarantined_keys = 2;
        let text = render_funnel(&report);
        assert!(text.contains("malformed lines"));
        assert!(text.contains("7"));
        assert!(text.contains("degraded mode"));
        assert!(text.contains("2 quarantined unit(s)"));
    }

    #[test]
    fn budget_rows_hidden_on_clean_runs() {
        let text = render_funnel(&toy_report(2));
        assert!(!text.contains("timed-out pairs"));
        assert!(!text.contains("degraded mode"));
    }

    #[test]
    fn funnel_flags_budget_degradation() {
        let mut report = toy_report(1);
        report.stats.timed_out_pairs = 3;
        let text = render_funnel(&report);
        assert!(text.contains("timed-out pairs (budget)"));
        // The banner fires on budget degradation even with clean faults,
        // and keeps its original prefix.
        assert!(text.contains(
            "degraded mode: 0 map / 0 reduce retries, 0 quarantined unit(s), \
             3 timed-out pair(s)"
        ));
    }

    #[test]
    fn case_block_contains_evidence() {
        let report = toy_report(1);
        let text = render_case(1, &report.ranked[0], &ReportOptions::default());
        assert!(text.contains("dest-0.com"));
        assert!(text.contains("60.0s"));
        assert!(text.contains("components"));
        assert!(text.contains("series: xxxx"));
    }

    #[test]
    fn max_cases_limits_output() {
        let report = toy_report(10);
        let opts = ReportOptions {
            max_cases: 2,
            ..Default::default()
        };
        let text = render_report(&report, &opts);
        assert!(text.contains("#1 "));
        assert!(text.contains("#2 "));
        assert!(!text.contains("#3 "));
    }

    #[test]
    fn reported_only_respects_cutoff() {
        let report = toy_report(5); // cutoff = 1
        let opts = ReportOptions {
            reported_only: true,
            ..Default::default()
        };
        let text = render_report(&report, &opts);
        assert!(text.contains("#1 "));
        assert!(!text.contains("#2 "));
    }

    #[test]
    fn empty_report_renders_gracefully() {
        let report = toy_report(0);
        let text = render_report(&report, &ReportOptions::default());
        assert!(text.contains("no beaconing cases"));
    }

    #[test]
    fn export_json_is_stable_and_timing_free() {
        let report = toy_report(3);
        let metrics = baywatch_obs::MetricsRegistry::new();
        metrics
            .counter("stage.02_global_whitelist.admitted")
            .add(40);
        let buckets = baywatch_obs::Buckets::new(&[10]).unwrap();
        metrics.timing("span.analyze", &buckets).observe(123);
        let snap = metrics.snapshot();

        let a = export_json(&report, &snap, 2);
        let b = export_json(&report, &snap, 2);
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.contains(r#""funnel":{"events":1000"#));
        assert!(a.contains(r#""periodic":3"#));
        assert!(a.contains(r#""map_bisections":0"#));
        assert!(a.contains(r#""stage.02_global_whitelist.admitted":40"#));
        // top_k = 2 truncates the ranked list.
        assert!(a.contains("dest-0.com") && a.contains("dest-1.com"));
        assert!(!a.contains("dest-2.com"));
        // Array elements are comma-separated (valid JSON framing).
        assert!(a.contains("},{\"rank\":2"));
        // Wall-clock timings are quarantined out of the export.
        assert!(!a.contains("span.analyze") && !a.contains("timings"));
    }

    #[test]
    fn export_json_sorts_fault_samples_and_reports_dlq() {
        let mut report = toy_report(1);
        report.stats.timed_out_pairs = 1;
        report.stats.dlq_replayed = 2;
        report.stats.dlq_recovered = 1;
        // Samples arrive in engine completion order, which parallel
        // execution scrambles; the export must sort them.
        report.faults.input_samples = vec!["in-b".to_string(), "in-a".to_string()];
        report.faults.key_samples = vec!["key-z".to_string(), "key-a".to_string()];
        report.faults.panic_samples = vec!["panic-2".to_string(), "panic-1".to_string()];
        let snap = baywatch_obs::MetricsRegistry::new().snapshot();

        let json = export_json(&report, &snap, 1);
        assert!(json.contains(r#""dlq_replayed":2"#));
        assert!(json.contains(r#""dlq_recovered":1"#));
        assert!(json.contains(r#""input_samples":["in-a","in-b"]"#));
        assert!(json.contains(r#""key_samples":["key-a","key-z"]"#));
        assert!(json.contains(r#""panic_samples":["panic-1","panic-2"]"#));
        // A differently-ordered report exports byte-identically.
        let mut scrambled = report.clone();
        scrambled.faults.panic_samples.reverse();
        scrambled.faults.key_samples.reverse();
        assert_eq!(export_json(&scrambled, &snap, 1), json);
        // The text funnel surfaces the replay outcome too.
        let funnel = render_funnel(&report);
        assert!(funnel.contains("dlq pairs replayed"));
        assert!(funnel.contains("dlq pairs recovered"));
    }

    #[test]
    fn export_json_surfaces_checkpoint_corruptions_when_present() {
        let snap = baywatch_obs::MetricsRegistry::new().snapshot();
        // Regression: corruption downgrades used to be counted (in
        // `load_warnings`) but invisible in the export's faults section.
        let mut report = toy_report(1);
        report.faults.checkpoint_corruptions = 2;
        report.faults.corruption_samples = vec![
            "shard 1: checkpoint untrusted, re-executing".to_string(),
            "shard 0: checkpoint untrusted, re-executing".to_string(),
        ];
        let json = export_json(&report, &snap, 1);
        assert!(json.contains(r#""checkpoint_corruptions":2"#));
        // Samples are sorted for byte-stable output.
        assert!(json.contains(
            r#""corruption_samples":["shard 0: checkpoint untrusted, re-executing","shard 1: checkpoint untrusted, re-executing"]"#
        ));

        // A clean report exports without either key — byte-identical to
        // the pre-resilience format.
        let clean = export_json(&toy_report(1), &snap, 1);
        assert!(!clean.contains("checkpoint_corruptions"));
        assert!(!clean.contains("corruption_samples"));
    }

    #[test]
    fn symbol_truncation() {
        let report = toy_report(1);
        let opts = ReportOptions {
            max_symbols: 10,
            ..Default::default()
        };
        let text = render_case(1, &report.ranked[0], &opts);
        assert!(text.contains("xxxxxxxxxx…"));
    }
}
