//! Runs all four workloads at 1/50 size through the same code as the
//! benchmark, so `cargo test` keeps the harness compiling against the
//! API surface it measures, and checks that what it prints is what
//! `BENCHMARK.json` declares.

use baywatch_obs::json::{self, JsonValue};
use baywatch_pipebench::input::Sizes;
use baywatch_pipebench::{run, MetricDef, Options, Workload, END_TO_END, PER_LAYER};

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
fn declared(manifest: &JsonValue, list: &str) -> Vec<(String, String)> {
    let field = |entry: &JsonValue, key: &str| {
        entry
            .get(key)
            .and_then(JsonValue::as_str)
            .expect("metric entries have name and unit")
            .to_owned()
    };
    manifest
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list present")
        .iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_harness_reports() {
    let manifest = manifest();
    assert_eq!(declared(&manifest, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&manifest, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads present")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
}

#[test]
fn every_workload_runs_and_passes_its_checks_at_small_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&Options {
                workload,
                seed: 11,
                seconds: 0.05,
                trace,
                sizes: Sizes::scaled(50),
            });
            let label = format!("{} trace={trace}", workload.name());
            assert!(outcome.attempted >= 1, "{label}");
            assert_eq!(outcome.failed, 0, "{label}: {:?}", outcome.notes);
            assert!(outcome.correct, "{label}: {:?}", outcome.notes);

            // Every declared metric exactly once, in table order, with
            // its unit, and a finite value.
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let reported: Vec<MetricDef> = outcome.metrics.iter().map(|(d, _)| *d).collect();
            assert_eq!(reported, expected, "{label}");
            assert!(
                outcome.metrics.iter().all(|(_, v)| v.is_finite()),
                "{label}"
            );
            if !trace {
                // End-to-end metrics are never 0.
                assert!(
                    outcome.metrics.iter().all(|(_, v)| *v > 0.0),
                    "{label}: {:?}",
                    outcome.metrics
                );
                assert!(
                    outcome.recorder.spans().is_empty(),
                    "{label}: untraced runs keep no spans"
                );
            } else {
                let value = |name: &str| {
                    outcome
                        .metrics
                        .iter()
                        .find(|(d, _)| d.name == name)
                        .map(|(_, v)| *v)
                };
                assert!(value("trace.coverage").is_some_and(|c| c > 0.5), "{label}");
                assert!(!outcome.recorder.spans().is_empty(), "{label}");
            }

            // The result line parses back to the same numbers.
            let line = json::parse(&outcome.to_json()).expect("result line is valid JSON");
            assert_eq!(
                line.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{label}"
            );
            assert_eq!(
                line.get("attempted").and_then(JsonValue::as_u64),
                Some(outcome.attempted)
            );
            assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
            let metrics = line
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics object");
            assert_eq!(metrics.len(), expected.len(), "{label}");
        }
    }
}
