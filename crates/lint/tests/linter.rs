//! End-to-end tests over the fixture mini-workspace in
//! `tests/fixtures/ws`, which plants exactly one positive per rule next
//! to its suppressed/negative twin (the L5/L6/L7 families get a
//! suppressed twin each, wired through the fixture `lint.toml`), plus a
//! dogfood test asserting the real repository tree lints clean.

use std::fs;
use std::path::{Path, PathBuf};

use baywatch_lint::{lint_workspace, report, run, LintError, LintOptions, LintOutcome};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// A scratch directory unique to one test, recreated on every run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baywatch-lint-it-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn fixture_opts() -> LintOptions {
    LintOptions {
        root: fixture_root(),
        ..LintOptions::default()
    }
}

/// Every file under `dir`, sorted, with its content — the byte-identity
/// witness that a run writes nothing.
fn tree_snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("read dir") {
            let p = entry.expect("entry").path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push((p.clone(), fs::read(&p).expect("read file")));
            }
        }
    }
    files.sort();
    files
}

fn keys(findings: &[baywatch_lint::rules::Finding]) -> Vec<(&str, &str, u32)> {
    findings
        .iter()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect()
}

#[test]
fn fixture_findings_are_exactly_the_planted_ones() {
    let findings = lint_workspace(&fixture_root()).expect("fixture lints");
    assert_eq!(
        keys(&findings),
        vec![
            ("L5-atomic-ordering", "crates/obs/src/bare.rs", 10),
            ("L5-atomic-ordering", "crates/obs/src/lib.rs", 15),
            ("L5-atomic-ordering", "crates/obs/src/lib.rs", 21),
            ("L6-metric-registry", "crates/obs/src/metrics_use.rs", 17),
            ("L6-metric-registry", "crates/obs/src/metrics_use.rs", 22),
            ("L6-metric-registry", "crates/obs/src/metrics_use.rs", 34),
            ("L6-metric-registry", "crates/obs/src/metrics_use.rs", 39),
            ("L6-metric-registry", "crates/obs/src/metrics_use.rs", 45),
            ("L3-budget", "crates/timeseries/src/detector.rs", 6),
            ("L3-budget", "crates/timeseries/src/detector.rs", 26),
            ("L2-ambient-rng", "crates/timeseries/src/lib.rs", 7),
            ("L2-wall-clock", "crates/timeseries/src/lib.rs", 12),
            ("L1-float-ord", "crates/timeseries/src/lib.rs", 17),
            ("L2-hash-iter", "crates/timeseries/src/lib.rs", 26),
            ("L2-ambient-fs", "crates/timeseries/src/lib.rs", 52),
            ("L7-ledger-arith", "crates/util/src/ledger.rs", 12),
            ("L7-ledger-arith", "crates/util/src/ledger.rs", 17),
            ("L7-ledger-arith", "crates/util/src/ledger.rs", 22),
            ("L7-ledger-arith", "crates/util/src/ledger.rs", 28),
        ],
        "planted positives (and only those) must fire; negatives in the \
         same files — checkpointed loops, total_cmp, sorted/counted hash \
         iteration, cmp::Ordering variants, in-policy Relaxed, guarded \
         gated writes, declared metric names, widening casts, arithmetic \
         outside ledger types, cfg(test) code — must not"
    );
}

#[test]
fn unsuppressed_findings_fail() {
    let outcome = run(&fixture_opts()).expect("fixture runs");
    assert_eq!(outcome.findings.len(), 16);
    // The three suppressed twins (L5 control flag, L6 dynamic name, L7
    // backoff sum) land in `allowlisted` with their written reasons.
    assert_eq!(outcome.allowlisted.len(), 3);
    assert!(outcome.unused_allows.is_empty());
    assert!(!outcome.is_clean());
}

#[test]
fn allowlist_suppresses_with_reason_and_reports_unused_entries() {
    let dir = scratch("allowlist");
    let path = dir.join("lint.toml");
    // An explicit config replaces the fixture one wholesale, so it
    // restates the policy tables to keep the L5/L7 findings stable, but
    // carries different [[allow]] entries: one that matches the planted
    // filesystem read and one that matches nothing.
    fs::write(
        &path,
        r#"
[[atomic]]
path = "crates/obs/src/lib.rs"
allow = ["Relaxed"]
reason = "fixture: counters merge after join, so Relaxed suffices here"

[[ledger]]
path = "crates/util/src/ledger.rs"
types = ["Ledger"]
reason = "fixture: Ledger totals feed the planted report rows exactly"

[[allow]]
rule = "L2-ambient-fs"
path = "crates/timeseries/src/lib.rs"
reason = "fixture: the filesystem read is planted deliberately"

[[allow]]
rule = "L1-float-ord"
path = "crates/util/src/lib.rs"
reason = "fixture: matches nothing in this file"
"#,
    )
    .expect("write allowlist");

    let outcome = run(&LintOptions {
        config_path: Some(path),
        ..fixture_opts()
    })
    .expect("fixture runs");
    assert_eq!(
        outcome.findings.len(),
        18,
        "one finding should be suppressed"
    );
    assert_eq!(outcome.allowlisted.len(), 1);
    let (f, reason) = &outcome.allowlisted[0];
    assert_eq!(f.path, "crates/timeseries/src/lib.rs");
    assert!(reason.contains("planted deliberately"));
    assert_eq!(outcome.unused_allows.len(), 1);
    assert_eq!(outcome.unused_allows[0].rule, "L1-float-ord");
}

#[test]
fn allowlist_without_a_real_reason_is_a_hard_error() {
    let dir = scratch("bad-reason");
    let path = dir.join("lint.toml");
    fs::write(
        &path,
        "[[allow]]\nrule = \"L3-budget\"\npath = \"x.rs\"\nreason = \"short\"\n",
    )
    .expect("write allowlist");

    let err = run(&LintOptions {
        config_path: Some(path),
        ..fixture_opts()
    })
    .expect_err("short reason must be rejected");
    assert!(matches!(err, LintError::Config(_)), "got {err}");
}

#[test]
fn allowlist_with_unknown_rule_is_a_hard_error() {
    let dir = scratch("bad-rule");
    let path = dir.join("lint.toml");
    // `L4-panic` was retired to clippy: a leftover stanza must fail loudly,
    // not sit there suppressing nothing.
    for rule in ["L9-imaginary", "L4-panic"] {
        fs::write(
            &path,
            format!(
                "[[allow]]\nrule = \"{rule}\"\npath = \"x.rs\"\nreason = \"long enough reason\"\n"
            ),
        )
        .expect("write allowlist");

        let err = run(&LintOptions {
            config_path: Some(path.clone()),
            ..fixture_opts()
        })
        .expect_err("unknown rule must be rejected");
        assert!(matches!(err, LintError::Config(_)), "{rule}: got {err}");
    }
}

#[test]
fn missing_explicit_config_path_is_an_error_but_missing_default_is_not() {
    let err = run(&LintOptions {
        config_path: Some(fixture_root().join("no-such-lint.toml")),
        ..fixture_opts()
    })
    .expect_err("explicitly named missing config must error");
    assert!(matches!(err, LintError::Io(..)), "got {err}");

    // A root without lint.toml / METRICS.md: both defaults being absent
    // is tolerated (config empty, L6 off).
    let bare = scratch("bare-root");
    let outcome = run(&LintOptions {
        root: bare,
        ..LintOptions::default()
    })
    .expect("missing default config/manifest is fine");
    assert!(outcome.is_clean());
}

#[test]
fn malformed_manifest_is_a_hard_error() {
    let dir = scratch("bad-manifest");
    let path = dir.join("METRICS.md");
    fs::write(
        &path,
        "| name | kind | gating | module |\n|---|---|---|---|\n| `x` | blimp | always | m |\n",
    )
    .expect("write manifest");

    let err = run(&LintOptions {
        manifest_path: Some(path),
        ..fixture_opts()
    })
    .expect_err("unknown metric kind must be rejected");
    assert!(matches!(err, LintError::Config(_)), "got {err}");
}

/// The `--json` document is a consumed interface: field names, nesting,
/// and escaping are pinned by this snapshot. Changing the schema means
/// changing this test — deliberately.
#[test]
fn json_report_schema_is_stable() {
    use baywatch_lint::rules::Finding;

    let outcome = LintOutcome {
        findings: vec![Finding {
            rule: "L1-float-ord",
            path: "crates/a/src/lib.rs".to_string(),
            line: 3,
            snippet: "a.partial_cmp(&b).unwrap() // \"quoted\"".to_string(),
            message: "message with \\ backslash".to_string(),
        }],
        allowlisted: vec![(
            Finding {
                rule: "L5-atomic-ordering",
                path: "crates/c/src/lib.rs".to_string(),
                line: 1,
                snippet: "load(SeqCst)".to_string(),
                message: "out of policy".to_string(),
            },
            "control cell stays sequentially consistent".to_string(),
        )],
        unused_allows: Vec::new(),
    };

    let expected = concat!(
        "{\n",
        "  \"findings\": [\n",
        "    {\"rule\": \"L1-float-ord\", \"path\": \"crates/a/src/lib.rs\", \"line\": 3, ",
        "\"snippet\": \"a.partial_cmp(&b).unwrap() // \\\"quoted\\\"\", ",
        "\"message\": \"message with \\\\ backslash\", \"status\": \"FINDING\"},\n",
        "    {\"rule\": \"L5-atomic-ordering\", \"path\": \"crates/c/src/lib.rs\", \"line\": 1, ",
        "\"snippet\": \"load(SeqCst)\", ",
        "\"message\": \"out of policy\", \"status\": \"allowed\", ",
        "\"allowed_because\": \"control cell stays sequentially consistent\"}\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(report::render_json(&outcome), expected);
}

/// Dogfood: the repository this linter lives in must itself be clean —
/// every real finding either fixed or allowlisted with a written reason —
/// with the L5/L6/L7 families fully armed (the repo commits both
/// `lint.toml` policies and `METRICS.md`). And a run is a pure function of
/// the tree: two consecutive runs agree and write nothing.
#[test]
fn repo_tree_is_lint_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves");
    let outcome = run(&LintOptions {
        root: repo_root,
        ..LintOptions::default()
    })
    .expect("repo lints");
    assert!(
        outcome.is_clean(),
        "findings: {:?}",
        keys(&outcome.findings)
    );
    assert!(
        outcome.unused_allows.is_empty(),
        "every committed allowlist entry must still match something: {:?}",
        outcome
            .unused_allows
            .iter()
            .map(|e| format!("{} {}", e.rule, e.path))
            .collect::<Vec<_>>()
    );

    let before = tree_snapshot(&fixture_root());
    let first = run(&fixture_opts()).expect("fixture runs");
    let second = run(&fixture_opts()).expect("fixture runs again");
    assert_eq!(first.findings, second.findings);
    assert_eq!(first.allowlisted, second.allowlisted);
    assert_eq!(
        tree_snapshot(&fixture_root()),
        before,
        "a run writes nothing"
    );
}
