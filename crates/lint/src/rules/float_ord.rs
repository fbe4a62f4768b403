//! L1 — float comparators must impose a *total* order.
//!
//! `a.partial_cmp(b).unwrap()` (and the `expect`/`unwrap_or*` variants)
//! either panics on NaN or, worse, silently collapses NaN to `Equal`,
//! making sorts incomparable-input-order-dependent. Both break the
//! permutation test's reproducibility contract: the ranked report must be
//! a pure function of the window. `f64::total_cmp` is the fix everywhere.

use super::{snippet_at, Finding};
use crate::syntax::File;
use crate::walk::SourceFile;

/// The escape hatches that turn a partial order into a panic or a lie.
const SINKS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
];

pub fn check(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        // `partial_cmp ( … ) . sink (`
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(close) = file.matching(i + 1) else {
            continue;
        };
        let dot = close + 1;
        let sink = close + 2;
        let is_sink = tokens.get(dot).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(sink)
                .is_some_and(|t| SINKS.iter().any(|s| t.is_ident(s)));
        if is_sink {
            findings.push(Finding {
                rule: "L1-float-ord",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    "partial_cmp(..).{}() panics or lies on NaN; use f64::total_cmp for a \
                     total, reproducible order",
                    tokens
                        .get(sink)
                        .map(|t| t.text.as_str())
                        .unwrap_or("unwrap"),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::check_file;
    use crate::walk::{Section, SourceFile};
    use std::path::PathBuf;

    fn lib_file(rel: &str) -> SourceFile {
        SourceFile {
            abs_path: PathBuf::from(rel),
            rel_path: rel.to_string(),
            crate_name: rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .map(str::to_string),
            section: Section::Lib,
        }
    }

    #[test]
    fn partial_cmp_unwrap_is_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}";
        let f = check_file(&lib_file("crates/langmodel/src/x.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "L1-float-ord");
        assert_eq!(f[0].line, 3);
        assert!(f[0].snippet.contains("sort_by"));
    }

    #[test]
    fn expect_and_unwrap_or_variants_are_flagged() {
        let src = "fn a() { x.partial_cmp(&y).expect(\"no NaN\"); }\n\
                   fn b() { x.partial_cmp(&y).unwrap_or(core::cmp::Ordering::Equal); }";
        let f = check_file(&lib_file("crates/langmodel/src/x.rs"), src);
        assert_eq!(f.iter().filter(|f| f.rule == "L1-float-ord").count(), 2);
    }

    #[test]
    fn total_cmp_and_handled_partial_cmp_pass() {
        let src = "fn a() { v.sort_by(|a, b| a.total_cmp(b)); }\n\
                   fn b() { match x.partial_cmp(&y) { Some(o) => o, None => Ordering::Equal } }\n\
                   fn c() { let s = \"a.partial_cmp(b).unwrap()\"; }";
        let f = check_file(&lib_file("crates/langmodel/src/x.rs"), src);
        assert!(f.iter().all(|f| f.rule != "L1-float-ord"), "{f:?}");
    }
}
