//! L3 — unbounded loops in the hot detection kernels must checkpoint an
//! `ExecBudget`.
//!
//! The periodogram, permutation test, ACF hill scan, GMM EM sweep, and the
//! detector driver are the places a pathological series can pin a worker
//! for a whole window. PR 3 threaded `ExecBudget` checkpoints through
//! them; this rule keeps that property: every `loop { … }` and
//! `while … { … }` in those modules (bounded `for` loops are exempt by
//! construction) must call `checkpoint`/`charge`/`is_exhausted` somewhere
//! in its condition or body — or carry an allowlist entry explaining why
//! it terminates in bounded time.

use super::{snippet_at, Finding};
use crate::syntax::File;
use crate::walk::SourceFile;

/// Identifiers that prove the loop consults a budget.
const CHECKPOINTS: &[&str] = &["checkpoint", "charge", "is_exhausted"];

pub fn check(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("loop") || t.is_ident("while")) || file.in_test_code(i) {
            continue;
        }
        // Find the body: first `{` after the keyword (skipping grouped
        // sub-expressions in a `while` condition).
        let mut j = i + 1;
        let mut body = None;
        while j < tokens.len() {
            let u = &tokens[j];
            if u.is_punct(';') {
                break;
            }
            if u.is_punct('{') {
                body = file.matching(j);
                break;
            }
            if u.is_punct('(') || u.is_punct('[') {
                match file.matching(j) {
                    Some(c) => j = c + 1,
                    None => break,
                }
                continue;
            }
            j += 1;
        }
        let Some(close) = body else { continue };
        // Condition tokens (between keyword and `{`) count too: a
        // `while !budget.is_exhausted()` loop is checkpointed by its guard.
        let checkpointed = tokens[i + 1..close]
            .iter()
            .any(|t| CHECKPOINTS.iter().any(|c| t.is_ident(c)));
        if !checkpointed {
            findings.push(Finding {
                rule: "L3-budget",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: "unbounded loop in a budgeted hot module never consults an \
                          ExecBudget; add a checkpoint() call or allowlist with a \
                          termination argument"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::check_file;
    use crate::walk::{Section, SourceFile};
    use std::path::PathBuf;

    fn hot_file() -> SourceFile {
        SourceFile {
            abs_path: PathBuf::from("crates/timeseries/src/gmm.rs"),
            rel_path: "crates/timeseries/src/gmm.rs".to_string(),
            crate_name: Some("timeseries".to_string()),
            section: Section::Lib,
        }
    }

    #[test]
    fn unchecked_loops_in_hot_modules_are_flagged() {
        let src = "fn em() { loop { step(); } }\n\
                   fn scan() { let mut i = 0; while i < n { i += walk(); } }";
        let f = check_file(&hot_file(), src);
        let budget: Vec<_> = f.iter().filter(|f| f.rule == "L3-budget").collect();
        assert_eq!(budget.len(), 2);
        assert_eq!(budget[0].line, 1);
        assert_eq!(budget[1].line, 2);
    }

    #[test]
    fn checkpointed_and_bounded_loops_pass() {
        let src = "fn em(budget: &ExecBudget) -> Result<(), E> {\n\
                   loop { budget.checkpoint(n)?; step(); }\n\
                   }\n\
                   fn guard(budget: &ExecBudget) { while !budget.is_exhausted() { step(); } }\n\
                   fn bounded() { for _ in 0..20 { step(); } }";
        let f = check_file(&hot_file(), src);
        assert!(f.iter().all(|f| f.rule != "L3-budget"), "{f:?}");
    }

    #[test]
    fn non_hot_modules_are_exempt() {
        let src = "fn em() { loop { step(); } }";
        let sf = SourceFile {
            abs_path: PathBuf::from("crates/timeseries/src/series.rs"),
            rel_path: "crates/timeseries/src/series.rs".to_string(),
            crate_name: Some("timeseries".to_string()),
            section: Section::Lib,
        };
        assert!(check_file(&sf, src).iter().all(|f| f.rule != "L3-budget"));
    }

    #[test]
    fn test_modules_in_hot_files_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { loop { if done() { break; } } }\n}";
        assert!(check_file(&hot_file(), src).is_empty());
    }
}
