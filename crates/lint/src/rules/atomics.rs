//! L5 — every atomic `Ordering` use must match its module's declared
//! policy.
//!
//! PRs 5–8 grew 45 atomic operations across `obs`/`resilience`/
//! `mapreduce`/`timeseries` with an ad-hoc mix of `Relaxed` and `SeqCst`.
//! Correctness here is *modular*: a monotone stats counter merged exactly
//! after `join()` is `Relaxed`-safe, while a control cell read by worker
//! threads mid-flight needs stronger ordering — and nothing in the type
//! system records which is which. The `[[atomic]]` tables in `lint.toml`
//! make the per-module policy explicit (with a written reason), and this
//! rule holds every `Ordering::*` token to it. Exceptions go through
//! `[[allow]]` entries, also with written reasons.
//!
//! Orderings are recognized both qualified (`Ordering::SeqCst`, with any
//! path prefix) and bare (`SeqCst` imported via `use …::Ordering::SeqCst`,
//! resolved through the file's `use` map). `std::cmp::Ordering` never
//! collides: its variants (`Less`/`Equal`/`Greater`) are disjoint from the
//! atomic set.

use super::{snippet_at, Finding};
use crate::config::{AtomicPolicy, ORDERINGS};
use crate::items::ItemIndex;
use crate::syntax::File;
use crate::walk::SourceFile;

pub fn check(
    sf: &SourceFile,
    file: &File,
    items: &ItemIndex,
    lines: &[&str],
    policy: Option<&AtomicPolicy>,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if !ORDERINGS.contains(&t.text.as_str()) || t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if file.in_test_code(i) {
            continue;
        }
        // The variant named inside a `use …::Ordering::SeqCst;` import is
        // a declaration, not a site; the bare uses it enables are checked.
        let stmt = file.statement_start(i);
        if tokens.get(stmt).is_some_and(|s| s.is_ident("use")) {
            continue;
        }
        // Qualified: `… Ordering :: Relaxed`.
        let qualified = i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("Ordering");
        if !qualified {
            // Bare: only when a `use` in scope imports this exact variant
            // (or the enclosing module globs the atomic `Ordering`) — a
            // local identifier that happens to be called `Relaxed` is not
            // an ordering.
            let imported = items
                .resolve(i, &t.text)
                .is_some_and(|path| path.contains("Ordering"));
            if !imported {
                continue;
            }
        }
        let site = items
            .qualified_fn(i)
            .unwrap_or_else(|| "<module scope>".to_string());
        match policy {
            None => findings.push(Finding {
                rule: "L5-atomic-ordering",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    "atomic Ordering::{} in `{site}` but `{}` has no declared ordering \
                     policy; add an [[atomic]] entry to lint.toml with a written reason",
                    t.text, sf.rel_path
                ),
            }),
            Some(p) if !p.allow.iter().any(|o| o == &t.text) => findings.push(Finding {
                rule: "L5-atomic-ordering",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    "Ordering::{} in `{site}` violates the declared policy for `{}` \
                     (allowed: {}); policy reason: {}",
                    t.text,
                    sf.rel_path,
                    p.allow.join(", "),
                    p.reason
                ),
            }),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::lexer::lex;
    use crate::walk::Section;
    use std::path::PathBuf;

    fn obs_file() -> SourceFile {
        SourceFile {
            abs_path: PathBuf::from("crates/obs/src/registry.rs"),
            rel_path: "crates/obs/src/registry.rs".to_string(),
            crate_name: Some("obs".to_string()),
            section: Section::Lib,
        }
    }

    fn run(src: &str, policy: Option<&AtomicPolicy>) -> Vec<Finding> {
        let file = File::parse(lex(src));
        let items = ItemIndex::build_for(&file);
        let lines: Vec<&str> = src.lines().collect();
        let mut findings = Vec::new();
        check(&obs_file(), &file, &items, &lines, policy, &mut findings);
        findings
    }

    fn policy(allow: &[&str]) -> AtomicPolicy {
        let toml = format!(
            "[[atomic]]\npath = \"crates/obs/src/registry.rs\"\nallow = [{}]\n\
             reason = \"unit-test policy, long enough to satisfy the parser\"\n",
            allow
                .iter()
                .map(|o| format!("\"{o}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        Config::parse(&toml, "lint.toml")
            .expect("test policy parses")
            .atomics[0]
            .clone()
    }

    #[test]
    fn out_of_policy_ordering_is_flagged() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   impl Counter { fn bump(&self) { self.n.fetch_add(1, Ordering::SeqCst); } }";
        let p = policy(&["Relaxed"]);
        let f = run(src, Some(&p));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "L5-atomic-ordering");
        assert!(f[0].message.contains("Counter::bump"), "{}", f[0].message);
    }

    #[test]
    fn in_policy_ordering_and_cmp_ordering_pass() {
        let src = "use std::sync::atomic::Ordering;\n\
                   fn a(n: &std::sync::atomic::AtomicU64) { n.load(Ordering::Relaxed); }\n\
                   fn b() -> std::cmp::Ordering { std::cmp::Ordering::Less }";
        let p = policy(&["Relaxed"]);
        assert!(run(src, Some(&p)).is_empty());
    }

    #[test]
    fn bare_imported_variant_is_flagged() {
        let src = "use std::sync::atomic::Ordering::SeqCst;\n\
                   fn a(n: &std::sync::atomic::AtomicU64) { n.load(SeqCst); }";
        let p = policy(&["Relaxed"]);
        let f = run(src, Some(&p));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unimported_bare_name_is_not_an_ordering() {
        let src = "fn a() { let Relaxed = 3; take(Relaxed); }";
        let p = policy(&["SeqCst"]);
        assert!(run(src, Some(&p)).is_empty());
    }

    #[test]
    fn missing_policy_is_itself_a_finding() {
        let src = "use std::sync::atomic::Ordering;\n\
                   fn a(n: &std::sync::atomic::AtomicU64) { n.load(Ordering::Relaxed); }";
        let f = run(src, None);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no declared ordering policy"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n use std::sync::atomic::Ordering;\n\
                   fn t(n: &std::sync::atomic::AtomicU64) { n.load(Ordering::SeqCst); }\n}";
        let p = policy(&["Relaxed"]);
        assert!(run(src, Some(&p)).is_empty());
    }
}
