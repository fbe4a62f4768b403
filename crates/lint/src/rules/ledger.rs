//! L7 — accounting ledgers must use exact arithmetic.
//!
//! The funnel invariants (`offered == admitted + rejected`, breaker
//! `admitted + rejected == allow() calls`, fault-report conservation) are
//! tested equalities over `u64` counters. Narrowing `as` casts,
//! `wrapping_*`, and silent `saturating_*` each break exactness without a
//! compile error: a wrap or a clamp makes the ledger balance again at the
//! wrong value, and the conservation test turns green on a lie.
//!
//! `[[ledger]]` tables in `lint.toml` declare which types in which files
//! carry these invariants; this rule flags the three lossy operations in
//! the `impl` blocks of declared types (resolved via the item index, so a
//! helper type's `saturating_add` in the same file stays out of scope).
//! Deliberate saturation — e.g. a diagnostic duration sum that must not
//! wrap — goes through an `[[allow]]` entry with a written reason.

use super::{snippet_at, Finding};
use crate::config::LedgerDecl;
use crate::items::ItemIndex;
use crate::lexer::TokenKind;
use crate::syntax::File;
use crate::walk::SourceFile;

/// Casting a ledger to one of these loses either range or integer
/// exactness (`f32` has a 24-bit mantissa).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

pub fn check(
    sf: &SourceFile,
    file: &File,
    items: &ItemIndex,
    lines: &[&str],
    decl: &LedgerDecl,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.in_test_code(i) {
            continue;
        }
        let in_ledger_impl = items
            .enclosing_impl(i)
            .is_some_and(|ty| decl.types.iter().any(|d| d == ty));
        if !in_ledger_impl {
            continue;
        }
        // `.wrapping_add(` / `.saturating_mul(` / …
        let lossy_call = (t.text.starts_with("wrapping_") || t.text.starts_with("saturating_"))
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        if lossy_call {
            let family = if t.text.starts_with("wrapping_") {
                "wraps on overflow"
            } else {
                "clamps silently at the numeric bound"
            };
            findings.push(Finding {
                rule: "L7-ledger-arith",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    ".{}(..) in ledger type `{}` {family}, breaking exact conservation; \
                     use checked arithmetic or allowlist with the reason saturation is \
                     correct here (ledger reason: {})",
                    t.text,
                    items.enclosing_impl(i).unwrap_or("?"),
                    decl.reason
                ),
            });
            continue;
        }
        // `… as u32`
        if t.is_ident("as") {
            if let Some(target) = tokens
                .get(i + 1)
                .filter(|n| NARROW_TARGETS.contains(&n.text.as_str()))
            {
                findings.push(Finding {
                    rule: "L7-ledger-arith",
                    path: sf.rel_path.clone(),
                    line: t.line,
                    snippet: snippet_at(lines, t.line),
                    message: format!(
                        "narrowing `as {}` in ledger type `{}` silently truncates; convert \
                         with try_into() or keep the full width",
                        target.text,
                        items.enclosing_impl(i).unwrap_or("?"),
                    ),
                });
            }
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

    fn src_file() -> SourceFile {
        SourceFile {
            abs_path: PathBuf::from("crates/resilience/src/breaker.rs"),
            rel_path: "crates/resilience/src/breaker.rs".to_string(),
            crate_name: Some("resilience".to_string()),
            section: Section::Lib,
        }
    }

    fn decl() -> LedgerDecl {
        let toml = "[[ledger]]\npath = \"crates/resilience/src/breaker.rs\"\n\
                    types = [\"BreakerStats\"]\n\
                    reason = \"admitted + rejected == allow() calls is a tested invariant\"\n";
        Config::parse(toml, "lint.toml")
            .expect("fixture config")
            .ledgers[0]
            .clone()
    }

    fn run(src: &str) -> Vec<Finding> {
        let file = File::parse(lex(src));
        let items = ItemIndex::build_for(&file);
        let lines: Vec<&str> = src.lines().collect();
        let mut findings = Vec::new();
        check(&src_file(), &file, &items, &lines, &decl(), &mut findings);
        findings
    }

    #[test]
    fn lossy_ops_inside_the_declared_impl_are_flagged() {
        let src = "impl BreakerStats {\n\
                   fn merge(&mut self, o: &Self) { self.admitted = self.admitted.saturating_add(o.admitted); }\n\
                   fn wrap(&mut self) { self.rejected = self.rejected.wrapping_add(1); }\n\
                   fn narrow(&self) -> u32 { self.admitted as u32 }\n\
                   }";
        let f = run(src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("clamps silently"));
        assert!(f[1].message.contains("wraps on overflow"));
        assert!(f[2].message.contains("narrowing `as u32`"));
    }

    #[test]
    fn other_types_in_the_same_file_are_out_of_scope() {
        let src = "impl ScratchBuf {\n\
                   fn grow(&mut self) { self.len = self.len.saturating_add(1); }\n\
                   fn small(&self) -> u8 { self.len as u8 }\n\
                   }\n\
                   fn free(x: u64) -> u32 { x.wrapping_mul(3) as u32 }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn exact_and_widening_arithmetic_passes() {
        let src = "impl BreakerStats {\n\
                   fn ok(&mut self, o: &Self) { self.admitted += o.admitted; }\n\
                   fn widen(&self) -> u128 { self.admitted as u128 }\n\
                   fn ratio(&self) -> f64 { self.admitted as f64 }\n\
                   }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "impl BreakerStats {\n\
                   #[cfg(test)]\n\
                   fn t(&self) -> u8 { self.admitted as u8 }\n\
                   }";
        assert!(run(src).is_empty());
    }
}
