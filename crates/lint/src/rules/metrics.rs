//! L6 — every metric and span name written at runtime must be declared in
//! the committed manifest (`METRICS.md`).
//!
//! The clean-path `export_json` document is a byte-stability contract:
//! golden tests and downstream consumers key on exact metric names. A
//! typo'd name (`pipline.events`), a counter written unconditionally but
//! documented as gated, or an instrument added without a manifest row all
//! drift that contract silently. This rule extracts every
//! `.counter("…")`/`.gauge("…")`/`.histogram("…")`/`.operational("…")`/
//! `.timing("…")`/`.span("…")` site — including `format!`-built names,
//! whose `{…}` holes become `*` wildcards — and cross-checks the manifest:
//!
//! * undeclared names fail (with a Levenshtein-≤2 typo suggestion);
//! * a site whose method disagrees with the declared kind fails (drift);
//! * a site declared `gated` must sit inside a conditional, so the clean
//!   path cannot reach it;
//! * names the rule cannot read (arbitrary expressions) fail as
//!   non-literal, to be allowlisted with a written reason.
//!
//! The rule only runs when the workspace commits a `METRICS.md`.

use super::{snippet_at, Finding};
use crate::lexer::{Token, TokenKind};
use crate::manifest::Manifest;
use crate::syntax::File;
use crate::walk::SourceFile;

/// Instrumentation methods and the manifest kind each implies.
const METHODS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "operational",
    "timing",
    "span",
];

pub fn check(
    sf: &SourceFile,
    file: &File,
    source: &str,
    lines: &[&str],
    manifest: &Manifest,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        let Some(method) = METHODS.iter().find(|m| t.is_ident(m)) else {
            continue;
        };
        // `.method ( …` — a method call, not a field, macro, or fn item.
        if i == 0
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        if file.in_test_code(i) {
            continue;
        }
        let arg = i + 2;
        // Zero-argument calls (`span.close()`-style APIs named `span()`)
        // carry no name to check.
        if tokens.get(arg).is_some_and(|n| n.is_punct(')')) {
            continue;
        }
        let name = extract_name(tokens, arg, source);
        let Some(name) = name else {
            findings.push(Finding {
                rule: "L6-metric-registry",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    ".{method}(..) with a non-literal name cannot be checked against \
                     METRICS.md; use a string literal/format! or allowlist with the names \
                     it can produce written down"
                ),
            });
            continue;
        };
        let decl = if name.contains('*') {
            // Format-derived names must be declared by the *same* wildcard
            // pattern, so the manifest stays an exact inventory of what
            // runtime can emit.
            manifest.lookup_pattern(&name)
        } else {
            manifest.lookup(&name)
        };
        let Some(decl) = decl else {
            let suggestion = manifest
                .nearest(&name)
                .map(|n| format!("; did you mean `{n}`?"))
                .unwrap_or_default();
            findings.push(Finding {
                rule: "L6-metric-registry",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!("metric name `{name}` is not declared in METRICS.md{suggestion}"),
            });
            continue;
        };
        if decl.kind != *method {
            findings.push(Finding {
                rule: "L6-metric-registry",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    "`{name}` is declared as a {} in METRICS.md but written via .{method}(..)",
                    decl.kind
                ),
            });
            continue;
        }
        if decl.gating == "gated" && !inside_conditional(file, i) {
            findings.push(Finding {
                rule: "L6-metric-registry",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    "`{name}` is declared gated (clean-path-silent) in METRICS.md but this \
                     write is unconditional; guard it or re-declare the gating"
                ),
            });
        }
    }
}

/// Reads the metric name from the first argument: a string literal,
/// `&`-ref of one, or a `format!("…")` whose holes become `*`. `None`
/// means the name is not statically readable.
fn extract_name(tokens: &[Token], mut arg: usize, source: &str) -> Option<String> {
    if tokens.get(arg).is_some_and(|t| t.is_punct('&')) {
        arg += 1;
    }
    let t = tokens.get(arg)?;
    if t.kind == TokenKind::Str {
        return str_literal_value(source, t);
    }
    // `format ! ( "…" …`
    if t.is_ident("format")
        && tokens.get(arg + 1).is_some_and(|n| n.is_punct('!'))
        && tokens.get(arg + 2).is_some_and(|n| n.is_punct('('))
        && tokens
            .get(arg + 3)
            .is_some_and(|n| n.kind == TokenKind::Str)
    {
        let fmt = str_literal_value(source, &tokens[arg + 3])?;
        return Some(wildcard_format(&fmt));
    }
    None
}

/// The text content of a string-literal token, via its byte span:
/// `"x"` → `x`, `r#"x"#` → `x`.
pub(crate) fn str_literal_value(source: &str, t: &Token) -> Option<String> {
    let raw = source.get(t.start..t.end)?;
    let raw = raw.strip_prefix('r').unwrap_or(raw);
    let raw = raw.trim_matches('#');
    let raw = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(raw.to_string())
}

/// `"stage.{stage}.admitted"` → `stage.*.admitted`; `{{`/`}}` unescape to
/// literal braces.
fn wildcard_format(fmt: &str) -> String {
    let mut out = String::with_capacity(fmt.len());
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                out.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                out.push('}');
            }
            '{' => {
                for n in chars.by_ref() {
                    if n == '}' {
                        break;
                    }
                }
                out.push('*');
            }
            c => out.push(c),
        }
    }
    out
}

/// Whether any block containing `idx` is the body of an `if`/`else`/
/// `match`/`while` — i.e. the write is unreachable on an unconditional
/// straight-line path through its function.
fn inside_conditional(file: &File, idx: usize) -> bool {
    let tokens = &file.tokens;
    for (j, t) in tokens.iter().enumerate().take(idx) {
        if !t.is_punct('{') {
            continue;
        }
        let Some(close) = file.matching(j) else {
            continue;
        };
        if close <= idx {
            continue;
        }
        // This block contains the site; does a conditional introduce it?
        let start = file.statement_start(j);
        let guarded = tokens[start..j].iter().any(|h| {
            h.is_ident("if") || h.is_ident("else") || h.is_ident("match") || h.is_ident("while")
        });
        if guarded {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::walk::Section;
    use std::path::PathBuf;

    const MANIFEST: &str = "\
| name | kind | gating | module |
|------|------|--------|--------|
| `pipeline.events` | counter | always | core/pipeline |
| `stage.*.admitted` | counter | always | core/pipeline |
| `dlq.entries` | counter | gated | core/pipeline |
| `detector.series_bins` | histogram | always | timeseries |
";

    fn lib_file() -> SourceFile {
        SourceFile {
            abs_path: PathBuf::from("crates/core/src/pipeline.rs"),
            rel_path: "crates/core/src/pipeline.rs".to_string(),
            crate_name: Some("core".to_string()),
            section: Section::Lib,
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let manifest = Manifest::parse(MANIFEST).expect("fixture manifest");
        let file = File::parse(lex(src));
        let lines: Vec<&str> = src.lines().collect();
        let mut findings = Vec::new();
        check(&lib_file(), &file, src, &lines, &manifest, &mut findings);
        findings
    }

    #[test]
    fn declared_names_pass_and_typos_get_suggestions() {
        let ok = "fn f(m: &M) { m.counter(\"pipeline.events\").add(1); }";
        assert!(run(ok).is_empty());

        let typo = "fn f(m: &M) { m.counter(\"pipline.events\").add(1); }";
        let f = run(typo);
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("did you mean `pipeline.events`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn format_names_match_wildcard_rows_exactly() {
        let ok = "fn f(m: &M, s: &str) { m.counter(&format!(\"stage.{s}.admitted\")).add(1); }";
        assert!(run(ok).is_empty());

        let undeclared =
            "fn f(m: &M, s: &str) { m.counter(&format!(\"stage.{s}.rejected\")).add(1); }";
        assert_eq!(run(undeclared).len(), 1);
    }

    #[test]
    fn kind_drift_is_flagged() {
        let src = "fn f(m: &M) { m.gauge(\"pipeline.events\").set(1); }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("declared as a counter"));
    }

    #[test]
    fn gated_names_must_be_conditional() {
        let bare = "fn f(m: &M) { m.counter(\"dlq.entries\").add(n); }";
        let f = run(bare);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unconditional"));

        let guarded = "fn f(m: &M, n: u64) { if n > 0 { m.counter(\"dlq.entries\").add(n); } }";
        assert!(run(guarded).is_empty());

        let matched =
            "fn f(m: &M, n: u64) { match n { 0 => {}, n => { m.counter(\"dlq.entries\").add(n); } } }";
        assert!(run(matched).is_empty());
    }

    #[test]
    fn non_literal_names_are_flagged() {
        let src = "fn f(m: &M, name: &str) { m.counter(name).add(1); }";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("non-literal"));
    }

    #[test]
    fn zero_arg_and_test_sites_are_skipped() {
        let src = "fn f(s: &S) { s.span(); }\n\
                   #[cfg(test)]\nmod tests { fn t(m: &M) { m.counter(\"nope\").add(1); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn wildcard_format_handles_escaped_braces() {
        assert_eq!(wildcard_format("stage.{s}.admitted"), "stage.*.admitted");
        assert_eq!(wildcard_format("lit.{{x}}.y"), "lit.{x}.y");
        assert_eq!(wildcard_format("a.{x:>3}.b"), "a.*.b");
    }
}
