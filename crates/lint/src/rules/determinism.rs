//! L2 — deterministic crates must be pure functions of their inputs.
//!
//! Four sub-rules, applied to non-test library code of the deterministic
//! crates (`timeseries`, `core`, `stats`, `netsim`):
//!
//! * **L2-ambient-rng** — `thread_rng()`, `rand::rng()`, `rand::random()`,
//!   `from_entropy()`: randomness that is not derived from an explicit seed
//!   makes reruns incomparable. Seeded `StdRng` is always fine.
//! * **L2-wall-clock** — `SystemTime::now` / `Instant::now`: verdicts must
//!   not depend on when the pipeline ran. (`ExecBudget` is the sanctioned,
//!   allowlisted exception: budgets only cause early exits, never change a
//!   completed pair's report.)
//! * **L2-ambient-fs** — `fs::<anything>` paths and bare `File::open` /
//!   `File::create` / `OpenOptions::new`: filesystem reads make the result
//!   depend on ambient disk state, and writes are side effects a pure
//!   pipeline stage must not have. Durable state belongs behind audited
//!   boundaries (`CheckpointStore` in `mapreduce`, the ingest/export pair
//!   in `core::io`) that are allowlisted with a written reason.
//! * **L2-hash-iter** — iterating a `HashMap`/`HashSet` observes
//!   `RandomState`'s per-process order. The iteration is flagged unless the
//!   order provably cannot reach the output: the chain ends in an
//!   order-insensitive terminal (`len`, `count`, `is_empty`, `any`, `all`,
//!   `min`, `max`), collects into a B-tree or hash container, is sorted in
//!   the same chain, or flows into a binding that is sorted later in the
//!   same function.
//!
//! Hash bindings are recovered per function from `let` statements, `fn`
//! parameters, and (file-wide) struct fields whose declared type names a
//! hash container. This is a heuristic, not a type checker: renaming a
//! map through an untyped intermediate hides it. The
//! shuffle-determinism integration tests backstop what the lexer cannot
//! see.

use std::collections::BTreeSet;

use super::{snippet_at, Finding};
use crate::lexer::{Token, TokenKind};
use crate::syntax::{File, Span};
use crate::walk::SourceFile;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet"];
/// Methods whose return value exposes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];
/// Chain members that make the observed order irrelevant to the result.
const ORDER_INSENSITIVE: &[&str] = &["len", "count", "is_empty", "any", "all", "min", "max"];
const SORTS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "sort_by_key",
    "sort_by_cached_key",
];

pub fn check(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    check_ambient_rng(sf, file, lines, findings);
    check_wall_clock(sf, file, lines, findings);
    check_ambient_fs(sf, file, lines, findings);
    check_hash_iteration(sf, file, lines, findings);
}

fn check_ambient_rng(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test_code(i) {
            continue;
        }
        let ambient = (t.is_ident("thread_rng") || t.is_ident("from_entropy"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            || t.is_ident("rand")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && tokens
                    .get(i + 3)
                    .is_some_and(|n| n.is_ident("rng") || n.is_ident("random"))
                && tokens.get(i + 4).is_some_and(|n| n.is_punct('('));
        if ambient {
            findings.push(Finding {
                rule: "L2-ambient-rng",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: "ambient RNG breaks rerun reproducibility; derive every random \
                          stream from an explicit seed (StdRng::seed_from_u64)"
                    .to_string(),
            });
        }
    }
}

fn check_wall_clock(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test_code(i) {
            continue;
        }
        let clock = (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident("now"));
        if clock {
            findings.push(Finding {
                rule: "L2-wall-clock",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: format!(
                    "{}::now() makes verdicts depend on when the run happened; thread a \
                     timestamp in as data (or allowlist with a written justification)",
                    t.text
                ),
            });
        }
    }
}

fn check_ambient_fs(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test_code(i) {
            continue;
        }
        let path2 = |at: usize| {
            tokens.get(at).is_some_and(|n| n.is_punct(':'))
                && tokens.get(at + 1).is_some_and(|n| n.is_punct(':'))
        };
        // Any `fs::<ident>` path segment: `std::fs::read_to_string`,
        // `std::fs::File::open`, `use std::fs::File` all anchor here.
        let fs_path = t.is_ident("fs")
            && path2(i + 1)
            && tokens
                .get(i + 3)
                .is_some_and(|n| n.kind == TokenKind::Ident);
        // Bare constructors after a `use` import. When the preceding token
        // is `:` the ident is part of a longer path and the `fs` segment
        // (or another crate's namespace) already owns the decision.
        let bare_ctor = !(i > 0 && tokens[i - 1].is_punct(':'))
            && (t.is_ident("File")
                && path2(i + 1)
                && tokens
                    .get(i + 3)
                    .is_some_and(|n| n.is_ident("open") || n.is_ident("create"))
                || t.is_ident("OpenOptions")
                    && path2(i + 1)
                    && tokens.get(i + 3).is_some_and(|n| n.is_ident("new")));
        if fs_path || bare_ctor {
            findings.push(Finding {
                rule: "L2-ambient-fs",
                path: sf.rel_path.clone(),
                line: t.line,
                snippet: snippet_at(lines, t.line),
                message: "filesystem access in a deterministic crate ties results to \
                          ambient disk state; route I/O through an audited boundary \
                          (or allowlist with a written justification)"
                    .to_string(),
            });
        }
    }
}

/// One function's scope: its body span plus every binding known to hold a
/// hash container.
struct FnScope {
    body: Span,
    hashy: BTreeSet<String>,
}

fn check_hash_iteration(sf: &SourceFile, file: &File, lines: &[&str], findings: &mut Vec<Finding>) {
    let hashy_fields = collect_hashy_struct_fields(file);
    for scope in collect_fn_scopes(file) {
        let mut i = scope.body.start;
        while i < scope.body.end {
            if file.in_test_code(i) {
                i += 1;
                continue;
            }
            if let Some(site) = iteration_site(file, &scope, &hashy_fields, i) {
                if !is_suppressed(file, &scope, site.method_idx) {
                    let t = &file.tokens[site.anchor_idx];
                    findings.push(Finding {
                        rule: "L2-hash-iter",
                        path: sf.rel_path.clone(),
                        line: t.line,
                        snippet: snippet_at(lines, t.line),
                        message: "hash-container iteration order is nondeterministic and can \
                                  reach the output; sort the items or use a BTree collection"
                            .to_string(),
                    });
                }
                i = site.resume_idx;
                continue;
            }
            i += 1;
        }
    }
}

struct IterationSite {
    /// Token to report (the receiver identifier).
    anchor_idx: usize,
    /// Index of the iteration method ident (or of the receiver for `for`
    /// loops, which have no suppressing chain).
    method_idx: usize,
    /// Where the outer scan should resume.
    resume_idx: usize,
}

/// Recognizes `name.iter()`, `self.field.keys()`, `for x in &name`, and
/// `for x in &self.field` at token index `i`.
fn iteration_site(
    file: &File,
    scope: &FnScope,
    hashy_fields: &BTreeSet<String>,
    i: usize,
) -> Option<IterationSite> {
    let tokens = &file.tokens;
    let t = &tokens[i];

    // `for <pat> in [&[mut]] receiver {` — direct ordered traversal.
    if t.is_ident("for") {
        let in_idx = find_in_keyword(file, i)?;
        let mut j = in_idx + 1;
        while tokens
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j += 1;
        }
        let (recv_end, is_hashy) = receiver_at(tokens, j, scope, hashy_fields)?;
        // The loop body must open right after the receiver — otherwise the
        // expression continues (method calls are handled by the other arm).
        if is_hashy && tokens.get(recv_end + 1).is_some_and(|t| t.is_punct('{')) {
            return Some(IterationSite {
                anchor_idx: j,
                method_idx: recv_end,
                resume_idx: recv_end + 1,
            });
        }
        return None;
    }

    // `receiver . iter_method (`
    let (recv_end, is_hashy) = receiver_at(tokens, i, scope, hashy_fields)?;
    if !is_hashy {
        return None;
    }
    let dot = recv_end + 1;
    let method = recv_end + 2;
    if tokens.get(dot).is_some_and(|t| t.is_punct('.'))
        && tokens
            .get(method)
            .is_some_and(|t| ITER_METHODS.iter().any(|m| t.is_ident(m)))
        && tokens.get(method + 1).is_some_and(|t| t.is_punct('('))
    {
        return Some(IterationSite {
            anchor_idx: i,
            method_idx: method,
            resume_idx: method + 1,
        });
    }
    None
}

/// If tokens starting at `i` form a known receiver — `name` or
/// `self.field` — returns (index of its last token, whether it is hashy).
fn receiver_at(
    tokens: &[Token],
    i: usize,
    scope: &FnScope,
    hashy_fields: &BTreeSet<String>,
) -> Option<(usize, bool)> {
    let t = tokens.get(i)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    if t.text == "self"
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && tokens
            .get(i + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    {
        let field = &tokens[i + 2].text;
        return Some((i + 2, hashy_fields.contains(field)));
    }
    // Skip if this ident is itself a field/method of something else
    // (`x.name.iter()`): the preceding `.` means `name` is not the binding.
    if i > 0 && tokens[i - 1].is_punct('.') {
        return None;
    }
    Some((i, scope.hashy.contains(&t.text)))
}

/// The `in` keyword of a `for` loop header, skipping nested groups.
fn find_in_keyword(file: &File, for_idx: usize) -> Option<usize> {
    let tokens = &file.tokens;
    let mut j = for_idx + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_ident("in") {
            return Some(j);
        }
        if t.is_punct('{') || t.is_punct(';') {
            return None;
        }
        if t.is_punct('(') || t.is_punct('[') {
            j = file.matching(j)? + 1;
            continue;
        }
        j += 1;
    }
    None
}

/// Whether the iteration at `method_idx` provably cannot leak order into
/// the output. See the module docs for the accepted shapes.
fn is_suppressed(file: &File, scope: &FnScope, method_idx: usize) -> bool {
    let tokens = &file.tokens;
    let stmt_start = file.statement_start(method_idx);
    let stmt_end = file.statement_end(method_idx);

    // (a) Order-insensitive or sorting chain members, or a B-tree
    // turbofish, anywhere in the rest of the statement.
    for t in &tokens[method_idx..stmt_end] {
        if t.kind == TokenKind::Ident
            && (ORDER_INSENSITIVE.contains(&t.text.as_str())
                || SORTS.contains(&t.text.as_str())
                || ORDERED_TYPES.contains(&t.text.as_str()))
        {
            return true;
        }
    }

    // (b)/(c) A `let` statement: suppressed when the declared type is a
    // container without observable insertion order (hash: order never
    // materializes; B-tree: re-sorted), or when the binding is sorted
    // later in the same function.
    if !tokens.get(stmt_start).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut j = stmt_start + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(name_tok) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
        return false;
    };
    let bound_name = name_tok.text.clone();

    // Declared-type scan: tokens between `:` and `=` at statement level.
    if tokens.get(j + 1).is_some_and(|t| t.is_punct(':')) {
        let mut k = j + 2;
        while k < stmt_end && !tokens[k].is_punct('=') {
            if tokens[k].kind == TokenKind::Ident
                && (HASH_TYPES.contains(&tokens[k].text.as_str())
                    || ORDERED_TYPES.contains(&tokens[k].text.as_str()))
            {
                return true;
            }
            k += 1;
        }
    }

    // Later `bound_name.sort*(…)` in the same function body.
    let mut k = stmt_end;
    while k + 2 < scope.body.end {
        if tokens[k].is_ident(&bound_name)
            && tokens[k + 1].is_punct('.')
            && SORTS.contains(&tokens[k + 2].text.as_str())
            && tokens[k + 2].kind == TokenKind::Ident
        {
            return true;
        }
        k += 1;
    }
    false
}

/// Struct fields (file-wide) whose declared type names a hash container.
fn collect_hashy_struct_fields(file: &File) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let mut fields = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("struct") {
            i += 1;
            continue;
        }
        // Find the body brace before any `;` (unit/tuple structs have none).
        let mut j = i + 1;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                body = file.matching(j).map(|end| (j, end));
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                match file.matching(j) {
                    Some(c) => j = c + 1,
                    None => break,
                }
                continue;
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            i = j + 1;
            continue;
        };
        // Fields at the body's own depth: `name : <type tokens> ,`.
        let mut k = open + 1;
        while k < close {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                match file.matching(k) {
                    Some(c) => k = c + 1,
                    None => break,
                }
                continue;
            }
            if t.kind == TokenKind::Ident
                && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !tokens.get(k + 2).is_some_and(|n| n.is_punct(':'))
            {
                let name = t.text.clone();
                // Scan the field's type until the `,` at this depth.
                let mut m = k + 2;
                let mut hashy = false;
                while m < close {
                    let u = &tokens[m];
                    if u.is_punct(',') {
                        break;
                    }
                    if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                        match file.matching(m) {
                            Some(c) => m = c + 1,
                            None => break,
                        }
                        continue;
                    }
                    if u.kind == TokenKind::Ident && HASH_TYPES.contains(&u.text.as_str()) {
                        hashy = true;
                    }
                    m += 1;
                }
                if hashy {
                    fields.insert(name);
                }
                k = m + 1;
                continue;
            }
            k += 1;
        }
        i = close + 1;
    }
    fields
}

/// Every function body with its hash-typed bindings (params + `let`s).
fn collect_fn_scopes(file: &File) -> Vec<FnScope> {
    let tokens = &file.tokens;
    let mut scopes = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // Parameter list: first `(` group after the name/generics.
        let mut j = i + 1;
        let mut params: Option<(usize, usize)> = None;
        let mut body: Option<Span> = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('(') && params.is_none() {
                match file.matching(j) {
                    Some(c) => {
                        params = Some((j, c));
                        j = c + 1;
                    }
                    None => break,
                }
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                match file.matching(j) {
                    Some(c) => j = c + 1,
                    None => break,
                }
                continue;
            }
            if t.is_punct('{') {
                body = file.matching(j).map(|end| Span {
                    start: j,
                    end: end + 1,
                });
                break;
            }
            j += 1;
        }
        let Some(body) = body else {
            i = j + 1;
            continue;
        };

        let mut hashy = BTreeSet::new();
        // Params: `name : <type up to , at depth 0>`.
        if let Some((open, close)) = params {
            let mut k = open + 1;
            while k < close {
                let t = &tokens[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    match file.matching(k) {
                        Some(c) => k = c + 1,
                        None => break,
                    }
                    continue;
                }
                if t.kind == TokenKind::Ident && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                {
                    let name = t.text.clone();
                    let mut m = k + 2;
                    let mut is_hash = false;
                    while m < close {
                        let u = &tokens[m];
                        if u.is_punct(',') {
                            break;
                        }
                        if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                            match file.matching(m) {
                                Some(c) => m = c + 1,
                                None => break,
                            }
                            continue;
                        }
                        if u.kind == TokenKind::Ident && HASH_TYPES.contains(&u.text.as_str()) {
                            is_hash = true;
                        }
                        m += 1;
                    }
                    if is_hash {
                        hashy.insert(name);
                    }
                    k = m + 1;
                    continue;
                }
                k += 1;
            }
        }
        // `let [mut] name …;` statements that name a hash type at the
        // statement's own level: the type annotation and the constructor
        // head. Nested groups (closure bodies, call arguments) are skipped
        // — a `HashSet` inside a closure passed to a builder says nothing
        // about what the builder returns. Nested `let`s register on their
        // own because this scan visits every `let` token in the body.
        let mut k = body.start;
        while k < body.end {
            if tokens[k].is_ident("let") {
                let stmt_end = file.statement_end(k);
                let mut n = k + 1;
                if tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
                    n += 1;
                }
                if let Some(name_tok) = tokens.get(n).filter(|t| t.kind == TokenKind::Ident) {
                    let mut m = n + 1;
                    let mut names_hash = false;
                    while m < stmt_end.min(tokens.len()) {
                        let u = &tokens[m];
                        if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                            match file.matching(m) {
                                Some(c) => m = c + 1,
                                None => break,
                            }
                            continue;
                        }
                        if u.kind == TokenKind::Ident && HASH_TYPES.contains(&u.text.as_str()) {
                            names_hash = true;
                            break;
                        }
                        m += 1;
                    }
                    if names_hash {
                        hashy.insert(name_tok.text.clone());
                    }
                }
            }
            k += 1;
        }
        scopes.push(FnScope { body, hashy });
        i = body.start + 1;
    }
    scopes
}

#[cfg(test)]
mod tests {
    use super::super::check_file;
    use crate::walk::{Section, SourceFile};
    use std::path::PathBuf;

    fn det_file() -> SourceFile {
        SourceFile {
            abs_path: PathBuf::from("crates/core/src/x.rs"),
            rel_path: "crates/core/src/x.rs".to_string(),
            crate_name: Some("core".to_string()),
            section: Section::Lib,
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        check_file(&det_file(), src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn ambient_rng_and_wall_clock_are_flagged() {
        let src = "fn a() { let r = rand::rng(); }\n\
                   fn b() { let t = std::time::SystemTime::now(); }\n\
                   fn c() { let t = Instant::now(); }\n\
                   fn d() { let mut r = StdRng::seed_from_u64(7); }";
        let rules = rules_of(src);
        assert_eq!(
            rules,
            ["L2-ambient-rng", "L2-wall-clock", "L2-wall-clock"],
            "seeded RNG must pass"
        );
    }

    #[test]
    fn ambient_fs_is_flagged_but_lookalikes_pass() {
        let src = "fn a(p: &str) -> bool { std::fs::read_to_string(p).is_ok() }\n\
                   fn b(p: &str) { let _f = File::open(p); }\n\
                   fn c() { let _o = OpenOptions::new(); }\n\
                   fn d(p: &str) { let _f = std::fs::File::create(p); }\n\
                   fn e(fs: u32) -> u32 { fs + profile::File::line() }";
        let rules: Vec<_> = rules_of(src)
            .into_iter()
            .filter(|r| *r == "L2-ambient-fs")
            .collect();
        assert_eq!(
            rules.len(),
            4,
            "one finding per access site; a local named `fs` and a foreign \
             `File` namespace must not fire: {rules:?}"
        );
    }

    #[test]
    fn test_code_is_exempt_from_l2() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let t = Instant::now(); }\n}";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn hash_iteration_reaching_output_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn leak() -> Vec<(String, u32)> {\n\
                   let mut m: HashMap<String, u32> = HashMap::new();\n\
                   m.iter().map(|(k, v)| (k.clone(), *v)).collect()\n\
                   }";
        assert_eq!(rules_of(src), ["L2-hash-iter"]);
    }

    #[test]
    fn for_loop_over_hash_map_is_flagged() {
        let src = "fn leak(m: std::collections::HashMap<u32, u32>) {\n\
                   for (k, v) in &m { emit(k, v); }\n\
                   }";
        assert_eq!(rules_of(src), ["L2-hash-iter"]);
    }

    #[test]
    fn struct_field_iteration_is_flagged() {
        let src = "struct S { seen: std::collections::HashSet<String>, n: u32 }\n\
                   impl S { fn leak(&self) -> Vec<String> {\n\
                   self.seen.iter().cloned().collect()\n\
                   } }";
        assert_eq!(rules_of(src), ["L2-hash-iter"]);
    }

    #[test]
    fn sorted_or_order_insensitive_consumption_passes() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   fn count(m: HashMap<u32, u32>) -> usize { m.values().count() }\n\
                   fn top(m: HashMap<String, u32>) -> Vec<(String, u32)> {\n\
                   let mut v: Vec<(String, u32)> = m.into_iter().collect();\n\
                   v.sort_by(|a, b| a.0.cmp(&b.0));\n\
                   v\n\
                   }\n\
                   fn chain(m: HashMap<String, u32>) -> Vec<String> {\n\
                   m.keys().cloned().collect::<std::collections::BTreeSet<_>>().into_iter().collect()\n\
                   }\n\
                   fn rebuild(m: HashMap<String, u32>) -> HashMap<String, u32> {\n\
                   let out: HashMap<String, u32> = m.into_iter().map(|(k, v)| (k, v + 1)).collect();\n\
                   out\n\
                   }\n\
                   fn lookup(m: &HashMap<String, u32>, k: &str) -> u32 {\n\
                   m.get(k).copied().unwrap_or(0)\n\
                   }";
        let rules: Vec<_> = rules_of(src)
            .into_iter()
            .filter(|r| *r == "L2-hash-iter")
            .collect();
        assert!(
            rules.is_empty(),
            "all consumptions are order-safe: {rules:?}"
        );
    }

    #[test]
    fn non_deterministic_crates_are_exempt() {
        let src = "fn leak(m: std::collections::HashMap<u32, u32>) {\n\
                   for (k, v) in &m { emit(k, v); }\n\
                   }";
        let sf = SourceFile {
            abs_path: PathBuf::from("crates/langmodel/src/x.rs"),
            rel_path: "crates/langmodel/src/x.rs".to_string(),
            crate_name: Some("langmodel".to_string()),
            section: Section::Lib,
        };
        assert!(check_file(&sf, src).is_empty());
    }
}
