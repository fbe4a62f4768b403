//! `lint.toml` — the suppression allowlist plus the declared policies the
//! symbol-resolved rules enforce.
//!
//! Every `[[allow]]` entry names a rule, a file, and — non-negotiably — a
//! human `reason`. An allowlist without written justifications decays into
//! a list of things nobody remembers agreeing to; the parser rejects empty
//! or missing reasons outright. The same discipline applies to the policy
//! tables: `[[atomic]]` (per-module atomic-ordering policy for
//! L5-atomic-ordering) and `[[ledger]]` (accounting types whose arithmetic
//! L7-ledger-arith audits) both require a written `reason`.
//!
//! The accepted grammar is the TOML subset the file actually needs
//! (comments, `[[allow]]`/`[[atomic]]`/`[[ledger]]` table arrays,
//! `key = "string"` and `key = ["a", "b"]` pairs), parsed strictly:
//! unknown tables, unknown keys, bare values, or duplicate keys are hard
//! errors, so a typo cannot silently suppress nothing.
//!
//! ```toml
//! [[allow]]
//! rule = "L2-wall-clock"
//! path = "crates/timeseries/src/budget.rs"
//! pattern = "Instant::now"   # optional: flagged line must contain this
//! reason = "ExecBudget deliberately reads the wall clock; budgets only early-exit"
//!
//! [[atomic]]
//! path = "crates/obs/src/registry.rs"
//! allow = ["Relaxed"]
//! reason = "monotone counters merged exactly after join; no ordering needed"
//!
//! [[ledger]]
//! path = "crates/resilience/src/breaker.rs"
//! types = ["BreakerStats"]
//! reason = "admitted + rejected == allow() calls is a tested invariant"
//! ```

use crate::rules::{Finding, RULE_IDS};
use crate::LintError;

/// The orderings an `[[atomic]]` policy may declare.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One suppression, scoped to (rule, file, optional line substring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    /// When non-empty, the finding's snippet must contain this substring.
    pub pattern: String,
    pub reason: String,
    /// Line in `lint.toml` the entry starts on (for unused-entry reports).
    pub defined_at: u32,
}

impl AllowEntry {
    pub fn matches(&self, finding: &Finding) -> bool {
        self.rule == finding.rule
            && self.path == finding.path
            && (self.pattern.is_empty() || finding.snippet.contains(&self.pattern))
    }
}

/// One module's declared atomic-ordering policy (L5-atomic-ordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicPolicy {
    /// Workspace-relative file the policy governs, exactly.
    pub path: String,
    /// Orderings this module is allowed to use.
    pub allow: Vec<String>,
    pub reason: String,
    pub defined_at: u32,
}

/// One module's declared accounting types (L7-ledger-arith).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerDecl {
    /// Workspace-relative file the declaration governs, exactly.
    pub path: String,
    /// Type names whose `impl` blocks carry exact-conservation invariants.
    pub types: Vec<String>,
    pub reason: String,
    pub defined_at: u32,
}

/// The parsed configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    pub allows: Vec<AllowEntry>,
    pub atomics: Vec<AtomicPolicy>,
    pub ledgers: Vec<LedgerDecl>,
}

impl Config {
    /// The atomic policy governing `rel_path`, if declared.
    pub fn atomic_policy(&self, rel_path: &str) -> Option<&AtomicPolicy> {
        self.atomics.iter().find(|p| p.path == rel_path)
    }

    /// The ledger declaration governing `rel_path`, if declared.
    pub fn ledger(&self, rel_path: &str) -> Option<&LedgerDecl> {
        self.ledgers.iter().find(|l| l.path == rel_path)
    }

    /// Parses `lint.toml` text. `origin` names the file in error messages.
    pub fn parse(text: &str, origin: &str) -> Result<Self, LintError> {
        let err = |line: usize, msg: String| {
            Err(LintError::Config(format!("{origin}:{}: {msg}", line + 1)))
        };
        let mut cfg = Config::default();
        let mut current: Option<Partial> = None;
        let flush = |cfg: &mut Config, current: &mut Option<Partial>| -> Result<(), LintError> {
            if let Some(partial) = current.take() {
                match partial {
                    Partial::Allow(p) => cfg.allows.push(p.finish(origin)?),
                    Partial::Atomic(p) => cfg.atomics.push(p.finish(origin)?),
                    Partial::Ledger(p) => cfg.ledgers.push(p.finish(origin)?),
                }
            }
            Ok(())
        };

        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                flush(&mut cfg, &mut current)?;
                current = Some(match line.as_str() {
                    "[[allow]]" => Partial::Allow(PartialAllow::new(lineno as u32 + 1)),
                    "[[atomic]]" => Partial::Atomic(PartialAtomic::new(lineno as u32 + 1)),
                    "[[ledger]]" => Partial::Ledger(PartialLedger::new(lineno as u32 + 1)),
                    other => {
                        return err(
                            lineno,
                            format!(
                            "unknown table `{other}`; accepted: [[allow]], [[atomic]], [[ledger]]"
                        ),
                        )
                    }
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(lineno, format!("expected `key = \"value\"`, got `{line}`"));
            };
            let key = key.trim();
            let value = value.trim();
            let Some(entry) = current.as_mut() else {
                return err(lineno, format!("`{key}` appears before any table"));
            };
            let as_string = |value: &str, key: &str| -> Result<String, LintError> {
                parse_string(value).ok_or_else(|| {
                    LintError::Config(format!(
                        "{origin}:{}: value for `{key}` must be a double-quoted string",
                        lineno + 1
                    ))
                })
            };
            let as_array = |value: &str, key: &str| -> Result<Vec<String>, LintError> {
                parse_string_array(value).ok_or_else(|| {
                    LintError::Config(format!(
                        "{origin}:{}: value for `{key}` must be an array of double-quoted strings",
                        lineno + 1
                    ))
                })
            };
            let dup = |key: &str| {
                LintError::Config(format!(
                    "{origin}:{}: duplicate key `{key}` in one table entry",
                    lineno + 1
                ))
            };
            match entry {
                Partial::Allow(p) => {
                    let slot = match key {
                        "rule" => &mut p.rule,
                        "path" => &mut p.path,
                        "pattern" => &mut p.pattern,
                        "reason" => &mut p.reason,
                        other => {
                            return err(
                                lineno,
                                format!(
                                    "unknown key `{other}` in [[allow]]; \
                                     allowed: rule, path, pattern, reason"
                                ),
                            )
                        }
                    };
                    if slot.is_some() {
                        return Err(dup(key));
                    }
                    *slot = Some(as_string(value, key)?);
                }
                Partial::Atomic(p) => match key {
                    "path" | "reason" => {
                        let slot = if key == "path" {
                            &mut p.path
                        } else {
                            &mut p.reason
                        };
                        if slot.is_some() {
                            return Err(dup(key));
                        }
                        *slot = Some(as_string(value, key)?);
                    }
                    "allow" => {
                        if p.allow.is_some() {
                            return Err(dup(key));
                        }
                        p.allow = Some(as_array(value, key)?);
                    }
                    other => {
                        return err(
                            lineno,
                            format!(
                                "unknown key `{other}` in [[atomic]]; \
                                 allowed: path, allow, reason"
                            ),
                        )
                    }
                },
                Partial::Ledger(p) => match key {
                    "path" | "reason" => {
                        let slot = if key == "path" {
                            &mut p.path
                        } else {
                            &mut p.reason
                        };
                        if slot.is_some() {
                            return Err(dup(key));
                        }
                        *slot = Some(as_string(value, key)?);
                    }
                    "types" => {
                        if p.types.is_some() {
                            return Err(dup(key));
                        }
                        p.types = Some(as_array(value, key)?);
                    }
                    other => {
                        return err(
                            lineno,
                            format!(
                                "unknown key `{other}` in [[ledger]]; \
                                 allowed: path, types, reason"
                            ),
                        )
                    }
                },
            }
        }
        flush(&mut cfg, &mut current)?;
        Ok(cfg)
    }
}

enum Partial {
    Allow(PartialAllow),
    Atomic(PartialAtomic),
    Ledger(PartialLedger),
}

struct PartialAllow {
    defined_at: u32,
    rule: Option<String>,
    path: Option<String>,
    pattern: Option<String>,
    reason: Option<String>,
}

impl PartialAllow {
    fn new(defined_at: u32) -> Self {
        Self {
            defined_at,
            rule: None,
            path: None,
            pattern: None,
            reason: None,
        }
    }

    fn finish(self, origin: &str) -> Result<AllowEntry, LintError> {
        let at = self.defined_at;
        let fail = |msg: String| Err(LintError::Config(format!("{origin}:{at}: {msg}")));
        let Some(rule) = self.rule else {
            return fail("[[allow]] entry is missing `rule`".to_string());
        };
        if !RULE_IDS.contains(&rule.as_str()) {
            return fail(format!(
                "unknown rule `{rule}`; known rules: {}",
                RULE_IDS.join(", ")
            ));
        }
        let Some(path) = self.path else {
            return fail("[[allow]] entry is missing `path`".to_string());
        };
        let reason = require_reason(self.reason, "[[allow]]", origin, at)?;
        Ok(AllowEntry {
            rule,
            path,
            pattern: self.pattern.unwrap_or_default(),
            reason,
            defined_at: at,
        })
    }
}

struct PartialAtomic {
    defined_at: u32,
    path: Option<String>,
    allow: Option<Vec<String>>,
    reason: Option<String>,
}

impl PartialAtomic {
    fn new(defined_at: u32) -> Self {
        Self {
            defined_at,
            path: None,
            allow: None,
            reason: None,
        }
    }

    fn finish(self, origin: &str) -> Result<AtomicPolicy, LintError> {
        let at = self.defined_at;
        let fail = |msg: String| Err(LintError::Config(format!("{origin}:{at}: {msg}")));
        let Some(path) = self.path else {
            return fail("[[atomic]] entry is missing `path`".to_string());
        };
        let Some(allow) = self.allow else {
            return fail("[[atomic]] entry is missing `allow`".to_string());
        };
        if allow.is_empty() {
            return fail("[[atomic]] `allow` must list at least one ordering".to_string());
        }
        for o in &allow {
            if !ORDERINGS.contains(&o.as_str()) {
                return fail(format!(
                    "unknown ordering `{o}`; known orderings: {}",
                    ORDERINGS.join(", ")
                ));
            }
        }
        let reason = require_reason(self.reason, "[[atomic]]", origin, at)?;
        Ok(AtomicPolicy {
            path,
            allow,
            reason,
            defined_at: at,
        })
    }
}

struct PartialLedger {
    defined_at: u32,
    path: Option<String>,
    types: Option<Vec<String>>,
    reason: Option<String>,
}

impl PartialLedger {
    fn new(defined_at: u32) -> Self {
        Self {
            defined_at,
            path: None,
            types: None,
            reason: None,
        }
    }

    fn finish(self, origin: &str) -> Result<LedgerDecl, LintError> {
        let at = self.defined_at;
        let fail = |msg: String| Err(LintError::Config(format!("{origin}:{at}: {msg}")));
        let Some(path) = self.path else {
            return fail("[[ledger]] entry is missing `path`".to_string());
        };
        let Some(types) = self.types else {
            return fail("[[ledger]] entry is missing `types`".to_string());
        };
        if types.is_empty() {
            return fail("[[ledger]] `types` must list at least one type".to_string());
        }
        let reason = require_reason(self.reason, "[[ledger]]", origin, at)?;
        Ok(LedgerDecl {
            path,
            types,
            reason,
            defined_at: at,
        })
    }
}

fn require_reason(
    reason: Option<String>,
    table: &str,
    origin: &str,
    at: u32,
) -> Result<String, LintError> {
    let reason = reason.unwrap_or_default();
    if reason.trim().len() < 10 {
        return Err(LintError::Config(format!(
            "{origin}:{at}: every {table} entry needs a written `reason` (at least 10 \
             characters) explaining why the invariant holds"
        )));
    }
    Ok(reason)
}

/// Strips a `#` comment, honoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..idx],
            _ => escaped = false,
        }
    }
    line
}

/// Parses a double-quoted TOML basic string with `\"` and `\\` escapes.
/// Returns `None` on anything else (bare words, single quotes, trailing
/// garbage).
fn parse_string(value: &str) -> Option<String> {
    let rest = value.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            },
            '"' => {
                // Only whitespace may follow the closing quote.
                return chars.all(char::is_whitespace).then_some(out);
            }
            c => out.push(c),
        }
    }
    None
}

/// Parses a single-line TOML array of basic strings: `["a", "b"]`.
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Some(out);
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut s = String::new();
        loop {
            match chars.next()? {
                '\\' => match chars.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    'n' => s.push('\n'),
                    't' => s.push('\t'),
                    _ => return None,
                },
                '"' => break,
                c => s.push(c),
            }
        }
        out.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_config_parses() {
        let toml = r##"
# repo allowlist
[[allow]]
rule = "L2-wall-clock"
path = "crates/timeseries/src/budget.rs"
reason = "budgets deliberately read the wall clock; only early-exits depend on it"

[[allow]]
rule = "L2-ambient-fs"
path = "crates/core/src/io.rs"
pattern = "std::fs::"
reason = "io.rs is the audited ingest/export boundary"
"##;
        let cfg = Config::parse(toml, "lint.toml").expect("parses");
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].rule, "L2-wall-clock");
        assert_eq!(cfg.allows[1].pattern, "std::fs::");
        assert_eq!(cfg.allows[0].defined_at, 3);
    }

    #[test]
    fn atomic_and_ledger_tables_parse() {
        let toml = r##"
[[atomic]]
path = "crates/obs/src/registry.rs"
allow = ["Relaxed"]
reason = "monotone counters merged exactly after join; no ordering needed"

[[atomic]]
path = "crates/mapreduce/src/fault.rs"
allow = ["Relaxed", "SeqCst"]
reason = "stats counters are Relaxed; control cells stay SeqCst"

[[ledger]]
path = "crates/resilience/src/breaker.rs"
types = ["BreakerStats"]
reason = "admitted + rejected == allow() calls is a tested invariant"
"##;
        let cfg = Config::parse(toml, "lint.toml").expect("parses");
        assert_eq!(cfg.atomics.len(), 2);
        assert_eq!(cfg.atomics[1].allow, vec!["Relaxed", "SeqCst"]);
        assert_eq!(cfg.ledgers.len(), 1);
        assert_eq!(cfg.ledgers[0].types, vec!["BreakerStats"]);
        assert!(cfg.atomic_policy("crates/obs/src/registry.rs").is_some());
        assert!(cfg.atomic_policy("crates/obs/src/clock.rs").is_none());
        assert!(cfg.ledger("crates/resilience/src/breaker.rs").is_some());
    }

    #[test]
    fn atomic_validation_catches_bad_policies() {
        for (toml, needle) in [
            (
                "[[atomic]]\npath = \"a.rs\"\nallow = [\"Chaotic\"]\nreason = \"long enough reason\"\n",
                "unknown ordering",
            ),
            (
                "[[atomic]]\npath = \"a.rs\"\nallow = []\nreason = \"long enough reason\"\n",
                "at least one ordering",
            ),
            (
                "[[atomic]]\npath = \"a.rs\"\nreason = \"long enough reason\"\n",
                "missing `allow`",
            ),
            (
                "[[ledger]]\npath = \"a.rs\"\ntypes = []\nreason = \"long enough reason\"\n",
                "at least one type",
            ),
        ] {
            let e = Config::parse(toml, "lint.toml").expect_err(toml);
            assert!(e.to_string().contains(needle), "{toml} -> {e}");
        }
    }

    #[test]
    fn missing_reason_is_rejected() {
        let toml = "[[allow]]\nrule = \"L3-budget\"\npath = \"src/lib.rs\"\n";
        let e = Config::parse(toml, "lint.toml").expect_err("must fail");
        assert!(e.to_string().contains("reason"), "{e}");
        let toml = "[[atomic]]\npath = \"a.rs\"\nallow = [\"Relaxed\"]\n";
        assert!(Config::parse(toml, "lint.toml").is_err());
        let toml = "[[ledger]]\npath = \"a.rs\"\ntypes = [\"T\"]\n";
        assert!(Config::parse(toml, "lint.toml").is_err());
    }

    #[test]
    fn short_reason_is_rejected() {
        let toml = "[[allow]]\nrule = \"L3-budget\"\npath = \"src/lib.rs\"\nreason = \"ok\"\n";
        assert!(Config::parse(toml, "lint.toml").is_err());
    }

    #[test]
    fn unknown_rule_key_and_table_are_rejected() {
        for toml in [
            "[[allow]]\nrule = \"L9-nope\"\npath = \"a\"\nreason = \"long enough reason\"\n",
            "[[allow]]\nrule = \"L3-budget\"\nfile = \"a\"\nreason = \"long enough reason\"\n",
            "[[atomic]]\npath = \"a\"\nallow = [\"Relaxed\"]\norder = \"x\"\nreason = \"long enough reason\"\n",
            "[[ledger]]\npath = \"a\"\nfields = [\"x\"]\nreason = \"long enough reason\"\n",
            "[allowed]\n",
            "rule = \"L3-budget\"\n",
        ] {
            assert!(Config::parse(toml, "lint.toml").is_err(), "{toml}");
        }
    }

    #[test]
    fn bare_values_and_duplicates_are_rejected() {
        for toml in [
            "[[allow]]\nrule = L3-budget\npath = \"a\"\nreason = \"long enough reason\"\n",
            "[[allow]]\nrule = \"L3-budget\"\nrule = \"L3-budget\"\npath = \"a\"\nreason = \"long enough reason\"\n",
            "[[atomic]]\npath = \"a\"\nallow = [\"Relaxed\"]\nallow = [\"Relaxed\"]\nreason = \"long enough reason\"\n",
            "[[atomic]]\npath = \"a\"\nallow = [Relaxed]\nreason = \"long enough reason\"\n",
        ] {
            assert!(Config::parse(toml, "lint.toml").is_err(), "{toml}");
        }
    }

    #[test]
    fn comments_and_escapes_are_honored() {
        let toml = "[[allow]] # trailing comment\nrule = \"L3-budget\" # why not\n\
                    path = \"src/lib.rs\"\nreason = \"the \\\"#\\\" is not a comment here\"\n";
        let cfg = Config::parse(toml, "lint.toml").expect("parses");
        assert!(cfg.allows[0].reason.contains('#'));
    }

    #[test]
    fn pattern_scopes_the_match() {
        let entry = AllowEntry {
            rule: "L2-wall-clock".into(),
            path: "src/lib.rs".into(),
            pattern: "Instant::now".into(),
            reason: "the one audited clock read".into(),
            defined_at: 1,
        };
        let mut finding = Finding {
            rule: "L2-wall-clock",
            path: "src/lib.rs".into(),
            line: 5,
            snippet: "let started = Instant::now();".into(),
            message: String::new(),
        };
        assert!(entry.matches(&finding));
        finding.snippet = "SystemTime::now()".into();
        assert!(!entry.matches(&finding));
        finding.path = "src/other.rs".into();
        assert!(!entry.matches(&finding));
    }
}
