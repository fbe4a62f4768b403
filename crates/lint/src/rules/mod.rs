//! The invariant catalogue: one module per rule family.
//!
//! | id                   | guards                                                    |
//! |----------------------|-----------------------------------------------------------|
//! | `L1-float-ord`       | float comparators must be total (`total_cmp`)             |
//! | `L2-ambient-rng`     | no ambient randomness in deterministic crates             |
//! | `L2-wall-clock`      | no wall-clock reads in deterministic crates               |
//! | `L2-ambient-fs`      | no unaudited filesystem access there either               |
//! | `L2-hash-iter`       | no order-observing hash-container iteration there either  |
//! | `L3-budget`          | unbounded loops in hot modules must checkpoint a budget   |
//! | `L5-atomic-ordering` | atomic `Ordering`s must match the module's declared policy|
//! | `L6-metric-registry` | metric/span names must match the committed manifest       |
//! | `L7-ledger-arith`    | no lossy arithmetic on declared accounting ledgers        |
//!
//! Every rule matches token sequences from [`crate::lexer`] inside scopes
//! recovered by [`crate::syntax`] — never raw text — so comments, doc
//! examples, and string literals cannot produce findings. The L5–L7
//! families additionally consult the item index ([`crate::items`]): scope
//! nesting, `use` resolution, and enclosing-impl lookup.

pub mod atomics;
pub mod budget;
pub mod determinism;
pub mod float_ord;
pub mod ledger;
pub mod metrics;

use crate::config::Config;
use crate::items::ItemIndex;
use crate::lexer::lex;
use crate::manifest::Manifest;
use crate::syntax::File;
use crate::walk::{Section, SourceFile};

/// Every rule id the linter knows, in report order. Allowlist entries are
/// validated against this list so a typo cannot silently suppress nothing.
pub const RULE_IDS: &[&str] = &[
    "L1-float-ord",
    "L2-ambient-rng",
    "L2-wall-clock",
    "L2-ambient-fs",
    "L2-hash-iter",
    "L3-budget",
    "L5-atomic-ordering",
    "L6-metric-registry",
    "L7-ledger-arith",
];

/// One violation of the invariant catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-indexed line of the offending token.
    pub line: u32,
    /// The trimmed source line — the human anchor, and what an allowlist
    /// entry's `pattern` is matched against.
    pub snippet: String,
    /// What is wrong and how to fix it.
    pub message: String,
}

/// Configuration the symbol-resolved rules (L5–L7) read: the declared
/// atomic policies and ledger types from `lint.toml`, and the metrics
/// manifest. With everything `None`, those rules fall back to their
/// undeclared-state behaviour (L5 flags governed modules with no policy;
/// L6 and L7 stay off).
#[derive(Default, Clone, Copy)]
pub struct RuleContext<'a> {
    pub config: Option<&'a Config>,
    pub manifest: Option<&'a Manifest>,
}

/// Runs every applicable rule over one source file with an empty context
/// (policy-free L5, no manifest). Kept for callers and tests that only
/// exercise the token-level rules.
pub fn check_file(sf: &SourceFile, source: &str) -> Vec<Finding> {
    check_file_with(sf, source, RuleContext::default())
}

/// Runs every applicable rule over one source file.
pub fn check_file_with(sf: &SourceFile, source: &str, ctx: RuleContext<'_>) -> Vec<Finding> {
    let file = File::parse(lex(source));
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();

    // L1 applies everywhere a comparator could leak into an ordering —
    // including tests and benches, whose assertions encode expected ranked
    // output.
    float_ord::check(sf, &file, &lines, &mut findings);

    // L2 guards the crates whose output must be byte-reproducible.
    if sf.in_deterministic_crate() && sf.section == Section::Lib {
        determinism::check(sf, &file, &lines, &mut findings);
    }

    // L3 guards the hot detection kernels.
    if sf.is_budgeted_module() {
        budget::check(sf, &file, &lines, &mut findings);
    }

    // L5–L7 need the item index; build it once, only when a family will
    // actually consult it.
    let wants_l5 = sf.in_atomic_governed_crate() && sf.section == Section::Lib;
    let ledger_decl = ctx
        .config
        .and_then(|c| c.ledger(&sf.rel_path))
        .filter(|_| sf.section == Section::Lib);
    let wants_l6 = ctx.manifest.is_some() && sf.section == Section::Lib;
    if wants_l5 || wants_l6 || ledger_decl.is_some() {
        let items = ItemIndex::build_for(&file);
        if wants_l5 {
            let policy = ctx.config.and_then(|c| c.atomic_policy(&sf.rel_path));
            atomics::check(sf, &file, &items, &lines, policy, &mut findings);
        }
        if let Some(manifest) = ctx.manifest.filter(|_| wants_l6) {
            metrics::check(sf, &file, source, &lines, manifest, &mut findings);
        }
        if let Some(decl) = ledger_decl {
            ledger::check(sf, &file, &items, &lines, decl, &mut findings);
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    // Nested `fn` items are visited once per enclosing scope; identical
    // findings collapse here.
    findings.dedup();
    findings
}

/// The trimmed source line a token sits on (1-indexed), for snippets.
pub(crate) fn snippet_at(lines: &[&str], line: u32) -> String {
    lines
        .get(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}
