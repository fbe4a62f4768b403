//! `baywatch-lint` — the workspace invariant linter.
//!
//! BAYWATCH's verdicts are only auditable if a rerun over the same window
//! is byte-identical, and its scale (the paper evaluates 30 billion
//! events) means "rare" hazards fire daily. This crate mechanically
//! enforces the repo's reproducibility catalogue — see [`rules`] for the
//! rule-by-rule story — in one pass: walk, lex, run the rules, apply the
//! per-site suppressions that demand written justification ([`config`]),
//! and fail on whatever is left. A finding is either fixed or allowlisted
//! with a reason; there is no third state.
//!
//! The analysis is a token-level pass (a hand-rolled lexer plus delimiter
//! matching, [`lexer`]/[`syntax`]) extended with a lightweight item parser
//! ([`items`]: `fn`/`impl`/`mod` nesting and per-scope `use` resolution)
//! rather than a full `syn` AST: the linter must build with **zero
//! dependencies** so hermetic and offline builds can always run it. The
//! rules are scope-aware (test code, function bodies, bindings, enclosing
//! impls) but heuristic; the determinism integration tests backstop what
//! lexing cannot see.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod items;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod walk;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use config::{AllowEntry, Config};
use manifest::Manifest;
use rules::{Finding, RuleContext};
use walk::walk_workspace;

/// Everything that can go wrong while linting. I/O failures carry the
/// path; config failures carry file/line context.
#[derive(Debug)]
pub enum LintError {
    Io(PathBuf, std::io::Error),
    Config(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::Config(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Where to lint and against what.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Workspace root. Empty means the current directory.
    pub root: PathBuf,
    /// Allowlist path; `None` means `<root>/lint.toml`, tolerated missing.
    pub config_path: Option<PathBuf>,
    /// Metrics manifest path; `None` means `<root>/METRICS.md`, tolerated
    /// missing (the L6 rule stays off).
    pub manifest_path: Option<PathBuf>,
}

/// The result of a full run.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Unsuppressed findings. Nonempty ⇒ fail.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint.toml`, with the entry's reason.
    pub allowlisted: Vec<(Finding, String)>,
    /// Allowlist entries that matched nothing.
    pub unused_allows: Vec<AllowEntry>,
}

impl LintOutcome {
    /// Clean means nothing unsuppressed was found. (Unused allows are
    /// reported but do not fail the build: they appear exactly when
    /// someone fixes a tolerated finding, and failing on the fix would
    /// punish it.)
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints every source file under `root` and returns the raw findings,
/// path-sorted, with no allowlist applied. Policies and the metrics
/// manifest are loaded from their default locations under `root` so the
/// L5–L7 families run fully armed.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, LintError> {
    let config = load_config(root, None)?;
    let manifest = load_manifest(root, None)?;
    lint_files(root, &config, manifest.as_ref())
}

/// Walks `root` and runs every rule over each file; no allowlist applied.
fn lint_files(
    root: &Path,
    config: &Config,
    manifest: Option<&Manifest>,
) -> Result<Vec<Finding>, LintError> {
    let ctx = RuleContext {
        config: Some(config),
        manifest,
    };
    let files = walk_workspace(root).map_err(|e| LintError::Io(root.to_path_buf(), e))?;
    let mut findings = Vec::new();
    for sf in &files {
        let source =
            fs::read_to_string(&sf.abs_path).map_err(|e| LintError::Io(sf.abs_path.clone(), e))?;
        findings.extend(rules::check_file_with(sf, &source, ctx));
    }
    // Files are walked in sorted order; keep (path, line) order globally.
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// The full pipeline: walk, lint, apply the allowlist.
pub fn run(opts: &LintOptions) -> Result<LintOutcome, LintError> {
    let root = if opts.root.as_os_str().is_empty() {
        Path::new(".")
    } else {
        &opts.root
    };
    let config = load_config(root, opts.config_path.as_deref())?;
    let manifest = load_manifest(root, opts.manifest_path.as_deref())?;

    let mut outcome = LintOutcome::default();
    let mut used = vec![false; config.allows.len()];
    for f in lint_files(root, &config, manifest.as_ref())? {
        match config.allows.iter().position(|entry| entry.matches(&f)) {
            Some(i) => {
                used[i] = true;
                outcome
                    .allowlisted
                    .push((f, config.allows[i].reason.clone()));
            }
            None => outcome.findings.push(f),
        }
    }
    outcome.unused_allows = config
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();
    Ok(outcome)
}

/// Reads `explicit`, or `<root>/<default_name>` when none was named. A
/// missing default file is `None`; a missing *explicit* one is an error
/// (the caller named it, so a typo must not pass silently).
fn read_or_default(
    root: &Path,
    explicit: Option<&Path>,
    default_name: &str,
) -> Result<Option<(PathBuf, String)>, LintError> {
    let path = explicit.map_or_else(|| root.join(default_name), Path::to_path_buf);
    match fs::read_to_string(&path) {
        Ok(text) => Ok(Some((path, text))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && explicit.is_none() => Ok(None),
        Err(e) => Err(LintError::Io(path, e)),
    }
}

fn load_config(root: &Path, explicit: Option<&Path>) -> Result<Config, LintError> {
    match read_or_default(root, explicit, "lint.toml")? {
        Some((path, text)) => Config::parse(&text, &path.display().to_string()),
        None => Ok(Config::default()),
    }
}

fn load_manifest(root: &Path, explicit: Option<&Path>) -> Result<Option<Manifest>, LintError> {
    read_or_default(root, explicit, "METRICS.md")?
        .map(|(_, text)| Manifest::parse(&text).map_err(LintError::Config))
        .transpose()
}
