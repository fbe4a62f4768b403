//! Rendering: a human table for terminals and a JSON document for tooling.

use crate::rules::Finding;
use crate::LintOutcome;

/// How a finding fared against the allowlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Finding,
    Allowlisted,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Finding => "FINDING",
            Status::Allowlisted => "allowed",
        }
    }
}

const SNIPPET_WIDTH: usize = 56;

fn clip(s: &str) -> String {
    if s.chars().count() <= SNIPPET_WIDTH {
        return s.to_string();
    }
    let head: String = s.chars().take(SNIPPET_WIDTH.saturating_sub(1)).collect();
    format!("{head}…")
}

/// The human-facing table. `verbose` includes allowlisted rows.
pub fn render_table(outcome: &LintOutcome, verbose: bool) -> String {
    let mut rows: Vec<(Status, &Finding)> = Vec::new();
    rows.extend(outcome.findings.iter().map(|f| (Status::Finding, f)));
    if verbose {
        rows.extend(
            outcome
                .allowlisted
                .iter()
                .map(|(f, _)| (Status::Allowlisted, f)),
        );
    }
    rows.sort_by(|(_, a), (_, b)| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let mut out = String::new();
    if !rows.is_empty() {
        let loc_w = rows
            .iter()
            .map(|(_, f)| f.path.chars().count() + digits(f.line) + 1)
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!(
            "{:<12} {:<10} {:<loc_w$} snippet\n",
            "rule", "status", "location"
        ));
        for (status, f) in &rows {
            out.push_str(&format!(
                "{:<12} {:<10} {:<loc_w$} {}\n",
                f.rule,
                status.as_str(),
                format!("{}:{}", f.path, f.line),
                clip(&f.snippet)
            ));
        }
        out.push('\n');
    }
    for e in &outcome.unused_allows {
        out.push_str(&format!(
            "unused allowlist entry (lint.toml:{}): {} {} — consider removing it\n",
            e.defined_at, e.rule, e.path
        ));
    }
    out.push_str(&format!(
        "{} finding{}, {} allowlisted\n",
        outcome.findings.len(),
        if outcome.findings.len() == 1 { "" } else { "s" },
        outcome.allowlisted.len(),
    ));
    out
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// The machine-facing document: every finding with its status, as one
/// JSON object.
pub fn render_json(outcome: &LintOutcome) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    let mut first = true;
    let mut push_finding = |out: &mut String, f: &Finding, status: Status, reason: Option<&str>| {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"snippet\": {}, \
             \"message\": {}, \"status\": {}{}}}",
            json_string(f.rule),
            json_string(&f.path),
            f.line,
            json_string(&f.snippet),
            json_string(&f.message),
            json_string(status.as_str()),
            match reason {
                Some(r) => format!(", \"allowed_because\": {}", json_string(r)),
                None => String::new(),
            }
        ));
    };
    for f in &outcome.findings {
        push_finding(&mut out, f, Status::Finding, None);
    }
    for (f, reason) in &outcome.allowlisted {
        push_finding(&mut out, f, Status::Allowlisted, Some(reason));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
