//! Shared harness code for the experiment binaries that regenerate the
//! tables and figures of the BAYWATCH paper (see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results).
//!
//! Binaries live in `src/bin/` — one per table/figure:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig05_permutation` | Fig. 5 — permutation-based power threshold |
//! | `fig06_pruning` | Fig. 6 — candidate pruning on a TDSS-style bot |
//! | `fig07_gmm` | Fig. 7 — GMM multi-period detection + BIC |
//! | `fig10_noise` | Fig. 10(a–d) — noise-robustness sweeps |
//! | `fig11_uncertainty` | Fig. 11 — FN vs cases examined |
//! | `table03_volumes` | Table III — data volumes (scaled) |
//! | `table04_confusion` | Table IV — classifier confusion matrix |
//! | `table05_cases` | Table V — example cases in the long trace |
//! | `table06_top5` | Table VI — top-5 cases in the 10-day trace |
//! | `scalability` | §VIII-B2 — runtime vs pair count |
//! | `lm_scores` | §V-C worked example — LM domain scores |
//!
//! Run one with `cargo run --release -p baywatch-bench --bin fig06_pruning`
//! or everything with the `all_experiments` binary.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::io::Write as _;
use std::path::PathBuf;

pub mod bootstrap;

/// Renders a Markdown-style table to a string.
///
/// # Example
///
/// ```
/// let t = baywatch_bench::render_table(
///     &["period", "power"],
///     &[vec!["387.34".into(), "230.1".into()]],
/// );
/// assert!(t.contains("| period "));
/// assert!(t.contains("| 387.34 "));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    let headers_owned: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Where experiment outputs (JSON) are written: `<workspace>/results/`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("BAYWATCH_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Saves a serializable result under `results/<name>.json` and announces
/// the path on stdout. Failures to write are reported, not fatal — the
/// console output is the primary artifact.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Ok(s) = serde_json::to_string_pretty(value) {
                if f.write_all(s.as_bytes()).is_ok() {
                    println!("[saved {}]", path.display());
                    return;
                }
            }
            eprintln!("warning: failed to serialize {name}");
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Formats a float with fixed precision for table cells.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(2.345, 2), "2.35");
        assert_eq!(f(1.0, 0), "1");
    }

    #[test]
    fn save_json_roundtrip() {
        std::env::set_var("BAYWATCH_RESULTS_DIR", std::env::temp_dir().join("bw-test"));
        save_json("unit-test", &vec![1, 2, 3]);
        let path = results_dir().join("unit-test.json");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains('1'));
        std::env::remove_var("BAYWATCH_RESULTS_DIR");
    }
}
