//! Workspace traversal: find every `.rs` file under the root and classify
//! it so each rule knows whether it applies.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never descended into: build output, VCS metadata, and the
/// linter's own test fixtures (which contain deliberate violations).
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    ".github",
    "fixtures",
    "results",
    "node_modules",
];

/// The crates whose output feeds ranked, reproducible verdicts. The L2
/// determinism rules apply only here: `mapreduce` schedules real threads
/// and `bench`/`langmodel` never feed the ranked report, so holding them
/// to bit-reproducibility would only breed allowlist noise.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["timeseries", "core", "stats", "netsim", "obs", "resilience"];

/// The crates carrying concurrent state whose atomic orderings must match
/// a declared `[[atomic]]` policy (L5-atomic-ordering): the metrics
/// registry, the resilience state machines, the thread-scheduling engine,
/// and the budgeted detection kernels.
pub const ATOMIC_GOVERNED_CRATES: &[&str] = &["obs", "resilience", "mapreduce", "timeseries"];

/// Hot modules whose unbounded loops must checkpoint an `ExecBudget`: the
/// periodicity-detection kernels a runaway series would otherwise spin in.
pub const BUDGETED_MODULES: &[&str] = &[
    "crates/timeseries/src/periodogram.rs",
    "crates/timeseries/src/permutation.rs",
    "crates/timeseries/src/acf.rs",
    "crates/timeseries/src/gmm.rs",
    "crates/timeseries/src/detector.rs",
];

/// Which part of the workspace a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Library code: `crates/*/src/**` or the umbrella `src/**`, minus
    /// `src/bin/**`.
    Lib,
    /// Binary targets (`src/bin/**`).
    Bin,
    /// Integration tests (`tests/**`).
    Tests,
    /// Benchmarks (`benches/**`).
    Benches,
    /// Examples (`examples/**`).
    Examples,
    /// Anything else (build scripts, fixtures that escaped the skip list).
    Other,
}

/// One workspace source file, with everything rules match on precomputed.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Root-relative path with forward slashes — the stable identity used
    /// in findings and allowlist entries.
    pub rel_path: String,
    /// `Some("timeseries")` for `crates/timeseries/...`, `None` for the
    /// umbrella crate.
    pub crate_name: Option<String>,
    pub section: Section,
}

impl SourceFile {
    pub fn in_deterministic_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
    }

    pub fn is_budgeted_module(&self) -> bool {
        BUDGETED_MODULES.contains(&self.rel_path.as_str())
    }

    pub fn in_atomic_governed_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| ATOMIC_GOVERNED_CRATES.contains(&c))
    }
}

/// Walks `root` and returns every `.rs` file, classified, in a stable
/// (sorted-by-relative-path) order so reports never depend on
/// directory-entry order.
///
/// Symlinks are followed for files and directories alike, but every
/// visited directory is canonicalized into a seen-set first, so a link
/// cycle (`a -> ..`) terminates instead of recursing forever, and a tree
/// reachable twice is only linted once. Dangling links are skipped.
pub fn walk_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut seen_dirs: HashSet<PathBuf> = HashSet::new();
    if let Ok(canon) = fs::canonicalize(root) {
        seen_dirs.insert(canon);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            // `metadata` (unlike `entry.file_type()`) follows symlinks, so
            // a linked dir or file is classified by what it points at; a
            // dangling link errors here and is skipped.
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            if meta.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                let Ok(canon) = fs::canonicalize(&path) else {
                    continue;
                };
                if seen_dirs.insert(canon) {
                    stack.push(path);
                }
            } else if meta.is_file() && name.ends_with(".rs") {
                if let Some(sf) = classify(root, &path) {
                    files.push(sf);
                }
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn classify(root: &Path, path: &Path) -> Option<SourceFile> {
    let rel = path.strip_prefix(root).ok()?;
    let rel_path = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let parts: Vec<&str> = rel_path.split('/').collect();

    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => Some((*name).to_string()),
        _ => None,
    };
    // The path inside the owning crate (or the workspace root for the
    // umbrella crate).
    let local: &[&str] = match parts.as_slice() {
        ["crates", _, rest @ ..] => rest,
        other => other,
    };
    let section = match local {
        ["src", "bin", ..] => Section::Bin,
        ["src", ..] => Section::Lib,
        ["tests", ..] => Section::Tests,
        ["benches", ..] => Section::Benches,
        ["examples", ..] => Section::Examples,
        _ => Section::Other,
    };
    Some(SourceFile {
        abs_path: path.to_path_buf(),
        rel_path,
        crate_name,
        section,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify_rel(rel: &str) -> SourceFile {
        classify(Path::new("/ws"), &Path::new("/ws").join(rel)).expect("classifiable")
    }

    #[test]
    fn sections_and_crates_are_recovered() {
        let f = classify_rel("crates/timeseries/src/gmm.rs");
        assert_eq!(f.crate_name.as_deref(), Some("timeseries"));
        assert_eq!(f.section, Section::Lib);
        assert!(f.in_deterministic_crate());
        assert!(f.is_budgeted_module());

        let f = classify_rel("crates/bench/src/bin/scalability.rs");
        assert_eq!(f.section, Section::Bin);
        assert!(!f.in_deterministic_crate());

        let f = classify_rel("src/lib.rs");
        assert_eq!(f.crate_name, None);
        assert_eq!(f.section, Section::Lib);

        let f = classify_rel("tests/determinism.rs");
        assert_eq!(f.section, Section::Tests);

        let f = classify_rel("crates/bench/benches/periodogram.rs");
        assert_eq!(f.section, Section::Benches);
    }

    fn temp_tree(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lint-walk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp tree");
        dir
    }

    #[test]
    fn visit_order_is_sorted_regardless_of_creation_order() {
        let root = temp_tree("order");
        // Create files in an order unlikely to match either name order or
        // typical directory-entry order.
        for rel in [
            "zz/src/last.rs",
            "src/mid.rs",
            "aa/src/first.rs",
            "src/aaa.rs",
        ] {
            let p = root.join(rel);
            fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            fs::write(&p, "fn f() {}\n").expect("write");
        }
        let rels =
            |files: &[SourceFile]| files.iter().map(|f| f.rel_path.clone()).collect::<Vec<_>>();
        let first = rels(&walk_workspace(&root).expect("walk"));
        let mut expected = first.clone();
        expected.sort();
        assert_eq!(first, expected, "output is sorted");
        // Re-walking (fresh read_dir traversal) yields the identical list.
        let second = rels(&walk_workspace(&root).expect("walk again"));
        assert_eq!(first, second);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn target_and_hidden_dirs_are_skipped() {
        let root = temp_tree("skip");
        for rel in [
            "src/kept.rs",
            "target/debug/build/generated.rs",
            ".hidden/sneaky.rs",
            "fixtures/planted.rs",
        ] {
            let p = root.join(rel);
            fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            fs::write(&p, "fn f() {}\n").expect("write");
        }
        let files = walk_workspace(&root).expect("walk");
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].rel_path, "src/kept.rs");
        let _ = fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn symlink_cycles_terminate_and_dedup() {
        let root = temp_tree("cycle");
        fs::create_dir_all(root.join("src")).expect("mkdir");
        fs::write(root.join("src/real.rs"), "fn f() {}\n").expect("write");
        // A self-referential loop: src/loop -> .. (the root), which
        // contains src again.
        std::os::unix::fs::symlink("..", root.join("src/loopback")).expect("symlink");
        // And a dangling link, which must be skipped silently.
        std::os::unix::fs::symlink("missing.rs", root.join("src/dangling.rs")).expect("symlink");
        let files = walk_workspace(&root).expect("walk terminates");
        assert_eq!(
            files
                .iter()
                .filter(|f| f.rel_path.ends_with("real.rs"))
                .count(),
            1,
            "the looped-to tree is visited once: {files:?}"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resilience_is_held_to_determinism_rules() {
        // The breaker/retry/admission state machines feed reproducible
        // soak assertions: the crate must stay in the L2 determinism set.
        assert!(DETERMINISTIC_CRATES.contains(&"resilience"));
        let f = classify_rel("crates/resilience/src/breaker.rs");
        assert!(f.in_deterministic_crate());
    }
}
