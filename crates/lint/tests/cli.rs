//! The `mrvd-lint` binary's exit codes, which CI gates on: 0 when the
//! workspace is lint-clean, 1 on an unsuppressed finding, 2 on a usage
//! error. Each test lints its own tiny workspace under the Cargo target
//! tmpdir, so tests never share files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh workspace named `name` whose only source file is
/// `crates/x/src/lib.rs` with `lib_rs` as its text.
fn workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-cli-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/x/src")).expect("create the workspace");
    std::fs::write(root.join("crates/x/src/lib.rs"), lib_rs).expect("write lib.rs");
    root
}

fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrvd-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run mrvd-lint")
}

#[test]
fn clean_workspace_exits_0() {
    let root = workspace("clean", "pub fn f() -> u32 {\n    1\n}\n");
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn injected_wall_clock_read_exits_1_with_its_d002_line() {
    let root = workspace(
        "d002",
        "fn canary() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("crates/x/src/lib.rs:1: D002")),
        "{stdout}"
    );
}

#[test]
fn removed_callgraph_flag_is_a_usage_error() {
    let root = workspace("callgraph", "pub fn f() {}\n");
    let out = lint(
        &root,
        &["--callgraph", &root.join("out.json").to_string_lossy()],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!root.join("out.json").exists());
}
