//! Tier-1 gate: the workspace must be free of D004 findings.
//!
//! Runs the `mrvd-lint` scan — D004, float sorts without an id
//! tie-break — and fails on any finding that no `// D004: reason`
//! marker waives, including a stale or reasonless marker. The other
//! determinism rules are rustc and clippy lints (`clippy.toml`,
//! `[workspace.lints]`), gated by CI's
//! `cargo clippy --workspace --all-targets -- -D warnings`. A finding
//! here means either fix the site (add an id tie-break), or end the
//! flagged line with `// D004: <why equal keys cannot change the output>`.

use std::path::Path;

fn scan() -> mrvd_lint::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    mrvd_lint::scan_workspace(root).expect("scan the workspace")
}

#[test]
fn workspace_is_lint_clean() {
    let report = scan();
    assert!(
        report.files_scanned > 100,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    let gating: Vec<_> = report.unsuppressed().collect();
    assert!(
        gating.is_empty(),
        "{} unsuppressed determinism finding(s):\n{}",
        gating.len(),
        gating
            .iter()
            .map(|f| format!("  {}:{}: {} {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The worker pool stays lint-clean with a *pinned* waiver set — empty:
/// nothing in `crates/stats/src/parallel.rs` needs a `// D004:` marker.
/// Growing this list is a reviewable event.
#[test]
fn parallel_module_waiver_set_is_pinned() {
    let report = scan();
    let parallel: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.path == "crates/stats/src/parallel.rs")
        .collect();
    let unsuppressed: Vec<_> = parallel.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(
        unsuppressed.is_empty(),
        "unsuppressed finding(s) in the parallel module: {unsuppressed:?}"
    );
    let waivers: Vec<(String, String)> = parallel
        .iter()
        .map(|f| (f.path.clone(), f.rule.clone()))
        .collect();
    assert_eq!(
        waivers,
        Vec::<(String, String)>::new(),
        "the parallel module's waiver set changed — new waivers need review"
    );
}

/// The engine crate needs no `// D004:` marker: a new one is a
/// reviewable event. (Its two batch wall-clock timers are `#[expect]`s
/// that rustc audits.)
#[test]
fn sim_crate_suppression_set_is_pinned() {
    let report = scan();
    let sim: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.path.starts_with("crates/sim/src/"))
        .collect();
    let unsuppressed: Vec<_> = sim.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(
        unsuppressed.is_empty(),
        "unsuppressed finding(s) in crates/sim/src/: {unsuppressed:?}"
    );
    let suppressed: Vec<(String, String)> = sim
        .iter()
        .filter(|f| f.suppressed.is_some())
        .map(|f| (f.path.clone(), f.rule.clone()))
        .collect();
    assert_eq!(
        suppressed,
        Vec::<(String, String)>::new(),
        "the sim crate's suppression set changed — new waivers need review"
    );
}
