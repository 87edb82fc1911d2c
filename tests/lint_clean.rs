//! Tier-1 gate: the workspace must be determinism-lint-clean.
//!
//! Runs the full `mrvd-lint` scan — flat D rules *and* the call-graph C
//! rules over the worker-reachable closure of the `lint.toml [roots]` —
//! and fails on any unsuppressed finding: the same check CI runs and
//! the `mrvd-lint` binary reports. A finding here means either fix the
//! site or add a reasoned `// lint:allow(RULE): …` pragma / `lint.toml`
//! entry (C rules accept pragmas only).

use std::path::Path;

fn scan() -> mrvd_lint::Scan {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    mrvd_lint::scan_workspace(root).expect("scan the workspace")
}

#[test]
fn workspace_is_lint_clean() {
    let report = scan().report;
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

/// The worker pool stays lint-clean with a *pinned* waiver set — now
/// empty: `parallel_map` (the one parallel root) is written without a
/// panic-capable operation, so nothing in its module needs a C waiver.
/// Growing this list is a reviewable event, and nothing in the module
/// may hide behind a `lint.toml` path prefix.
#[test]
fn parallel_module_waiver_set_is_pinned() {
    let report = scan().report;
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

/// The engine crate keeps exactly its two long-standing D002 pragmas
/// (batch wall-clock timers) and nothing else.
#[test]
fn sim_crate_suppression_set_is_pinned() {
    let report = scan().report;
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
        vec![
            ("crates/sim/src/engine.rs".to_string(), "D002".to_string()),
            (
                "crates/sim/src/reference.rs".to_string(),
                "D002".to_string()
            ),
        ],
        "the sim crate's suppression set changed — new waivers need review"
    );
    assert!(
        sim.iter()
            .all(|f| !matches!(&f.suppressed, Some(mrvd_lint::Suppression::Config { .. }))),
        "crates/sim must not be suppressed via lint.toml"
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = scan().report;
    for f in &report.findings {
        if let Some(s) = &f.suppressed {
            let reason = match s {
                mrvd_lint::Suppression::Pragma { reason } => reason,
                mrvd_lint::Suppression::Config { reason, .. } => reason,
            };
            assert!(
                !reason.trim().is_empty(),
                "{}:{}: suppression without a reason",
                f.path,
                f.line
            );
        }
    }
}

/// The JSON artifacts are schema-versioned and the reachable set is
/// sane: the declared root resolves, and the pool's worker loop and its
/// lock helper are inside the closure.
#[test]
fn report_schema_and_reachable_set_are_sane() {
    let scan = scan();
    let json = scan.report.render_json();
    assert!(
        json.contains(&format!(
            "\"schema_version\": {}",
            mrvd_lint::SCHEMA_VERSION
        )),
        "LINT_report.json must carry the schema version"
    );
    let cg = &scan.callgraph_json;
    assert!(cg.contains("\"schema_version\": 1"));
    // No P005: every [roots] fn matched a workspace function.
    assert!(
        !scan.report.findings.iter().any(|f| f.rule == "P005"),
        "stale [roots] entry: {:?}",
        scan.report
            .findings
            .iter()
            .filter(|f| f.rule == "P005")
            .collect::<Vec<_>>()
    );
    assert!(
        cg.contains("\"roots\": [\"parallel_map\"]"),
        "root `parallel_map` missing from callgraph"
    );
    for chain in ["[\"parallel_map\"]", "[\"parallel_map\", \"relock\"]"] {
        assert!(
            cg.contains(&format!("\"chain\": {chain}")),
            "{chain} should be a worker-reachable chain"
        );
    }
}
