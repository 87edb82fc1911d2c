//! D004 must fire on its violation fixture — and only on the violating
//! lines. The fixture lives in `crates/lint/fixtures/` (skipped by the
//! workspace walk) and is analyzed here under production-looking
//! relative paths.

use mrvd_lint::{analyze_source, resolve_suppressions, FileAnalysis};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Analyze a fixture under `rel_path` and resolve pragma suppressions
/// (no config allowlist), returning the analysis.
fn analyze_fixture(name: &str, rel_path: &str) -> FileAnalysis {
    let mut analysis = analyze_source(rel_path, &fixture(name));
    let config = mrvd_lint::config::Config::default();
    resolve_suppressions(&mut analysis.findings, &analysis.pragmas, &config, &mut []);
    analysis
}

/// Lines on which `rule` fires unsuppressed.
fn gating_lines(analysis: &FileAnalysis, rule: &str) -> Vec<u32> {
    analysis
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_none())
        .map(|f| f.line)
        .collect()
}

#[test]
fn d004_fires_on_untied_float_sorts_only() {
    let a = analyze_fixture("d004_float_sort.rs", "crates/core/src/fixture.rs");
    // bad_sort and bad_min fire (comparator family); bad_key_sort and
    // bad_key_min fire (by_key family, float-key evidence). good_sort /
    // good_max have `.then` tie-breaks, good_key_sort keys on a
    // `(float, id)` tuple, good_key_int keys on an integer.
    assert_eq!(
        gating_lines(&a, "D004"),
        vec![4, 8, 21, 25],
        "findings: {:#?}",
        a.findings
    );
}

#[test]
fn fixtures_under_test_paths_are_exempt_from_non_test_rules() {
    // The same D004 fixture under tests/ produces no finding at all.
    let a = analyze_fixture("d004_float_sort.rs", "crates/core/tests/fixture.rs");
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
}

#[test]
fn config_allowlist_suppresses_by_path_prefix_and_rule() {
    let (config, errors) = mrvd_lint::config::parse(
        r#"
[[allow]]
path = "crates/core"
rule = "D004"
reason = "fixture exemption"
"#,
    );
    assert!(errors.is_empty());
    let mut analysis = analyze_source("crates/core/src/fixture.rs", &fixture("d004_float_sort.rs"));
    let mut used = vec![false; config.allows.len()];
    resolve_suppressions(
        &mut analysis.findings,
        &analysis.pragmas,
        &config,
        &mut used,
    );
    assert!(used[0], "allow entry must be marked used");
    let still_gating: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .collect();
    assert!(still_gating.is_empty(), "gating: {still_gating:#?}");
    // An allow for another path prefix does not cover these findings.
    let (other, _) = mrvd_lint::config::parse(
        "[[allow]]\npath = \"crates/sim\"\nrule = \"D004\"\nreason = \"x\"\n",
    );
    let mut analysis2 =
        analyze_source("crates/core/src/fixture.rs", &fixture("d004_float_sort.rs"));
    let mut used2 = vec![false; other.allows.len()];
    resolve_suppressions(
        &mut analysis2.findings,
        &analysis2.pragmas,
        &other,
        &mut used2,
    );
    assert!(!used2[0]);
    assert!(analysis2.findings.iter().any(|f| f.suppressed.is_none()));
}

#[test]
fn pragma_round_trip_trailing_and_standalone() {
    let src = "fn f(v: &mut [f64]) {\n\
               v.sort_by(|a, b| a.total_cmp(b)); // lint:allow(D004): bare samples\n\
               // lint:allow(D004): equal keys are identical values\n\
               v.sort_by(|a, b| a.total_cmp(b));\n\
               v.sort_by(|a, b| a.total_cmp(b));\n\
               }\n";
    let mut a = analyze_source("crates/core/src/x.rs", src);
    resolve_suppressions(
        &mut a.findings,
        &a.pragmas,
        &mrvd_lint::config::Config::default(),
        &mut [],
    );
    let gating: Vec<u32> = a
        .findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .map(|f| f.line)
        .collect();
    // Trailing pragma covers line 2, standalone covers line 4; the
    // uncovered sort on line 5 still gates.
    assert_eq!(gating, vec![5]);
}
