//! D004 must fire on its violation fixture — and only on the violating
//! lines. The fixture lives in `crates/lint/fixtures/` (skipped by the
//! workspace walk) and is analyzed here under production-looking
//! relative paths. A `// D004:` marker must waive only the line it ends.

use mrvd_lint::{analyze_source, Finding};

/// Analyze the D004 fixture under `rel_path`.
fn analyze_fixture(rel_path: &str) -> Vec<Finding> {
    let path = format!("{}/fixtures/d004_float_sort.rs", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    analyze_source(rel_path, &source)
}

#[test]
fn d004_fires_on_untied_float_sorts_only() {
    let findings = analyze_fixture("crates/core/src/fixture.rs");
    // bad_sort and bad_min fire (comparator family); bad_key_sort and
    // bad_key_min fire (by_key family, float-key evidence). good_sort /
    // good_max have `.then` tie-breaks, good_key_sort keys on a
    // `(float, id)` tuple, good_key_int keys on an integer.
    let gating: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "D004" && f.suppressed.is_none())
        .map(|f| f.line)
        .collect();
    assert_eq!(gating, vec![4, 8, 21, 25], "findings: {findings:#?}");
}

#[test]
fn fixtures_under_test_paths_are_exempt_from_non_test_rules() {
    // The same D004 fixture under tests/ produces no finding at all.
    let findings = analyze_fixture("crates/core/tests/fixture.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn pragma_round_trip_trailing_and_standalone() {
    let src = "fn f(v: &mut [f64]) {\n\
               v.sort_by(|a, b| a.total_cmp(b)); // D004: bare samples\n\
               // D004: equal keys are identical values\n\
               v.sort_by(|a, b| a.total_cmp(b));\n\
               v.sort_by(|a, b| a.total_cmp(b));\n\
               }\n";
    let findings = analyze_source("crates/core/src/x.rs", src);
    let gating: Vec<u32> = findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .map(|f| f.line)
        .collect();
    // The trailing marker waives line 2. The standalone marker on line 3
    // waives nothing and is stale itself, so the sorts on lines 4 and 5
    // still gate.
    assert_eq!(gating, vec![3, 4, 5], "{findings:#?}");
    assert_eq!(findings[0].suppressed.as_deref(), Some("bare samples"));
}
