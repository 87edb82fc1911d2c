//! Each determinism rule must fire on its violation fixture — and only
//! on the violating lines. The fixtures live in `crates/lint/fixtures/`
//! (skipped by the workspace walk) and are analyzed here under
//! production-looking relative paths.

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
fn d001_fires_on_hash_iteration_only_outside_tests() {
    let a = analyze_fixture("d001_hash_iteration.rs", "crates/core/src/fixture.rs");
    let lines = gating_lines(&a, "D001");
    // counts.values(), for x in &seen, seen.drain() — the test-module
    // m.keys() must NOT fire.
    assert_eq!(lines, vec![8, 16, 19], "findings: {:#?}", a.findings);
}

#[test]
fn d002_fires_on_wall_clock_and_respects_pragma() {
    let a = analyze_fixture("d002_wall_clock.rs", "crates/core/src/fixture.rs");
    assert_eq!(gating_lines(&a, "D002"), vec![4, 8]);
    // The pragma-covered read is found but suppressed with the reason.
    let suppressed: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "D002" && f.suppressed.is_some())
        .collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 13);
}

#[test]
fn d003_fires_everywhere_including_tests() {
    let a = analyze_fixture("d003_ambient_rng.rs", "crates/core/src/fixture.rs");
    // thread_rng, rand::random, and from_entropy inside #[cfg(test)].
    assert_eq!(gating_lines(&a, "D003"), vec![7, 12, 21]);
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
fn d005_fires_only_under_spatial_paths() {
    let a = analyze_fixture("d005_narrowing_cast.rs", "crates/spatial/src/fixture.rs");
    assert_eq!(gating_lines(&a, "D005"), vec![5, 9]);
    // The same source outside crates/spatial/ is out of scope.
    let elsewhere = analyze_fixture("d005_narrowing_cast.rs", "crates/core/src/fixture.rs");
    assert_eq!(gating_lines(&elsewhere, "D005"), Vec::<u32>::new());
}

#[test]
fn d006_fires_on_undocumented_unsafe() {
    let a = analyze_fixture("d006_unsafe.rs", "crates/core/src/fixture.rs");
    // bad_unsafe fires; good_unsafe has `// SAFETY:` directly above.
    assert_eq!(gating_lines(&a, "D006"), vec![4]);
}

#[test]
fn d007_fires_on_debug_formatted_hash_collections() {
    let a = analyze_fixture("d007_debug_output.rs", "crates/core/src/fixture.rs");
    // println with positional arg and format! with inline capture.
    assert_eq!(gating_lines(&a, "D007"), vec![7, 12]);
    // The D001 on the sorted-iteration line is pragma-suppressed.
    assert_eq!(gating_lines(&a, "D001"), Vec::<u32>::new());
}

#[test]
fn fixtures_under_test_paths_are_exempt_from_non_test_rules() {
    // The same D001 fixture under tests/ produces no D001 at all.
    let a = analyze_fixture("d001_hash_iteration.rs", "crates/core/tests/fixture.rs");
    assert!(a.findings.iter().all(|f| f.rule != "D001"));
    // …but D003 still fires under tests/ (ambient RNG is banned everywhere).
    let b = analyze_fixture("d003_ambient_rng.rs", "crates/core/tests/fixture.rs");
    assert_eq!(gating_lines(&b, "D003").len(), 3);
}

#[test]
fn config_allowlist_suppresses_by_path_prefix_and_rule() {
    let (config, errors) = mrvd_lint::config::parse(
        r#"
[[allow]]
path = "crates/core"
rule = "D002"
reason = "fixture exemption"
"#,
    );
    assert!(errors.is_empty());
    let mut analysis = analyze_source("crates/core/src/fixture.rs", &fixture("d002_wall_clock.rs"));
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
    // A D004-only allow would not have covered these D002 findings.
    let (other, _) = mrvd_lint::config::parse(
        "[[allow]]\npath = \"crates/core\"\nrule = \"D004\"\nreason = \"x\"\n",
    );
    let mut analysis2 =
        analyze_source("crates/core/src/fixture.rs", &fixture("d002_wall_clock.rs"));
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
    let src = "fn f() {\n\
               let t = std::time::Instant::now(); // lint:allow(D002): telemetry\n\
               // lint:allow(D002): second read is telemetry too\n\
               let u = std::time::Instant::now();\n\
               let v = std::time::Instant::now();\n\
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
    // uncovered read on line 5 still gates.
    assert_eq!(gating, vec![5]);
}
