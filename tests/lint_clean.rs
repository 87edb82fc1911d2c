//! Tier-1 gate for rule D004: no float sort without an id tie-break.
//!
//! Such a sort lets input order pick among equal keys, which breaks the
//! bit-identical contract. The other determinism rules are rustc and
//! clippy lints (`clippy.toml`, `[workspace.lints]`); no lint can say a
//! comparator lacks a tie-break, so this file scans sources as text:
//!
//! - The walk reads every `.rs` file under the workspace root, sorted,
//!   skipping directories named `target`, `.git`, `results`, `tests`
//!   and `benches` (test code is exempt).
//! - A line's code is its text before the first `//`. The comment after
//!   it is a marker if it is not a doc comment and, trimmed, starts with
//!   `D004:`; the trimmed rest is the reason.
//! - A line `#[cfg(test)]` then a line `mod tests {` opens test code, up
//!   to the next line that is exactly `}`: its code is not scanned, its
//!   markers are still read. Any other shape is scanned.
//! - In the code, joined so a call can span lines, `sort_by`,
//!   `sort_unstable_by`, `min_by` or `max_by` fires when its arguments
//!   name `partial_cmp` or `total_cmp` and neither `then` nor
//!   `then_with`. Their `_key` forms also take `f32`, `f64`, `to_bits`
//!   or `OrderedFloat` as float evidence, and a closure returning a
//!   tuple as a tie-break. The finding is at the line of the name.
//! - A marker waives the findings on its line. One without a reason, or
//!   on a line with no finding, is an unwaivable finding itself.
//!
//! Nothing here tokenizes, so the scan fails closed: a sort in a string
//! literal or a block comment is flagged, a `/* D004: … */` comment
//! waives nothing, and a `#[test]` fn outside `mod tests` is scanned.
//! One hole stays open: a `// D004:` inside a string literal on a
//! flagged line waives it.
//!
//! Fix a finding with an id tie-break, or end the flagged line with
//! `// D004: <why equal keys cannot change the output>`.

use std::fs;
use std::path::Path;

/// Directories the walk never enters.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "results", "tests", "benches"];
/// The comparator sorts; each has a `_key` form.
const SORTS: [&str; 4] = ["sort_by", "sort_unstable_by", "min_by", "max_by"];
/// Float evidence in both forms.
const FLOAT_CMP: [&str; 2] = ["partial_cmp", "total_cmp"];
/// Further float evidence in a `_key` form.
const FLOAT_KEY: [&str; 4] = ["f32", "f64", "to_bits", "OrderedFloat"];

const SORT: &str = "float sort without an id tie-break: add `.then(…)` or a `(key, id)` \
                    tuple key, or end the line with `// D004: <reason>`";
const STALE: &str = "stale `D004:` marker: no finding on its line to waive; remove it";
const REASONLESS: &str =
    "`D004:` marker without a reason; say why equal keys cannot change the output";

/// One finding of [`scan_source`]: its 1-based line, [`SORT`],
/// [`STALE`] or [`REASONLESS`], and the reason of the marker that waives
/// it, if one does. Only a sort can be waived.
type Finding = (usize, &'static str, Option<String>);

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `text` as a whole identifier.
fn has_word(text: &str, word: &str) -> bool {
    text.split(|c: char| !is_ident(c)).any(|w| w == word)
}

/// The text inside the bracket that opens `s`, up to the one that closes
/// it (or the rest of `s`), and whether a comma sits at its top level.
fn group(s: &str) -> (&str, bool) {
    let (mut depth, mut comma) = (0, false);
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' if depth == 1 => return (&s[1..i], comma),
            ')' | ']' => depth -= 1,
            ',' => comma |= depth == 1,
            _ => {}
        }
    }
    (&s[1..], comma)
}

/// D004's findings in one non-test source text, in line order.
fn scan_source(src: &str) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let mut code = String::new();
    let mut markers = Vec::new();
    let mut in_tests = false;
    for (i, &line) in lines.iter().enumerate() {
        let (text, comment) = line.split_once("//").unwrap_or((line, ""));
        if !comment.starts_with(['/', '!']) {
            if let Some(reason) = comment.trim().strip_prefix("D004:") {
                markers.push((i + 1, reason.trim()));
            }
        }
        in_tests |= line == "#[cfg(test)]" && lines.get(i + 1) == Some(&"mod tests {");
        if !in_tests {
            code.push_str(text);
        }
        code.push('\n');
        in_tests &= line != "}";
    }

    let mut findings = Vec::new();
    for name in SORTS {
        for (at, _) in code.match_indices(name) {
            let rest = &code[at + name.len()..];
            let by_key = rest.starts_with("_key");
            let call = rest.strip_prefix("_key").unwrap_or(rest).trim_start();
            if code[..at].ends_with(is_ident) || !call.starts_with('(') {
                continue;
            }
            let args = group(call).0;
            let names = |words: &[&str]| words.iter().any(|w| has_word(args, w));
            // A `_key` closure returning a tuple, `|t| (float_key, id)`.
            let body = args.splitn(3, '|').nth(2).unwrap_or("").trim_start();
            let tuple = body.starts_with('(') && group(body).1;
            let float = names(&FLOAT_CMP) || (by_key && names(&FLOAT_KEY));
            if float && !names(&["then", "then_with"]) && !(by_key && tuple) {
                findings.push((1 + code[..at].matches('\n').count(), SORT, None));
            }
        }
    }

    let mut bad_markers = Vec::new();
    for (line, reason) in markers {
        if reason.is_empty() {
            bad_markers.push((line, REASONLESS, None));
        } else if findings.iter().any(|f| f.0 == line) {
            for f in findings.iter_mut().filter(|f| f.0 == line) {
                f.2 = Some(reason.to_string());
            }
        } else {
            bad_markers.push((line, STALE, None));
        }
    }
    findings.append(&mut bad_markers);
    findings.sort_by_key(|f| f.0);
    findings
}

/// Every `.rs` file the scan reads, workspace-relative, sorted.
fn rust_files() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut files) = (vec![root.to_path_buf()], Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("read a directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                files.push(rel.into_owned());
            }
        }
    }
    files.sort();
    files
}

/// Every finding in the workspace, with its file.
fn scan_workspace() -> Vec<(String, Finding)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for rel in rust_files() {
        let src = fs::read_to_string(root.join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        out.extend(scan_source(&src).into_iter().map(|f| (rel.clone(), f)));
    }
    out
}

#[test]
fn workspace_is_lint_clean() {
    let files = rust_files().len();
    assert!(files > 80, "scan looks truncated: only {files} files");
    let gating: Vec<String> = scan_workspace()
        .into_iter()
        .filter(|(_, (_, _, waiver))| waiver.is_none())
        .map(|(path, (line, message, _))| format!("  {path}:{line}: D004 {message}"))
        .collect();
    assert!(
        gating.is_empty(),
        "{} unwaived D004 finding(s):\n{}",
        gating.len(),
        gating.join("\n")
    );
}

/// Every waived finding in the tree, by path and reason: a new
/// `// D004:` marker anywhere is a reviewable change to this list.
#[test]
fn waiver_set_is_pinned() {
    let waivers: Vec<(String, String)> = scan_workspace()
        .into_iter()
        .filter_map(|(path, (_, _, waiver))| Some((path, waiver?)))
        .collect();
    let expected = [
        (
            "crates/compat/criterion/src/lib.rs",
            "bare f64 samples; equal keys are identical values",
        ),
        ("crates/prediction/src/gbrt.rs", "bare scalars"),
    ];
    assert_eq!(
        waivers,
        expected.map(|(p, r)| (p.to_string(), r.to_string())),
        "the waiver set changed — new waivers need review"
    );
}

#[test]
fn walks_the_workspace_deterministically_and_skips_fixtures() {
    let files = rust_files();
    assert_eq!(files, rust_files());
    for walked in [
        "crates/core/src/lib.rs",
        "benchmark/src/clock.rs",
        "examples/custom_policy.rs",
    ] {
        assert!(files.iter().any(|p| p == walked), "{walked} not walked");
    }
    let skipped = files.iter().filter(|p| {
        p.split('/')
            .any(|c| ["tests", "benches", "target"].contains(&c))
    });
    assert_eq!(skipped.count(), 0, "{files:?}");
}

/// Test and bench files exist across the tree, and the walk reads none.
#[test]
fn test_paths_are_recognized() {
    let (root, files) = (Path::new(env!("CARGO_MANIFEST_DIR")), rust_files());
    for test_file in [
        "tests/lint_clean.rs",
        "crates/scenario/tests/determinism.rs",
        "crates/bench/benches/batch_views.rs",
    ] {
        assert!(root.join(test_file).is_file(), "{test_file} is gone");
        assert!(!files.iter().any(|p| p == test_file), "{test_file} walked");
    }
}

const FIXTURE: &str = "tests/fixtures/d004_float_sort.rs";

/// The lines of `src`'s unwaived findings.
fn gating_lines(src: &str) -> Vec<usize> {
    let gating = scan_source(src).into_iter().filter(|f| f.2.is_none());
    gating.map(|f| f.0).collect()
}

/// Each source must gate on exactly its lines.
fn assert_gating(cases: &[(&str, &[usize])]) {
    for &(src, lines) in cases {
        assert_eq!(gating_lines(src), lines, "{src:?}");
    }
}

/// The fixture must fire on its untied float sorts, and only on those:
/// `bad_*` fire, `good_*` have a `.then` tie-break, a `(float, id)`
/// tuple key or an integer key, and the sort inside its `mod tests`
/// block is test code.
#[test]
fn d004_fires_on_untied_float_sorts_only() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{FIXTURE}: {e}"));
    assert_eq!(
        gating_lines(&src),
        [4, 8, 21, 25, 44, 57],
        "{:#?}",
        scan_source(&src)
    );
}

/// The fixture gates when scanned, but it sits under `tests/`, so the
/// workspace scan never reads it.
#[test]
fn fixtures_under_test_paths_are_exempt_from_non_test_rules() {
    assert!(!rust_files().iter().any(|p| p == FIXTURE));
}

/// The comparator family: a float comparison needs `.then(…)`.
#[test]
fn d004_requires_a_tie_break() {
    assert_gating(&[
        ("v.sort_by(|a, b| a.partial_cmp(b).unwrap());", &[1]),
        (
            "v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));",
            &[],
        ),
        ("v.sort_by(|a, b| a.cmp(b));", &[]),
        ("v.sort_by(|a, b| a.to_bits().cmp(&b.to_bits()));", &[]),
        ("v.sort_by(f64::total_cmp);", &[1]),
        // Names match whole identifiers only.
        ("v.sort_by_cost(|a, b| a.partial_cmp(b));", &[]),
        ("v.sort_by(|a, b| a.partial_cmpx(b));", &[]),
        ("v.sort_by(|a, b| a.total_cmp(b).thenx(c));", &[1]),
        // A call spans lines; the finding is at its name.
        (
            "v.iter()\n    .max_by(|a, b| {\n        a.total_cmp(b)\n    });",
            &[2],
        ),
        (
            "v.sort_by(|a, b| {\n    a.total_cmp(b)\n        .then(c)\n});",
            &[],
        ),
        // Code after the first `//` is a comment; nothing tokenizes, so
        // strings and block comments are code.
        ("let n = 1; // v.sort_by(f64::total_cmp);", &[]),
        ("let s = \"v.sort_by(f64::total_cmp)\";", &[1]),
        ("/* v.sort_by(f64::total_cmp); */", &[1]),
    ]);
}

/// The key family: a float key fires for every variant, unless the
/// closure returns a `(float, id)` tuple.
#[test]
fn d004_covers_by_key_float_keys() {
    assert_gating(&[
        ("v.sort_by_key(|t| t.cost().to_bits());", &[1]),
        ("v.sort_unstable_by_key(|t| t.cost().to_bits());", &[1]),
        ("v.min_by_key(|t| t.cost().to_bits());", &[1]),
        ("v.max_by_key(|t| t.cost().to_bits());", &[1]),
        ("v.sort_by_key(|t| (t.len as f64).to_bits());", &[1]),
        ("v.max_by_key(|t| OrderedFloat(t.cost()));", &[1]),
        ("v.sort_by_key(|t| (t.cost().to_bits(), t.id));", &[]),
        ("v.sort_by_key(|t| t.id);", &[]),
        // A comma nested inside a call is not a tuple key.
        ("v.sort_by_key(|t| (t.cost(a, b)).to_bits());", &[1]),
    ]);
}

/// `#[cfg(test)] mod tests { … }` is test code, up to its `}`.
#[test]
fn test_spans_cover_cfg_test_modules() {
    assert_gating(&[(
        "v.sort_by(f64::total_cmp);\n#[cfg(test)]\nmod tests {\n    v.sort_by(f64::total_cmp);\n}\nv.sort_by(f64::total_cmp);",
        &[1, 6],
    )]);
}

/// No other shape is test code, so the rule fails closed.
#[test]
fn test_fns_outside_mod_tests_are_scanned() {
    assert_gating(&[
        (
            "#[test]\n#[ignore]\nfn case() {\n    v.sort_by(f64::total_cmp);\n}",
            &[4],
        ),
        (
            "#[cfg(test)]\nmod more {\n    v.sort_by(f64::total_cmp);\n}",
            &[3],
        ),
    ]);
}

/// A one-sort function whose line 2 ends with `marker`.
fn sort_line(marker: &str) -> String {
    format!("fn f(v: &mut [f64]) {{\n    v.sort_by(f64::total_cmp); {marker}\n}}\n")
}

/// A marker takes its line's sort from gating to waived, keeping its
/// reason.
#[test]
fn pragma_suppression_round_trip() {
    assert_eq!(gating_lines(&sort_line("")), [2]);
    let waived = (2, SORT, Some("bare scalars".to_string()));
    assert_eq!(scan_source(&sort_line("// D004: bare scalars")), [waived]);
}

#[test]
fn trailing_marker_targets_its_own_line() {
    let src = "fn f(v: &mut [f64]) {
    v.sort_by(f64::total_cmp); // D004: bare scalars
    v.sort_by(f64::total_cmp);
}
";
    let waived = (2, SORT, Some("bare scalars".to_string()));
    assert_eq!(scan_source(src), [waived, (3, SORT, None)]);
}

#[test]
fn pragma_on_wrong_line_does_not_suppress() {
    let src = "fn f(v: &mut [f64]) {
    // D004: the line above a sort is not its line
    v.sort_by(f64::total_cmp);
}
";
    assert_eq!(scan_source(src), [(2, STALE, None), (3, SORT, None)]);
}

/// A marker with no finding to waive, or with no reason, is a finding
/// itself, and a reasonless marker waives nothing. Markers in test code
/// are still read, and can only be stale.
#[test]
fn stale_and_malformed_markers_are_findings() {
    let src = "fn f(v: &mut [f64]) {
    // D004: the sort it excused was deleted
    let n = v.len(); // D004: no sort here
    v.sort_by(f64::total_cmp); // D004:
}
";
    assert_eq!(
        scan_source(src),
        [
            (2, STALE, None),
            (3, STALE, None),
            (4, SORT, None),
            (4, REASONLESS, None),
        ]
    );
    let src = "#[cfg(test)]\nmod tests {\n    v.sort_by(f64::total_cmp); // D004: x\n}\n";
    assert_eq!(scan_source(src), [(3, STALE, None)]);
}

/// A reasonless marker is a finding; a block comment is no marker, so it
/// waives nothing and is no finding either.
#[test]
fn missing_reason_is_a_finding() {
    for marker in ["// D004:", "// D004:   "] {
        let findings = [(2, SORT, None), (2, REASONLESS, None)];
        assert_eq!(scan_source(&sort_line(marker)), findings, "{marker:?}");
    }
    assert_eq!(scan_source(&sort_line("/* D004: */")), [(2, SORT, None)]);
}

/// A `//` comment whose trimmed text starts with `D004:` is a marker,
/// its reason trimmed. Doc comments, comments that mention `D004:`
/// later and, since nothing tokenizes, block comments are not. The open
/// case: `//` inside a string literal starts a comment.
#[test]
fn parses_well_formed_markers() {
    for (marker, reason) in [
        ("// D004: bare scalars", Some("bare scalars")),
        ("//D004:bare scalars  ", Some("bare scalars")),
        ("/* D004: bare scalars */", None),
        ("/// D004: x", None),
        ("//! D004: x", None),
        ("// see D004: x", None),
        ("let s = \"// D004: x\";", Some("x\";")),
    ] {
        let finding = (2, SORT, reason.map(str::to_string));
        assert_eq!(scan_source(&sort_line(marker)), [finding], "{marker:?}");
    }
}

/// The trailing marker waives line 2. The standalone marker on line 3
/// waives nothing and is stale itself, so the sorts on lines 4 and 5
/// still gate.
#[test]
fn pragma_round_trip_trailing_and_standalone() {
    let src = "fn f(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b)); // D004: bare samples
    // D004: equal keys are identical values
    v.sort_by(|a, b| a.total_cmp(b));
    v.sort_by(|a, b| a.total_cmp(b));
}
";
    let waived = (2, SORT, Some("bare samples".to_string()));
    let expected = [waived, (3, STALE, None), (4, SORT, None), (5, SORT, None)];
    assert_eq!(scan_source(src), expected);
}
