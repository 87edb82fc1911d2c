//! Orchestration: walk the workspace, run the rule per file, and apply
//! the `// D004: reason` markers that waive its findings.

use std::fs;
use std::path::Path;

use crate::lexer::lex;
use crate::report::{Finding, Report};
use crate::rules::{check_all, detect_test_spans, FileCtx};
use crate::walk::{is_test_path, rust_files};

/// The text a waiver comment starts with.
const MARKER: &str = "D004:";

/// Lexes and rule-checks one source text, in line order. A comment
/// whose text starts with `D004:` waives the findings on its own line
/// and keeps its reason; a marker with no finding on its line, or with
/// no reason, is a finding itself, and nothing waives it. `rel_path`
/// decides the path-level test exemption; pass a `tests/`-free path to
/// treat fixture text as production code.
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let test_spans = detect_test_spans(&lexed);
    let ctx = FileCtx {
        lexed: &lexed,
        test_spans: &test_spans,
        is_test_path: is_test_path(rel_path),
    };
    let finding = |rule: &str, line, message| Finding {
        rule: rule.to_string(),
        path: rel_path.to_string(),
        line,
        message,
        suppressed: None,
    };
    let mut findings: Vec<Finding> = check_all(&ctx)
        .into_iter()
        .map(|raw| finding(raw.rule, raw.line, raw.message))
        .collect();
    let mut bad_markers = Vec::new();
    for c in &lexed.comments {
        let Some(reason) = c.text.strip_prefix(MARKER).map(str::trim) else {
            continue;
        };
        let message = if reason.is_empty() {
            "`D004:` marker without a reason; say why equal keys cannot change the output"
        } else if findings.iter().any(|f| f.line == c.line) {
            for f in findings.iter_mut().filter(|f| f.line == c.line) {
                f.suppressed = Some(reason.to_string());
            }
            continue;
        } else {
            "stale `D004:` marker: no finding on its line to waive; remove it"
        };
        bad_markers.push(finding("D004", c.line, message.to_string()));
    }
    findings.append(&mut bad_markers);
    findings.sort_by_key(|f| f.line);
    findings
}

/// Scans every `.rs` file under a workspace root ([`rust_files`]) with
/// [`analyze_source`].
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let files = rust_files(root)?;
    let mut report = Report {
        files_scanned: files.len(),
        findings: Vec::new(),
    };
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        report.findings.extend(analyze_source(&rel, &source));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(line, waiver reason, kind)` of each finding `src` yields.
    fn kinds(src: &str) -> Vec<(u32, Option<String>, &'static str)> {
        analyze_source("crates/x/src/a.rs", src)
            .into_iter()
            .map(|f| {
                let kind = if f.message.starts_with("stale") {
                    "stale marker"
                } else if f.message.contains("without a reason") {
                    "reasonless marker"
                } else {
                    "sort"
                };
                (f.line, f.suppressed, kind)
            })
            .collect()
    }

    /// The `// D004:` marker is the scan's one waiver pragma: it takes
    /// a sort's finding from gating to waived, keeping its reason.
    #[test]
    fn pragma_suppression_round_trip() {
        let src = "fn f(v: &mut [f64]) {
    v.sort_by(f64::total_cmp); // D004: equal keys are identical values
}
";
        let reason = Some("equal keys are identical values".to_string());
        assert_eq!(kinds(src), [(2, reason, "sort")]);
    }

    #[test]
    fn trailing_marker_targets_its_own_line() {
        let src = "fn f(v: &mut [f64]) {
    v.sort_by(f64::total_cmp); // D004: bare scalars
    v.sort_by(f64::total_cmp);
}
";
        assert_eq!(
            kinds(src),
            [
                (2, Some("bare scalars".to_string()), "sort"),
                (3, None, "sort"),
            ]
        );
    }

    #[test]
    fn pragma_on_wrong_line_does_not_suppress() {
        let src = "fn f(v: &mut [f64]) {
    // D004: the line above a sort is not its line
    v.sort_by(f64::total_cmp);
}
";
        assert_eq!(kinds(src), [(2, None, "stale marker"), (3, None, "sort")]);
    }

    /// A marker with no finding to waive, or with no reason, is a
    /// finding itself, and a reasonless marker waives nothing.
    #[test]
    fn stale_and_malformed_markers_are_findings() {
        let src = "fn f(v: &mut [f64]) {
    // D004: the sort it excused was deleted
    let n = v.len(); // D004: no sort here
    v.sort_by(f64::total_cmp); // D004:
}
";
        assert_eq!(
            kinds(src),
            [
                (2, None, "stale marker"),
                (3, None, "stale marker"),
                (4, None, "sort"),
                (4, None, "reasonless marker"),
            ]
        );
    }

    #[test]
    fn missing_reason_is_a_finding() {
        for marker in ["// D004:", "// D004:   ", "/* D004: */"] {
            let src =
                format!("fn f(v: &mut [f64]) {{\n    v.sort_by(f64::total_cmp); {marker}\n}}\n");
            assert_eq!(
                kinds(&src),
                [(2, None, "sort"), (2, None, "reasonless marker")],
                "{marker:?}"
            );
        }
    }

    /// A plain line or block comment starting with `D004:` is a marker,
    /// its reason trimmed; a doc comment, a string literal, or a comment
    /// that only mentions `D004:` later on is not.
    #[test]
    fn parses_well_formed_markers() {
        let sort = "v.sort_by(f64::total_cmp);";
        for (marker, reason) in [
            ("// D004: bare scalars", Some("bare scalars")),
            ("//D004:bare scalars  ", Some("bare scalars")),
            ("/* D004: bare scalars */", Some("bare scalars")),
            ("/// D004: x", None),
            ("//! D004: x", None),
            ("// see D004: x", None),
            ("let s = \"// D004: x\";", None),
        ] {
            let src = format!("fn f(v: &mut [f64]) {{\n    {sort} {marker}\n}}\n");
            let reason = reason.map(str::to_string);
            assert_eq!(kinds(&src), [(2, reason, "sort")], "{marker:?}");
        }
    }
}
