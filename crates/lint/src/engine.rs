//! Orchestration: walk the workspace, run the flat rules per file,
//! apply suppressions, audit the suppressions themselves.

use std::fs;
use std::path::Path;

use crate::config::{self, Config};
use crate::lexer::lex;
use crate::pragma::{parse_pragmas, Pragma};
use crate::report::{Finding, Report, Suppression};
use crate::rules::{check_all, detect_test_spans, FileCtx};
use crate::walk::{is_test_path, rust_files};

/// Analysis of a single source text, before config-level suppression.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Rule findings (not yet suppression-resolved).
    pub findings: Vec<Finding>,
    /// Parsed pragmas (well-formed and malformed).
    pub pragmas: Vec<Pragma>,
}

/// Lexes and rule-checks one source text. `rel_path` decides
/// path-scoped rules (D005) and path-level test exemption; pass a
/// `tests/`-free path to treat fixture text as production code. The
/// audits that need the whole workspace (unused `lint.toml` entries)
/// run in [`scan_sources`].
pub fn analyze_source(rel_path: &str, source: &str) -> FileAnalysis {
    let lexed = lex(source);
    let test_spans = detect_test_spans(&lexed);
    let ctx = FileCtx {
        rel_path,
        lexed: &lexed,
        test_spans: &test_spans,
        is_test_path: is_test_path(rel_path),
    };
    let findings = check_all(&ctx)
        .into_iter()
        .map(|raw| Finding {
            rule: raw.rule.to_string(),
            path: rel_path.to_string(),
            line: raw.line,
            message: raw.message,
            suppressed: None,
        })
        .collect();
    FileAnalysis {
        findings,
        pragmas: parse_pragmas(&lexed),
    }
}

/// Resolves suppressions for one file's findings in place. Returns, per
/// pragma, whether it suppressed at least one finding; config usage is
/// tracked in `config_used` (parallel to `config.allows`).
pub fn resolve_suppressions(
    findings: &mut [Finding],
    pragmas: &[Pragma],
    config: &Config,
    config_used: &mut [bool],
) -> Vec<bool> {
    let mut pragma_used = vec![false; pragmas.len()];
    for f in findings.iter_mut() {
        // Pragmas win over the allowlist: they are closer to the code.
        for (pi, p) in pragmas.iter().enumerate() {
            if p.error.is_none()
                && p.target_line == Some(f.line)
                && p.rules.iter().any(|r| r == &f.rule)
            {
                f.suppressed = Some(Suppression::Pragma {
                    reason: p.reason.clone(),
                });
                pragma_used[pi] = true;
                break;
            }
        }
        if f.suppressed.is_some() {
            continue;
        }
        for (ai, a) in config.allows.iter().enumerate() {
            if a.covers(&f.path, &f.rule) {
                f.suppressed = Some(Suppression::Config {
                    path: a.path.clone(),
                    reason: a.reason.clone(),
                });
                config_used[ai] = true;
                break;
            }
        }
    }
    pragma_used
}

/// Orders findings by (path, line, rule).
fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
}

/// Runs the full scan over in-memory `(rel_path, source)` pairs: each
/// file is analyzed ([`analyze_source`]) and its suppressions resolved
/// and audited (P001 malformed, P002 unused pragma); then every
/// `lint.toml` entry that suppressed nothing is a P003.
pub fn scan_sources(root_display: &str, files: &[(String, String)], config: &Config) -> Report {
    let mut report = Report {
        root: root_display.to_string(),
        files_scanned: files.len(),
        findings: Vec::new(),
    };
    let mut config_used = vec![false; config.allows.len()];
    for (rel, source) in files {
        let FileAnalysis {
            mut findings,
            pragmas,
        } = analyze_source(rel, source);
        let pragma_used = resolve_suppressions(&mut findings, &pragmas, config, &mut config_used);
        for (p, used) in pragmas.iter().zip(pragma_used) {
            if let Some(err) = &p.error {
                report.findings.push(Finding {
                    rule: "P001".into(),
                    path: rel.clone(),
                    line: p.line,
                    message: format!("malformed pragma: {err}"),
                    suppressed: None,
                });
            } else if !used {
                report.findings.push(Finding {
                    rule: "P002".into(),
                    path: rel.clone(),
                    line: p.line,
                    message: format!(
                        "unused pragma `lint:allow({})` — the finding it excused is gone; \
                         remove it",
                        p.rules.join(", ")
                    ),
                    suppressed: None,
                });
            }
        }
        report.findings.append(&mut findings);
    }
    for (a, used) in config.allows.iter().zip(config_used) {
        if !used {
            report.findings.push(Finding {
                rule: "P003".into(),
                path: "lint.toml".into(),
                line: a.line,
                message: format!(
                    "unused [[allow]] for path `{}` rule {} — the findings it excused are \
                     gone; remove it",
                    a.path, a.rule
                ),
                suppressed: None,
            });
        }
    }
    sort_findings(&mut report.findings);
    report
}

/// Runs the full scan over a workspace root. `lint.toml` at the root is
/// the (optional) allowlist; each of its errors is a P004 at its line.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let (config, config_errors) = match fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => config::parse(&text),
        Err(_) => (Config::default(), Vec::new()),
    };
    let mut files = Vec::new();
    for rel in rust_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    let mut report = scan_sources(&root.display().to_string(), &files, &config);
    for (line, message) in config_errors {
        report.findings.push(Finding {
            rule: "P004".into(),
            path: "lint.toml".into(),
            line,
            message,
            suppressed: None,
        });
    }
    sort_findings(&mut report.findings);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_and_resolve(
        rel: &str,
        src: &str,
        toml: &str,
    ) -> (FileAnalysis, Vec<bool>, Vec<bool>) {
        let (config, errs) = config::parse(toml);
        assert!(errs.is_empty(), "{errs:?}");
        let mut analysis = analyze_source(rel, src);
        let mut config_used = vec![false; config.allows.len()];
        let pragma_used = resolve_suppressions(
            &mut analysis.findings,
            &analysis.pragmas,
            &config,
            &mut config_used,
        );
        (analysis, pragma_used, config_used)
    }

    #[test]
    fn pragma_suppression_round_trip() {
        let src = "fn f() {\n  // lint:allow(D002): batch timing telemetry only\n  let t = std::time::Instant::now();\n}\n";
        let (a, pragma_used, _) = analyze_and_resolve("crates/x/src/a.rs", src, "");
        assert_eq!(a.findings.len(), 1);
        assert!(matches!(
            a.findings[0].suppressed,
            Some(Suppression::Pragma { .. })
        ));
        assert_eq!(pragma_used, vec![true]);
    }

    #[test]
    fn config_suppression_round_trip() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let toml = "[[allow]]\npath = \"crates/x\"\nrule = \"D002\"\nreason = \"demo timing\"\n";
        let (a, _, config_used) = analyze_and_resolve("crates/x/src/a.rs", src, toml);
        assert!(matches!(
            a.findings[0].suppressed,
            Some(Suppression::Config { .. })
        ));
        assert_eq!(config_used, vec![true]);
    }

    #[test]
    fn unrelated_pragma_does_not_suppress() {
        let src = "fn f() {\n  // lint:allow(D001): wrong rule\n  let t = std::time::Instant::now();\n}\n";
        let (a, pragma_used, _) = analyze_and_resolve("crates/x/src/a.rs", src, "");
        assert!(a.findings[0].suppressed.is_none());
        assert_eq!(pragma_used, vec![false]);
    }

    #[test]
    fn pragma_on_wrong_line_does_not_suppress() {
        let src = "// lint:allow(D002): too far away\nfn f() {\n\n  let t = std::time::Instant::now();\n}\n";
        let (a, pragma_used, _) = analyze_and_resolve("crates/x/src/a.rs", src, "");
        assert!(a.findings[0].suppressed.is_none());
        assert_eq!(pragma_used, vec![false]);
    }

    fn scan_one(rel: &str, src: &str, toml: &str) -> Report {
        let (config, errs) = config::parse(toml);
        assert!(errs.is_empty(), "{errs:?}");
        scan_sources("/w", &[(rel.to_string(), src.to_string())], &config)
    }

    #[test]
    fn stale_and_malformed_suppressions_are_p001_p002_p003() {
        let src = "fn f() {
    // lint:allow(D002): batch timing telemetry only
    let t = std::time::Instant::now();
    // lint:allow(D002): the read it excused was deleted
    let u = 1;
    // lint:allow(D002)
    let v = std::time::Instant::now();
}
";
        let toml = "[[allow]]\npath = \"crates/x\"\nrule = \"D001\"\nreason = \"no hash iteration left\"\n";
        let report = scan_one("crates/x/src/a.rs", src, toml);
        let found: Vec<(&str, &str, u32, bool)> = report
            .findings
            .iter()
            .map(|f| {
                (
                    f.rule.as_str(),
                    f.path.as_str(),
                    f.line,
                    f.suppressed.is_some(),
                )
            })
            .collect();
        assert_eq!(
            found,
            vec![
                ("D002", "crates/x/src/a.rs", 3, true),
                ("P002", "crates/x/src/a.rs", 4, false),
                ("P001", "crates/x/src/a.rs", 6, false),
                // A malformed pragma suppresses nothing.
                ("D002", "crates/x/src/a.rs", 7, false),
                ("P003", "lint.toml", 1, false),
            ],
            "{:#?}",
            report.findings
        );
    }
}
