//! Findings, the aggregate report, and its human / JSON renderings.
//!
//! JSON is emitted by hand: the linter is dependency-free by design (it
//! must never drag the code it audits — or the serde shim — into its own
//! build graph).

use std::collections::BTreeMap;

use crate::rules::rule_summary;

/// Schema version stamped into every JSON rendering. Bump when the
/// report shape changes so downstream consumers fail loudly instead of
/// mis-reading fields. Version history: 1 = flat D/P findings; 2 = adds
/// `schema_version` itself, call-graph C rules and per-finding `chain`.
pub const SCHEMA_VERSION: u32 = 2;

/// How a finding was suppressed, if it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Suppression {
    /// An inline `// lint:allow(rule): reason` pragma.
    Pragma {
        /// The pragma's justification text.
        reason: String,
    },
    /// A `lint.toml` `[[allow]]` entry.
    Config {
        /// The entry's path prefix.
        path: String,
        /// The entry's justification text.
        reason: String,
    },
}

/// One finding: a rule hit or a meta problem (malformed/unused
/// suppression, broken allowlist). Meta findings use `P00x` rule ids and
/// cannot themselves be suppressed.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`D001`…`D007`, or `P001` malformed pragma, `P002` unused
    /// pragma, `P003` unused lint.toml allow, `P004` lint.toml error).
    pub rule: String,
    /// Workspace-relative file path (empty for config-level findings).
    pub path: String,
    /// 1-based line (0 for config-level findings).
    pub line: u32,
    /// What happened.
    pub message: String,
    /// `Some` when suppressed, with the audit trail.
    pub suppressed: Option<Suppression>,
    /// For worker-reachability (C-rule) findings: the call chain from a
    /// declared parallel root to the fn containing the finding, as
    /// qualified fn names. Empty for flat rules.
    pub chain: Vec<String>,
}

/// The aggregate result of one workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace root the scan ran over (display only).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, suppressed or not, in (path, line, rule) order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings that gate the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Number of gating findings.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Whether the scan is clean.
    pub fn is_clean(&self) -> bool {
        self.unsuppressed_count() == 0
    }

    /// Per-rule `(total, suppressed)` counts, sorted by rule id.
    pub fn per_rule(&self) -> BTreeMap<String, (usize, usize)> {
        let mut map: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let e = map.entry(f.rule.clone()).or_default();
            e.0 += 1;
            if f.suppressed.is_some() {
                e.1 += 1;
            }
        }
        map
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            if f.path.is_empty() {
                out.push_str(&format!("{}: {}\n", f.rule, f.message));
            } else {
                out.push_str(&format!(
                    "{}:{}: {} {}\n",
                    f.path, f.line, f.rule, f.message
                ));
            }
            if !f.chain.is_empty() {
                out.push_str(&format!("    via {}\n", f.chain.join(" -> ")));
            }
        }
        out.push_str(&format!(
            "\n{} files scanned, {} finding(s), {} suppressed, {} gating\n",
            self.files_scanned,
            self.findings.len(),
            self.findings.len() - self.unsuppressed_count(),
            self.unsuppressed_count(),
        ));
        for (rule, (total, suppressed)) in self.per_rule() {
            out.push_str(&format!(
                "  {rule} ({}): {total} total, {suppressed} suppressed\n",
                rule_summary(&rule),
            ));
        }
        if self.is_clean() {
            out.push_str("lint-clean: every finding carries a reasoned suppression\n");
        }
        out
    }

    /// JSON rendering (stable key order, findings in report order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"root\": {},\n", json_str(&self.root)));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"gating\": {},\n", self.unsuppressed_count()));
        out.push_str("  \"per_rule\": {");
        let per_rule = self.per_rule();
        let mut first = true;
        for (rule, (total, suppressed)) in &per_rule {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {}: {{\"total\": {total}, \"suppressed\": {suppressed}}}",
                json_str(rule)
            ));
        }
        out.push_str(if per_rule.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(&f.rule)));
            out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            if !f.chain.is_empty() {
                let links: Vec<String> = f.chain.iter().map(|c| json_str(c)).collect();
                out.push_str(&format!("\"chain\": [{}], ", links.join(", ")));
            }
            match &f.suppressed {
                None => out.push_str("\"suppressed\": null}"),
                Some(Suppression::Pragma { reason }) => out.push_str(&format!(
                    "\"suppressed\": {{\"by\": \"pragma\", \"reason\": {}}}}}",
                    json_str(reason)
                )),
                Some(Suppression::Config { path, reason }) => out.push_str(&format!(
                    "\"suppressed\": {{\"by\": \"lint.toml\", \"path\": {}, \"reason\": {}}}}}",
                    json_str(path),
                    json_str(reason)
                )),
            }
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str(&format!("  \"clean\": {}\n}}\n", self.is_clean()));
        out
    }
}

/// Minimal JSON string escaping.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            root: "/w".into(),
            files_scanned: 2,
            findings: vec![
                Finding {
                    rule: "D002".into(),
                    path: "crates/sim/src/engine.rs".into(),
                    line: 594,
                    message: "wall clock".into(),
                    suppressed: Some(Suppression::Pragma {
                        reason: "telemetry".into(),
                    }),
                    chain: vec![],
                },
                Finding {
                    rule: "D001".into(),
                    path: "crates/x/src/a.rs".into(),
                    line: 3,
                    message: "hash \"iteration\"".into(),
                    suppressed: None,
                    chain: vec![],
                },
                Finding {
                    rule: "C002".into(),
                    path: "crates/stats/src/parallel.rs".into(),
                    line: 120,
                    message: "panic-capable `.unwrap()`".into(),
                    suppressed: None,
                    chain: vec!["parallel_map".into(), "relock".into()],
                },
            ],
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.unsuppressed_count(), 2);
        assert!(!r.is_clean());
        assert_eq!(r.per_rule()["D002"], (1, 1));
        assert_eq!(r.per_rule()["D001"], (1, 0));
        assert_eq!(r.per_rule()["C002"], (1, 0));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let j = sample().render_json();
        assert!(j.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(j.contains("\"gating\": 2"));
        assert!(j.contains("hash \\\"iteration\\\""));
        assert!(j.contains("\"by\": \"pragma\""));
        assert!(j.contains("\"chain\": [\"parallel_map\", \"relock\"]"));
        assert!(j.contains("\"clean\": false"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn human_rendering_shows_chains() {
        let h = sample().render_human();
        assert!(h.contains("via parallel_map -> relock"));
    }

    #[test]
    fn empty_report_renders() {
        let r = Report {
            root: "/w".into(),
            files_scanned: 0,
            findings: vec![],
        };
        assert!(r.is_clean());
        let j = r.render_json();
        assert!(j.contains("\"findings\": [],"));
        assert!(j.contains("\"clean\": true"));
        assert!(r.render_human().contains("lint-clean"));
    }
}
