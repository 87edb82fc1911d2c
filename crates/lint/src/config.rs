//! The checked-in `lint.toml` path allowlist.
//!
//! A tiny, dependency-free parser for exactly the shapes the file uses —
//! `#` comments and repeated `[[allow]]` tables of string keys:
//!
//! ```toml
//! [[allow]]
//! path = "crates/experiments"
//! rule = "D002"
//! reason = "subcommand timing tables; never feeds simulation state"
//! ```
//!
//! `path` is a workspace-relative prefix (forward slashes); `rule` is one
//! of the determinism rule ids; `reason` is mandatory and non-empty.
//! Entries that match no finding are reported as unused — the allowlist
//! must shrink when the code it excuses is fixed. Any other section
//! header is an error, and it ends the entry before it, so keys under
//! it cannot change that entry.

use crate::rules::is_known_rule;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Workspace-relative path prefix the entry covers.
    pub path: String,
    /// Rule id it suppresses.
    pub rule: String,
    /// Mandatory justification.
    pub reason: String,
    /// Line of the `[[allow]]` header, for error messages.
    pub line: u32,
}

impl Allow {
    /// Whether this entry covers `(path, rule)`.
    pub fn covers(&self, path: &str, rule: &str) -> bool {
        self.rule == rule && path.starts_with(&self.path)
    }
}

/// Parsed allowlist.
#[derive(Debug, Default)]
pub struct Config {
    /// All `[[allow]]` entries, in file order.
    pub allows: Vec<Allow>,
}

/// Parses `lint.toml` text. Returns the config plus any validation
/// errors as `(line, message)` pairs, 1-based (the engine reports them
/// as P004 findings — a broken allowlist must not silently allow
/// anything).
pub fn parse(text: &str) -> (Config, Vec<(u32, String)>) {
    let mut cfg = Config::default();
    let mut errors = Vec::new();
    let mut current: Option<Allow> = None;

    let finish = |entry: Option<Allow>, errors: &mut Vec<(u32, String)>| {
        let a = entry?;
        let message = if a.path.is_empty() {
            "[[allow]] entry is missing `path`".to_string()
        } else if a.rule.is_empty() {
            "[[allow]] entry is missing `rule`".to_string()
        } else if !is_known_rule(&a.rule) {
            format!("unknown rule `{}`", a.rule)
        } else if a.reason.trim().is_empty() {
            format!(
                "[[allow]] for `{}` has no `reason` — every suppression needs one",
                a.path
            )
        } else {
            return Some(a);
        };
        errors.push((a.line, message));
        None
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            if let Some(a) = finish(current.take(), &mut errors) {
                cfg.allows.push(a);
            }
            if line == "[[allow]]" {
                current = Some(Allow {
                    path: String::new(),
                    rule: String::new(),
                    reason: String::new(),
                    line: lineno,
                });
            } else {
                errors.push((lineno, format!("unknown section `{line}`")));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push((lineno, format!("unrecognized line `{line}`")));
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            errors.push((
                lineno,
                format!("value for `{key}` must be a double-quoted string"),
            ));
            continue;
        };
        let Some(entry) = current.as_mut() else {
            errors.push((lineno, format!("`{key}` outside an [[allow]] table")));
            continue;
        };
        match key {
            "path" => entry.path = value.replace('\\', "/"),
            "rule" => entry.rule = value.to_string(),
            "reason" => entry.reason = value.to_string(),
            other => errors.push((lineno, format!("unknown key `{other}`"))),
        }
    }
    if let Some(a) = finish(current.take(), &mut errors) {
        cfg.allows.push(a);
    }
    (cfg, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_prefix_matching() {
        let (cfg, errs) = parse(
            "# allowlist\n[[allow]]\npath = \"crates/experiments\"\nrule = \"D002\"\nreason = \"timing tables\"\n\n[[allow]]\npath = \"examples\"\nrule = \"D002\"\nreason = \"demo printouts\"\n",
        );
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(cfg.allows.len(), 2);
        assert!(cfg.allows[0].covers("crates/experiments/src/delta.rs", "D002"));
        assert!(!cfg.allows[0].covers("crates/experiments/src/delta.rs", "D001"));
        assert!(!cfg.allows[0].covers("crates/sim/src/engine.rs", "D002"));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let (cfg, errs) = parse("[[allow]]\npath = \"x\"\nrule = \"D001\"\n");
        assert!(cfg.allows.is_empty());
        assert_eq!(errs.len(), 1);
        // Reported at the entry's `[[allow]]` header.
        assert_eq!(errs[0].0, 1);
        assert!(errs[0].1.contains("reason"));
    }

    #[test]
    fn unknown_rule_and_bad_lines_are_errors() {
        let (_, errs) =
            parse("[[allow]]\npath = \"x\"\nrule = \"D999\"\nreason = \"r\"\nwhat is this\n");
        let lines: Vec<u32> = errs.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, [5, 1], "{errs:?}");
    }

    #[test]
    fn unquoted_value_is_an_error() {
        let (_, errs) = parse("[[allow]]\npath = x\nrule = \"D001\"\nreason = \"r\"\n");
        assert!(!errs.is_empty());
    }

    #[test]
    fn leftover_roots_section_is_an_error_at_its_line() {
        let (cfg, errs) = parse(
            "[[allow]]\npath = \"x\"\nrule = \"D002\"\nreason = \"r\"\n\n[roots]\nfn = \"parallel_map\"\npath = \"\"\n",
        );
        assert_eq!(
            errs,
            [
                (6, "unknown section `[roots]`".to_string()),
                (7, "`fn` outside an [[allow]] table".to_string()),
                (8, "`path` outside an [[allow]] table".to_string()),
            ]
        );
        // Keys under the unknown section leave the entry above it alone.
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].path, "x");
    }

    #[test]
    fn c_rules_cannot_be_path_allowlisted() {
        let (cfg, errs) = parse("[[allow]]\npath = \"x\"\nrule = \"C002\"\nreason = \"r\"\n");
        assert!(cfg.allows.is_empty());
        assert_eq!(errs.len(), 1);
        assert!(errs[0].1.contains("unknown rule `C002`"), "{errs:?}");
    }
}
