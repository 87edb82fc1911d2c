//! The checked-in `lint.toml`: path allowlist plus call-graph roots.
//!
//! A tiny, dependency-free parser for exactly the shapes the file uses —
//! `#` comments, repeated `[[allow]]` tables of string keys, and one
//! `[roots]` section with repeated `fn` keys:
//!
//! ```toml
//! [[allow]]
//! path = "crates/experiments"
//! rule = "D002"
//! reason = "subcommand timing tables; never feeds simulation state"
//!
//! [roots]
//! fn = "parallel_map"
//! ```
//!
//! `path` is a workspace-relative prefix (forward slashes); `rule` is one
//! of the determinism rule ids; `reason` is mandatory and non-empty.
//! Entries that match no finding are reported as unused — the allowlist
//! must shrink when the code it excuses is fixed. Each `[roots]` `fn`
//! names an entry point (`Type::method` or a bare fn name) whose
//! transitive callees `LINT_callgraph.json` lists as reachable.

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

/// One `[roots]` `fn = "…"` entry: a declared call-graph root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSpec {
    /// `Type::method` or bare fn name to match against the call graph.
    pub name: String,
    /// Line of the entry, for P005 messages.
    pub line: u32,
}

/// Parsed allowlist.
#[derive(Debug, Default)]
pub struct Config {
    /// All `[[allow]]` entries, in file order.
    pub allows: Vec<Allow>,
    /// Declared call-graph roots, in file order.
    pub roots: Vec<RootSpec>,
}

/// Parses `lint.toml` text. Returns the config plus any validation
/// errors (which the engine reports as findings — a broken allowlist
/// must not silently allow anything).
pub fn parse(text: &str) -> (Config, Vec<String>) {
    let mut cfg = Config::default();
    let mut errors = Vec::new();
    let mut current: Option<(Allow, u32)> = None;
    let mut in_roots = false;

    let finish = |entry: Option<(Allow, u32)>, errors: &mut Vec<String>| {
        let (a, line) = entry?;
        if a.path.is_empty() {
            errors.push(format!(
                "lint.toml:{line}: [[allow]] entry is missing `path`"
            ));
        } else if a.rule.is_empty() {
            errors.push(format!(
                "lint.toml:{line}: [[allow]] entry is missing `rule`"
            ));
        } else if !is_known_rule(&a.rule) {
            errors.push(format!("lint.toml:{line}: unknown rule `{}`", a.rule));
        } else if a.reason.trim().is_empty() {
            errors.push(format!(
                "lint.toml:{line}: [[allow]] for `{}` has no `reason` — every \
                 suppression needs one",
                a.path
            ));
        } else {
            return Some(a);
        }
        None
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(a) = finish(current.take(), &mut errors) {
                cfg.allows.push(a);
            }
            in_roots = false;
            current = Some((
                Allow {
                    path: String::new(),
                    rule: String::new(),
                    reason: String::new(),
                    line: lineno,
                },
                lineno,
            ));
            continue;
        }
        if line == "[roots]" {
            if let Some(a) = finish(current.take(), &mut errors) {
                cfg.allows.push(a);
            }
            in_roots = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push(format!("lint.toml:{lineno}: unrecognized line `{line}`"));
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            errors.push(format!(
                "lint.toml:{lineno}: value for `{key}` must be a double-quoted string"
            ));
            continue;
        };
        if in_roots {
            match key {
                "fn" if value.trim().is_empty() => {
                    errors.push(format!("lint.toml:{lineno}: empty `fn` root"));
                }
                "fn" => cfg.roots.push(RootSpec {
                    name: value.to_string(),
                    line: lineno,
                }),
                other => errors.push(format!(
                    "lint.toml:{lineno}: unknown key `{other}` in [roots]"
                )),
            }
            continue;
        }
        let Some((entry, _)) = current.as_mut() else {
            errors.push(format!(
                "lint.toml:{lineno}: `{key}` outside an [[allow]] table"
            ));
            continue;
        };
        match key {
            "path" => entry.path = value.replace('\\', "/"),
            "rule" => entry.rule = value.to_string(),
            "reason" => entry.reason = value.to_string(),
            other => errors.push(format!("lint.toml:{lineno}: unknown key `{other}`")),
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
        assert!(errs[0].contains("reason"));
    }

    #[test]
    fn unknown_rule_and_bad_lines_are_errors() {
        let (_, errs) =
            parse("[[allow]]\npath = \"x\"\nrule = \"D999\"\nreason = \"r\"\nwhat is this\n");
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn unquoted_value_is_an_error() {
        let (_, errs) = parse("[[allow]]\npath = x\nrule = \"D001\"\nreason = \"r\"\n");
        assert!(!errs.is_empty());
    }

    #[test]
    fn roots_section_parses_fns_and_spawn_paths() {
        let (cfg, errs) = parse(
            "[roots]\nfn = \"parallel_map\"\nfn = \"Slots::drain_worker\"\nspawn_path = \"crates/stats/src/parallel.rs\"\n\n[[allow]]\npath = \"x\"\nrule = \"D002\"\nreason = \"r\"\n",
        );
        // `spawn_path` is not a [roots] key: it is an error, and the
        // rest of the file still parses.
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("unknown key `spawn_path`"), "{errs:?}");
        let roots: Vec<&str> = cfg.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(roots, ["parallel_map", "Slots::drain_worker"]);
        assert_eq!(cfg.allows.len(), 1);
    }

    #[test]
    fn c_rules_cannot_be_path_allowlisted() {
        let (cfg, errs) = parse("[[allow]]\npath = \"x\"\nrule = \"C002\"\nreason = \"r\"\n");
        assert!(cfg.allows.is_empty());
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("unknown rule `C002`"), "{errs:?}");
    }

    #[test]
    fn unknown_roots_key_and_empty_fn_are_errors() {
        let (cfg, errs) = parse("[roots]\nfn = \"\"\nwhatever = \"x\"\n");
        assert!(cfg.roots.is_empty());
        assert_eq!(errs.len(), 2, "{errs:?}");
    }
}
