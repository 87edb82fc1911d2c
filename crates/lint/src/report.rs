//! Findings and the aggregate report of one scan.

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
    /// Rule id (`D004`, or `P001` malformed pragma, `P002` unused
    /// pragma, `P003` unused lint.toml allow, `P004` lint.toml error).
    pub rule: String,
    /// Workspace-relative file path (`lint.toml` for config-level
    /// findings).
    pub path: String,
    /// 1-based line in `path`.
    pub line: u32,
    /// What happened.
    pub message: String,
    /// `Some` when suppressed, with the audit trail.
    pub suppressed: Option<Suppression>,
}

/// The aggregate result of one workspace scan.
#[derive(Debug, Default)]
pub struct Report {
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
}
