//! Findings and the aggregate report of one scan.

/// One finding: a D004 hit, or a `// D004:` marker that is stale or has
/// no reason. Only a hit can be waived.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`D004`).
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line in `path`.
    pub line: u32,
    /// What happened.
    pub message: String,
    /// The reason of the `// D004: reason` marker that waives the hit,
    /// if one does.
    pub suppressed: Option<String>,
}

/// The aggregate result of one workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, waived or not, in (path, line) order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings that gate the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }
}
