#![warn(missing_docs)]

//! `mrvd-lint` — an offline, dependency-free scan for the one determinism
//! rule the compiler cannot state.
//!
//! Every optimization PR in this repo is shippable only because results
//! stay **byte-identical** to a reference path. The bug classes that
//! invariant keeps catching are statically recognizable, and rustc and
//! clippy check six of the seven with type information; this crate
//! checks the seventh:
//!
//! | rule | pattern | checked by |
//! |------|---------|------------|
//! | D001 | HashMap/HashSet iteration | `clippy.toml` `disallowed-types` |
//! | D002 | `Instant::now`/`SystemTime::now` | `clippy.toml` `disallowed-methods` |
//! | D003 | `thread_rng`/`rand::random`/`from_entropy` | the in-tree `rand` shim has none |
//! | D004 | float comparator sorts without an id tie-break | this crate |
//! | D005 | narrowing casts in spatial region arithmetic | `clippy::cast_possible_truncation` in `mrvd-spatial` |
//! | D006 | `unsafe` | `unsafe_code = "forbid"` in `[workspace.lints]` |
//! | D007 | `{:?}`-formatting hash collections | `clippy.toml` `disallowed-types` |
//!
//! The scan reads one file's token stream at a time, so it parses
//! nothing: the lexer ([`lexer`]) is the only front end.
//!
//! Suppression is explicit and auditable: inline
//! `// lint:allow(D004): reason` pragmas ([`pragma`]) and a checked-in
//! `lint.toml` path allowlist ([`config`]), each requiring a reason;
//! malformed and *unused* suppressions are findings themselves.
//!
//! The gate is the workspace test `tests/lint_clean.rs`, so `cargo test`
//! fails on any unsuppressed finding.
//!
//! ```
//! use mrvd_lint::analyze_source;
//!
//! let analysis = analyze_source(
//!     "crates/demo/src/lib.rs",
//!     "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
//! );
//! assert_eq!(analysis.findings.len(), 1);
//! assert_eq!(analysis.findings[0].rule, "D004");
//! ```

pub mod config;
pub mod engine;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walk;

pub use engine::{
    analyze_source, resolve_suppressions, scan_sources, scan_workspace, FileAnalysis,
};
pub use report::{Finding, Report, Suppression};
