#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `mrvd-lint` — an offline, dependency-free determinism static-analysis
//! pass over this workspace's Rust sources.
//!
//! Every optimization PR in this repo is shippable only because results
//! stay **byte-identical** to a reference path. The bug classes that
//! invariant keeps catching are statically recognizable, so this crate
//! machine-checks them on every commit:
//!
//! | rule | pattern | historical bug it encodes |
//! |------|---------|---------------------------|
//! | D001 | HashMap/HashSet iteration in non-test code | hash order leaking into results |
//! | D002 | `Instant::now`/`SystemTime::now` outside timing paths | wall clock feeding simulation state |
//! | D003 | `thread_rng`/`rand::random`/`from_entropy` | ambient randomness breaking replay |
//! | D004 | float comparator sorts without an id tie-break | PR 6's permutation sensitivity |
//! | D005 | `as u32`/`as usize` in spatial region arithmetic | PR 7's `Grid` u32 overflow |
//! | D006 | `unsafe` without `// SAFETY:` | undocumented unsafety |
//! | D007 | `{:?}`-formatting hash collections into output | nondeterministic persisted reports |
//!
//! Each D rule reads one file's token stream at a time, so the scan
//! parses nothing: the lexer ([`lexer`]) is the only front end.
//!
//! Suppression is explicit and auditable: inline
//! `// lint:allow(rule): reason` pragmas ([`pragma`]) and a checked-in
//! `lint.toml` path allowlist ([`config`]), each requiring a reason;
//! malformed and *unused* suppressions are findings themselves.
//!
//! Three enforcement surfaces share this library: the `mrvd-lint` binary
//! (human and `--format json` output), the workspace test
//! `tests/lint_clean.rs` (so `cargo test` is the gate), and the CI `lint`
//! job (which uploads `results/LINT_report.json` and proves the gate
//! fails on an injected violation).
//!
//! ```
//! use mrvd_lint::analyze_source;
//!
//! let analysis = analyze_source(
//!     "crates/demo/src/lib.rs",
//!     "fn f() { let t = std::time::Instant::now(); }",
//! );
//! assert_eq!(analysis.findings.len(), 1);
//! assert_eq!(analysis.findings[0].rule, "D002");
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
pub use report::{Finding, Report, Suppression, SCHEMA_VERSION};
