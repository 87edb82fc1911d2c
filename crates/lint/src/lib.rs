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
//! On top of the flat rules, a structural pass ([`parser`] → [`items`] →
//! [`callgraph`] → [`reach`]) recovers every fn, call expression and
//! struct field in the workspace, resolves calls into a call graph, and
//! computes the transitive closure of the parallel roots declared in
//! `lint.toml [roots]` (the worker loop of the `parallel_map` pool). The
//! **C rules** ([`crules`]) then hold that worker-reachable set to a
//! stricter standard:
//!
//! | rule | pattern in worker-reachable code |
//! |------|----------------------------------|
//! | C001 | any D001/D002/D003/D007 hit, even where a path would exempt it |
//! | C002 | panic-capable ops: `unwrap`/`expect`, panic-family macros, slice indexing, narrowing `as` |
//! | C003 | non-`Sync` interior mutability (`RefCell`/`Cell`/…), `static mut`, `thread_local!` |
//! | C004 | atomic load/store/RMW without an explicit `Ordering` argument |
//! | C005 | `thread::spawn` outside the sanctioned pool module |
//!
//! C findings carry the call chain (root → … → offending fn) and are
//! pragma-only: a `lint.toml` path prefix cannot excuse them.
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

pub mod callgraph;
pub mod config;
pub mod crules;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod reach;
pub mod report;
pub mod rules;
pub mod walk;

pub use engine::{
    analyze_source, apply_suppressions, run_workspace, scan_sources, scan_workspace, FileAnalysis,
    Scan,
};
pub use report::{Finding, Report, Suppression, SCHEMA_VERSION};
