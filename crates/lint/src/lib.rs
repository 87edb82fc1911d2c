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
//! A false positive is waived where it stands, by a comment that starts
//! with `D004:` and gives a reason, on the line the finding is reported
//! at: `v.sort_by(f64::total_cmp); // D004: bare f64 samples`. A marker
//! on a line with no finding, or one without a reason, is a finding
//! itself, so no waiver outlives the sort it excused.
//!
//! The gate is the workspace test `tests/lint_clean.rs`, so `cargo test`
//! fails on any finding that no marker waives.
//!
//! ```
//! use mrvd_lint::analyze_source;
//!
//! let findings = analyze_source(
//!     "crates/demo/src/lib.rs",
//!     "fn f(v: &mut [f64]) {\n\
//!          v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
//!          v.sort_by(f64::total_cmp); // D004: bare scalars\n\
//!      }",
//! );
//! assert_eq!(findings.len(), 2);
//! assert_eq!((findings[0].line, findings[0].suppressed.as_deref()), (2, None));
//! assert_eq!(
//!     (findings[1].line, findings[1].suppressed.as_deref()),
//!     (3, Some("bare scalars"))
//! );
//! ```

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use engine::{analyze_source, scan_workspace};
pub use report::{Finding, Report};
