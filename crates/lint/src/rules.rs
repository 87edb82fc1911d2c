//! The determinism rule the compiler cannot state: D004, a float
//! comparator sort without an id tie-break.
//!
//! The other six rules of the README's "Determinism lints" table are
//! checked by rustc and clippy with type information (`clippy.toml`, the
//! workspace `[lints]` table and crate attributes). D004 needs to know
//! that a comparator has no tie-break, which no clippy lint states, so it
//! stays a pattern match over one file's lexed token stream, with a
//! reasoned suppression (`// lint:allow(D004): reason` or a `lint.toml`
//! entry) as the escape hatch for false positives.

use crate::lexer::{Lexed, Token, TokenKind};

/// All rule identifiers.
pub const RULES: [&str; 1] = ["D004"];

/// Whether `rule` is a known determinism rule id.
pub fn is_known_rule(rule: &str) -> bool {
    RULES.contains(&rule)
}

/// A rule hit before suppression is applied.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id (`D004`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the concrete hit.
    pub message: String,
}

/// Analysis context for one file.
pub struct FileCtx<'a> {
    /// Lexed source.
    pub lexed: &'a Lexed,
    /// Inclusive line spans of `#[cfg(test)]` modules and `#[test]` fns.
    pub test_spans: &'a [(u32, u32)],
    /// Whether the whole file is test/bench code by path
    /// (`tests/`, `benches/` directory components).
    pub is_test_path: bool,
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.is_test_path || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Detects `#[cfg(test)]`-gated items and `#[test]` functions as inclusive
/// line spans. The span is the attribute line through the closing brace of
/// the next braced item — a heuristic that is exact for the idiomatic
/// `#[cfg(test)] mod tests { … }` / `#[test] fn case() { … }` layouts.
pub fn detect_test_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if !(toks[i].is_punct("#") && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        // Collect the attribute's bracket span.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        let mut saw_not = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
            } else if toks[j].kind == TokenKind::Ident {
                if toks[j].text == "cfg" {
                    saw_cfg = true;
                } else if toks[j].text == "not" {
                    saw_not = true;
                } else if toks[j].text == "test" && (saw_cfg || j == i + 2) {
                    // `#[cfg(test)]` / `#[cfg(all(test, …))]` / bare `#[test]`.
                    is_test_attr = true;
                }
            }
            j += 1;
        }
        // `#[cfg(not(test))]` gates *non*-test code — never a test span.
        if saw_not {
            is_test_attr = false;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the next braced item.
        while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
            let mut d = 1i32;
            let mut k = j + 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct("[") {
                    d += 1;
                } else if toks[k].is_punct("]") {
                    d -= 1;
                }
                k += 1;
            }
            j = k;
        }
        let mut brace = j;
        while brace < toks.len() && !toks[brace].is_punct("{") {
            // An un-braced gated item (e.g. `#[cfg(test)] use …;`) ends at
            // the `;` — span just those lines.
            if toks[brace].is_punct(";") {
                break;
            }
            brace += 1;
        }
        if brace >= toks.len() {
            spans.push((toks[attr_start].line, u32::MAX));
            break;
        }
        if toks[brace].is_punct(";") {
            spans.push((toks[attr_start].line, toks[brace].line));
            i = brace + 1;
            continue;
        }
        let mut d = 1i32;
        let mut k = brace + 1;
        while k < toks.len() && d > 0 {
            if toks[k].is_punct("{") {
                d += 1;
            } else if toks[k].is_punct("}") {
                d -= 1;
            }
            k += 1;
        }
        let end_line = if d == 0 {
            toks[k - 1].line
        } else {
            u32::MAX // unterminated: treat the rest of the file as gated
        };
        spans.push((toks[attr_start].line, end_line));
        i = k;
    }
    spans
}

/// D004 — float comparator sorts without an id tie-break. Covers both
/// the comparator family (`sort_by` & friends: float evidence is a
/// `partial_cmp`/`total_cmp` call without `.then(…)`) and the key family
/// (`sort_by_key` & friends: float evidence is a float-typed key —
/// `f32`/`f64` casts, `to_bits`, `OrderedFloat` — without a tuple key
/// `(float_key, id)` to break ties).
fn check_d004(ctx: &FileCtx<'_>, out: &mut Vec<RawFinding>) {
    if ctx.is_test_path {
        return;
    }
    let toks = &ctx.lexed.tokens;
    const SORTS: [&str; 4] = ["sort_by", "sort_unstable_by", "min_by", "max_by"];
    const KEY_SORTS: [&str; 4] = [
        "sort_by_key",
        "sort_unstable_by_key",
        "min_by_key",
        "max_by_key",
    ];
    const FLOAT_KEY_EVIDENCE: [&str; 6] = [
        "f32",
        "f64",
        "to_bits",
        "total_cmp",
        "partial_cmp",
        "OrderedFloat",
    ];
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let by_key = KEY_SORTS.contains(&toks[i].text.as_str());
        if !by_key && !SORTS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if ctx.in_test(toks[i].line) {
            continue;
        }
        let Some(open) = toks.get(i + 1) else {
            continue;
        };
        if !open.is_punct("(") {
            continue;
        }
        // Span the call's argument list.
        let mut depth = 1i32;
        let mut j = i + 2;
        let mut float_cmp = false;
        let mut tie_break = false;
        let arg_start = j;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("(") {
                depth += 1;
            } else if toks[j].is_punct(")") {
                depth -= 1;
            } else if toks[j].kind == TokenKind::Ident {
                let evidence = if by_key {
                    FLOAT_KEY_EVIDENCE.contains(&toks[j].text.as_str())
                } else {
                    toks[j].text == "partial_cmp" || toks[j].text == "total_cmp"
                };
                if evidence {
                    float_cmp = true;
                } else if toks[j].text == "then" || toks[j].text == "then_with" {
                    tie_break = true;
                }
            }
            j += 1;
        }
        if by_key && tuple_key_tie_break(toks, arg_start, j) {
            tie_break = true;
        }
        if float_cmp && !tie_break {
            let fix = if by_key {
                "a tuple key `(float_key, id)`"
            } else {
                "a `.then(…)` id tie-break"
            };
            out.push(RawFinding {
                rule: "D004",
                line: toks[i].line,
                message: format!(
                    "`{}` keys on floats without {fix}; equal keys will order by input \
                     permutation",
                    toks[i].text
                ),
            });
        }
    }
}

/// Whether a `*_by_key` argument list in `toks[start..end]` is a closure
/// returning a tuple — the `(key, id)` tie-break idiom. Looks for the
/// closure's closing `|` followed by `(` with a comma at that paren's
/// top level.
fn tuple_key_tie_break(toks: &[Token], start: usize, end: usize) -> bool {
    let end = end.min(toks.len());
    let mut bars = 0usize;
    let mut i = start;
    while i < end && bars < 2 {
        if toks[i].is_punct("|") {
            bars += 1;
        }
        i += 1;
    }
    if bars < 2 || i >= end || !toks[i].is_punct("(") {
        return false;
    }
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < end && depth > 0 {
        if toks[j].is_punct("(") || toks[j].is_punct("[") {
            depth += 1;
        } else if toks[j].is_punct(")") || toks[j].is_punct("]") {
            depth -= 1;
        } else if toks[j].is_punct(",") && depth == 1 {
            return true;
        }
        j += 1;
    }
    false
}

/// Runs every rule over one file.
pub fn check_all(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    check_d004(ctx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let spans = detect_test_spans(&lexed);
        check_all(&FileCtx {
            lexed: &lexed,
            test_spans: &spans,
            is_test_path: path.starts_with("tests/"),
        })
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn after() {}\n";
        let spans = detect_test_spans(&lex(src));
        assert_eq!(spans, vec![(2, 5)]);
    }

    #[test]
    fn test_spans_cover_test_fns_and_extra_attrs() {
        let src = "#[test]\n#[ignore]\nfn case() {\n  body();\n}\n";
        let spans = detect_test_spans(&lex(src));
        assert_eq!(spans, vec![(1, 5)]);
    }

    #[test]
    fn d004_requires_a_tie_break() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let hits = run("crates/x/src/a.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "D004");
        let good = "fn f(v: &mut Vec<(f64, u32)>) { v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))); }\n";
        assert!(run("crates/x/src/a.rs", good).is_empty());
        let keyed = "fn f(v: &mut Vec<u32>) { v.sort_by(|a, b| a.cmp(b)); }\n";
        assert!(run("crates/x/src/a.rs", keyed).is_empty());
    }

    #[test]
    fn d004_covers_by_key_float_keys() {
        // Float key without a tie-break: fires for every by_key variant.
        for m in [
            "sort_by_key",
            "sort_unstable_by_key",
            "min_by_key",
            "max_by_key",
        ] {
            let bad = format!("fn f(v: &mut Vec<Trip>) {{ v.{m}(|t| t.cost().to_bits()); }}\n");
            let hits = run("crates/x/src/a.rs", &bad);
            assert_eq!(hits.len(), 1, "{m}: {hits:?}");
            assert_eq!(hits[0].rule, "D004");
        }
        // `as f64` cast evidence also counts.
        let cast = "fn f(v: &mut Vec<Trip>) { v.sort_by_key(|t| (t.len as f64).to_bits()); }\n";
        assert_eq!(run("crates/x/src/a.rs", cast).len(), 1);
        // Tuple key `(float, id)` is the sanctioned tie-break idiom.
        let tuple = "fn f(v: &mut Vec<Trip>) { v.sort_by_key(|t| (t.cost().to_bits(), t.id)); }\n";
        assert!(run("crates/x/src/a.rs", tuple).is_empty());
        // Integer keys are not D004's business.
        let int = "fn f(v: &mut Vec<Trip>) { v.sort_by_key(|t| t.id); }\n";
        assert!(run("crates/x/src/a.rs", int).is_empty());
        // A comma nested inside a call is not a tuple key.
        let nested = "fn f(v: &mut Vec<Trip>) { v.sort_by_key(|t| (t.cost(a, b)).to_bits()); }\n";
        assert_eq!(run("crates/x/src/a.rs", nested).len(), 1);
    }
}
