//! The determinism rules.
//!
//! Each rule encodes a bug class that has actually bitten this repo (or
//! was hand-fixed policy-by-policy in a previous PR) — see the README's
//! "Determinism lints" catalog. Rules operate on the lexed token stream
//! of one file; they are deliberately heuristic pattern matchers, with
//! explicit, reasoned suppression (`// lint:allow(rule): reason` or a
//! `lint.toml` entry) as the escape hatch for false positives.

use crate::lexer::{Lexed, Token, TokenKind};

/// All rule identifiers, in catalog order: flat token checks, one file
/// at a time.
pub const RULES: [&str; 7] = ["D001", "D002", "D003", "D004", "D005", "D006", "D007"];

/// One-line summary of a rule, for reports.
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "D001" => "hash-order iteration (HashMap/HashSet) in non-test code",
        "D002" => "wall-clock read (Instant::now/SystemTime::now) in non-test code",
        "D003" => "ambient RNG (thread_rng/rand::random/from_entropy)",
        "D004" => "float comparator sort without an id tie-break",
        "D005" => "narrowing `as u32`/`as usize` cast in spatial region arithmetic",
        "D006" => "`unsafe` without a `// SAFETY:` comment",
        "D007" => "{:?}-formatting a hash collection into output",
        _ => "meta finding",
    }
}

/// Whether `rule` is a known determinism rule id.
pub fn is_known_rule(rule: &str) -> bool {
    RULES.contains(&rule)
}

/// A rule hit before suppression is applied.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id (`D001` … `D007`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the concrete hit.
    pub message: String,
}

/// Analysis context for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
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

/// Methods whose call on a hash collection iterates it in hash order.
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Macros whose output reaches a human or a file (D007 scope). Panic and
/// assertion messages are excluded: they abort the run rather than feed
/// persisted results.
const OUTPUT_MACROS: [&str; 7] = [
    "format", "print", "println", "eprint", "eprintln", "write", "writeln",
];

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: let
/// bindings and typed fields/params (`name: …HashMap<…>`) and direct
/// constructions (`name = HashMap::new()`). Heuristic by design — the
/// engine has no type inference — but it is exactly the shape every
/// hash-typed binding in this workspace takes.
fn collect_hash_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk backward over the type/path tokens to the `:` or `=` that
        // introduced this binding, then take the identifier before it.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 12 {
            j -= 1;
            steps += 1;
            let tj = &toks[j];
            if tj.is_punct(";") || tj.is_punct("{") || tj.is_punct("}") || tj.is_punct(",") {
                break;
            }
            if tj.is_punct(":") || tj.is_punct("=") {
                if j > 0 && toks[j - 1].kind == TokenKind::Ident {
                    let name = toks[j - 1].text.clone();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                break;
            }
        }
    }
    names
}

/// D001 — iteration over a hash-ordered collection in non-test code.
fn check_d001(ctx: &FileCtx<'_>, names: &[String], out: &mut Vec<RawFinding>) {
    if ctx.is_test_path {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        // `name.iter()` / `.keys()` / … with a hash-typed receiver.
        if toks[i].is_punct(".")
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
            && HASH_ITER_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct("(")
            && i > 0
            && toks[i - 1].kind == TokenKind::Ident
            && names.iter().any(|n| n == &toks[i - 1].text)
            && !ctx.in_test(toks[i + 1].line)
        {
            out.push(RawFinding {
                rule: "D001",
                line: toks[i + 1].line,
                message: format!(
                    "`{}.{}()` iterates a hash-ordered collection; convert to \
                     BTreeMap/sorted iteration or justify",
                    toks[i - 1].text,
                    toks[i + 1].text
                ),
            });
        }
        // `for … in &name {` over a hash-typed name.
        if toks[i].is_ident("in") {
            let preceded_by_for = (i.saturating_sub(12)..i).any(|k| toks[k].is_ident("for"));
            if !preceded_by_for {
                continue;
            }
            let mut j = i + 1;
            while j < toks.len() && (toks[j].is_punct("&") || toks[j].is_ident("mut")) {
                j += 1;
            }
            if j + 1 < toks.len()
                && toks[j].kind == TokenKind::Ident
                && names.iter().any(|n| n == &toks[j].text)
                && toks[j + 1].is_punct("{")
                && !ctx.in_test(toks[j].line)
            {
                out.push(RawFinding {
                    rule: "D001",
                    line: toks[j].line,
                    message: format!(
                        "`for … in &{}` iterates a hash-ordered collection; convert to \
                         BTreeMap/sorted iteration or justify",
                        toks[j].text
                    ),
                });
            }
        }
    }
}

/// D002 — wall-clock reads in non-test code.
fn check_d002(ctx: &FileCtx<'_>, out: &mut Vec<RawFinding>) {
    if ctx.is_test_path {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        let clock = toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime");
        if clock
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("now")
            && !ctx.in_test(toks[i].line)
        {
            out.push(RawFinding {
                rule: "D002",
                line: toks[i].line,
                message: format!(
                    "`{}::now()` reads the wall clock; simulation state must come \
                     from event time",
                    toks[i].text
                ),
            });
        }
    }
}

/// D003 — ambient (entropy-seeded) randomness, anywhere incl. tests.
fn check_d003(ctx: &FileCtx<'_>, out: &mut Vec<RawFinding>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let hit = if toks[i].is_ident("thread_rng") || toks[i].is_ident("from_entropy") {
            Some(toks[i].text.clone())
        } else if toks[i].is_ident("rand")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("random")
        {
            Some("rand::random".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(RawFinding {
                rule: "D003",
                line: toks[i].line,
                message: format!("`{what}` is ambient randomness; use an explicit seeded RNG"),
            });
        }
    }
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

/// D005 — `as u32` / `as usize` in the spatial crate's region arithmetic.
fn check_d005(ctx: &FileCtx<'_>, out: &mut Vec<RawFinding>) {
    if ctx.is_test_path || !ctx.rel_path.starts_with("crates/spatial/") {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].is_ident("as")
            && (toks[i + 1].is_ident("u32") || toks[i + 1].is_ident("usize"))
            && !ctx.in_test(toks[i].line)
        {
            out.push(RawFinding {
                rule: "D005",
                line: toks[i].line,
                message: format!(
                    "`as {}` in region arithmetic can truncate silently; use a checked \
                     cast (`try_from`) or justify the range",
                    toks[i + 1].text
                ),
            });
        }
    }
}

/// D006 — `unsafe` without a `// SAFETY:` comment, anywhere incl. tests.
fn check_d006(ctx: &FileCtx<'_>, out: &mut Vec<RawFinding>) {
    let toks = &ctx.lexed.tokens;
    for t in toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(3);
        let documented = ctx
            .lexed
            .comments
            .iter()
            .any(|c| c.line >= lo && c.line <= t.line && c.text.contains("SAFETY:"));
        if !documented {
            out.push(RawFinding {
                rule: "D006",
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment in the 3 lines above".into(),
            });
        }
    }
}

/// D007 — `{:?}`-formatting a hash collection through an output macro.
fn check_d007(ctx: &FileCtx<'_>, names: &[String], out: &mut Vec<RawFinding>) {
    if ctx.is_test_path {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident || !OUTPUT_MACROS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if !(i + 2 < toks.len() && toks[i + 1].is_punct("!") && toks[i + 2].is_punct("(")) {
            continue;
        }
        if ctx.in_test(toks[i].line) {
            continue;
        }
        // Span the macro call.
        let mut depth = 1i32;
        let mut j = i + 3;
        let mut debug_fmt = false;
        let mut culprit: Option<String> = None;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("(") {
                depth += 1;
            } else if toks[j].is_punct(")") {
                depth -= 1;
            } else if toks[j].kind == TokenKind::Str {
                let s = &toks[j].text;
                if s.contains(":?") || s.contains(":#?") {
                    debug_fmt = true;
                    // Inline captures: `{name:?}`.
                    if let Some(name) = inline_debug_capture(s, names) {
                        culprit = Some(name);
                    }
                }
            } else if debug_fmt
                && toks[j].kind == TokenKind::Ident
                && names.iter().any(|n| n == &toks[j].text)
            {
                culprit = Some(toks[j].text.clone());
            }
            j += 1;
        }
        if let Some(name) = culprit {
            out.push(RawFinding {
                rule: "D007",
                line: toks[i].line,
                message: format!(
                    "`{}!` debug-formats hash collection `{}`; its entry order is \
                     nondeterministic — emit sorted entries instead",
                    toks[i].text, name
                ),
            });
        }
    }
}

/// Finds an inline `{name:?}` / `{name:#?}` capture whose `name` is a
/// known hash-typed binding.
fn inline_debug_capture(s: &str, names: &[String]) -> Option<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '{' {
            let mut j = i + 1;
            let mut name = String::new();
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                name.push(chars[j]);
                j += 1;
            }
            let rest: String = chars[j..].iter().take(3).collect();
            if !name.is_empty()
                && (rest.starts_with(":?") || rest.starts_with(":#?"))
                && names.iter().any(|n| n == &name)
            {
                return Some(name);
            }
        }
        i += 1;
    }
    None
}

/// Runs every rule over one file.
pub fn check_all(ctx: &FileCtx<'_>) -> Vec<RawFinding> {
    let names = collect_hash_names(&ctx.lexed.tokens);
    let mut out = Vec::new();
    check_d001(ctx, &names, &mut out);
    check_d002(ctx, &mut out);
    check_d003(ctx, &mut out);
    check_d004(ctx, &mut out);
    check_d005(ctx, &mut out);
    check_d006(ctx, &mut out);
    check_d007(ctx, &names, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
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
            rel_path: path,
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
    fn d001_fires_on_map_iteration_and_for_loops() {
        let src = "fn f() {\n  let m: std::collections::HashMap<u32, u32> = Default::default();\n  for v in m.values() { let _ = v; }\n  for (k, v) in &m { let _ = (k, v); }\n}\n";
        let hits = run("crates/x/src/a.rs", src);
        let d001: Vec<_> = hits.iter().filter(|f| f.rule == "D001").collect();
        assert_eq!(d001.len(), 2, "{hits:?}");
        assert_eq!(d001[0].line, 3);
        assert_eq!(d001[1].line, 4);
    }

    #[test]
    fn d001_ignores_lookups_vecs_and_test_code() {
        // get()/insert() are order-free; Vec::iter is not hash-ordered.
        let src = "fn f() {\n  let m: std::collections::HashMap<u32, u32> = Default::default();\n  let _ = m.get(&1);\n  let v: Vec<u32> = vec![];\n  for x in v.iter() { let _ = x; }\n}\n#[cfg(test)]\nmod tests {\n  fn g() {\n    let m: std::collections::HashSet<u32> = Default::default();\n    for x in m.iter() { let _ = x; }\n  }\n}\n";
        assert!(run("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d002_fires_outside_tests_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n#[cfg(test)]\nmod tests { fn g() { let t = std::time::Instant::now(); } }\n";
        let hits = run("crates/x/src/a.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "D002");
        assert_eq!(hits[0].line, 1);
        assert!(run("tests/a.rs", src).is_empty());
    }

    #[test]
    fn d003_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { fn g() { let r = thread_rng(); let x: u8 = rand::random(); } }\n";
        let hits = run("crates/x/src/a.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.rule == "D003"));
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

    #[test]
    fn d005_fires_only_in_spatial() {
        let src = "fn f(n: usize) -> u32 { n as u32 }\n";
        let hits = run("crates/spatial/src/grid.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "D005");
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn d006_accepts_a_safety_comment() {
        let bad = "fn f() { let p = 0 as *const u8; let _ = p; unsafe { core::ptr::read(p) }; }\n";
        let hits = run("crates/x/src/a.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "D006");
        let good = "fn f(p: *const u8) {\n  // SAFETY: p is valid for reads by contract.\n  unsafe { core::ptr::read(p) };\n}\n";
        assert!(run("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn d007_fires_on_debug_formatted_hash_collections() {
        let src = "fn f() {\n  let m: std::collections::HashMap<u32, u32> = Default::default();\n  println!(\"{:?}\", m);\n  println!(\"{m:?}\");\n  println!(\"{}\", m.len());\n  panic!(\"{:?}\", m);\n}\n";
        let hits = run("crates/x/src/a.rs", src);
        let d007: Vec<_> = hits.iter().filter(|f| f.rule == "D007").collect();
        assert_eq!(d007.len(), 2, "{hits:?}");
        assert_eq!(d007[0].line, 3);
        assert_eq!(d007[1].line, 4);
    }

    #[test]
    fn hash_names_cover_fields_params_and_constructions() {
        let src = "struct S { flows: Vec<HashMap<(u32, u32), f64>> }\nfn f(seen: &mut HashSet<u32>) { let direct = HashMap::new(); }\n";
        let names = collect_hash_names(&lex(src).tokens);
        assert!(names.contains(&"flows".to_string()));
        assert!(names.contains(&"seen".to_string()));
        assert!(names.contains(&"direct".to_string()));
    }
}
