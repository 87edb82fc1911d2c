//! The C-rule family: parallel-purity checks over the worker-reachable
//! closure.
//!
//! PR 9's parallel shard drain is byte-identical only while nothing a
//! worker thread can reach consults ambient order, panics mid-barrier,
//! or mutates shared state outside the sanctioned `Mutex`/atomic
//! protocol. These rules enforce that contract over the closure
//! computed by [`crate::reach`] from the `lint.toml [roots]`:
//!
//! | rule | pattern |
//! |------|---------|
//! | C001 | a D001–D003/D007 hit inside a worker-reachable fn (errors even where a `lint.toml` path exemption would cover the D-rule) |
//! | C002 | panic-capable site in a worker-reachable fn: `unwrap`/`expect`, `panic!`-family macros, slice indexing, narrowing integer `as` casts |
//! | C003 | interior mutability (`RefCell`/`Cell`/`UnsafeCell`/`OnceCell`/`LazyCell`) in a worker-reachable fn, or `static mut`/`thread_local!` in a file with worker-reachable code |
//! | C004 | atomic op without an explicit `Ordering::…` argument |
//! | C005 | thread spawn outside the sanctioned pool module(s) (`[roots] spawn_path`) |
//!
//! Every reachability-scoped finding carries the call chain
//! (root → … → containing fn). C-rule findings can only be waived by an
//! inline `// lint:allow(C00x): reason` pragma — `lint.toml` path
//! entries do not apply, so a waiver is always visible at the site it
//! excuses.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::rules::{check_all, FileCtx};

/// Integer targets an `as` cast can narrow into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Panic-family macros (assertions excluded: `debug_assert!` compiles
/// out in release and `assert!` states an invariant, not a code path).
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Interior-mutability type names (C003). `Mutex`/`RwLock`/`Atomic*`
/// are the sanctioned protocol and excluded by design.
const INTERIOR_MUT: [&str; 5] = ["RefCell", "Cell", "UnsafeCell", "OnceCell", "LazyCell"];

/// Atomic method names that always take an `Ordering` argument.
fn is_atomic_strong(name: &str) -> bool {
    name.starts_with("fetch_") || name.starts_with("compare_exchange")
}

/// Atomic method names shared with non-atomic std types — these need
/// receiver evidence before C004 applies.
const ATOMIC_WEAK: [&str; 3] = ["load", "store", "swap"];

/// Explicit-ordering evidence inside an argument list.
const ORDERINGS: [&str; 6] = [
    "Ordering", "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst",
];

/// One fn's span in a file, with its reachability verdict and chain.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// First line of the fn.
    pub line: u32,
    /// Last line of the body.
    pub end_line: u32,
    /// Whether the fn is worker-reachable.
    pub reachable: bool,
    /// Call chain root → … → this fn (qualified names; empty when not
    /// reachable).
    pub chain: Vec<String>,
}

/// Context for the C-rule pass over one file.
pub struct CRuleCtx<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Lexed source.
    pub lexed: &'a Lexed,
    /// Test line spans.
    pub test_spans: &'a [(u32, u32)],
    /// Whether the file is test code by path.
    pub is_test_path: bool,
    /// Every fn span in this file (reachable or not), so sites inside a
    /// nested non-reachable fn are not charged to the enclosing one.
    pub fn_spans: &'a [FnSpan],
    /// Whether any `[roots]` were declared (C005 is meaningless without
    /// a sanctioned-pool declaration).
    pub has_roots: bool,
    /// Path prefixes where spawning threads is sanctioned.
    pub spawn_ok: &'a [String],
}

/// A C-rule hit, pre-suppression.
#[derive(Debug, Clone)]
pub struct CFinding {
    /// Rule id (`C001` … `C005`).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// What happened.
    pub message: String,
    /// Call chain root → … → containing fn (empty for C005).
    pub chain: Vec<String>,
}

impl CRuleCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.is_test_path || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// The innermost fn span containing `line`, when that fn is
    /// worker-reachable: returns its chain.
    fn reachable_chain(&self, line: u32) -> Option<&[String]> {
        self.fn_spans
            .iter()
            .filter(|s| s.line <= line && line <= s.end_line)
            .max_by_key(|s| s.line)
            .filter(|s| s.reachable)
            .map(|s| s.chain.as_slice())
    }

    fn any_reachable(&self) -> bool {
        self.fn_spans.iter().any(|s| s.reachable)
    }
}

/// Run C001–C005 over one file.
pub fn check_file(ctx: &CRuleCtx<'_>) -> Vec<CFinding> {
    let mut out = Vec::new();
    check_c001(ctx, &mut out);
    check_c002(ctx, &mut out);
    check_c003(ctx, &mut out);
    check_c004(ctx, &mut out);
    check_c005(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn push(out: &mut Vec<CFinding>, rule: &'static str, line: u32, message: String, chain: &[String]) {
    out.push(CFinding {
        rule,
        line,
        message,
        chain: chain.to_vec(),
    });
}

/// C001 — D001/D002/D003/D007 hits inside worker-reachable fns become
/// their own findings, immune to `lint.toml` path exemptions.
fn check_c001(ctx: &CRuleCtx<'_>, out: &mut Vec<CFinding>) {
    if !ctx.any_reachable() {
        return;
    }
    // Re-run the order/clock/RNG/debug-format rules with the path
    // exemption off — worker-reachable code gets no path passes.
    let dctx = FileCtx {
        rel_path: ctx.rel_path,
        lexed: ctx.lexed,
        test_spans: ctx.test_spans,
        is_test_path: false,
    };
    for raw in check_all(&dctx) {
        if !matches!(raw.rule, "D001" | "D002" | "D003" | "D007") {
            continue;
        }
        if let Some(chain) = ctx.reachable_chain(raw.line) {
            push(
                out,
                "C001",
                raw.line,
                format!("worker-reachable {} violation: {}", raw.rule, raw.message),
                chain,
            );
        }
    }
}

/// C002 — panic-capable sites in worker-reachable fns: a worker panic
/// poisons the barrier and deadlocks or aborts the drain.
fn check_c002(ctx: &CRuleCtx<'_>, out: &mut Vec<CFinding>) {
    if !ctx.any_reachable() {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        // `.unwrap()` / `.expect(…)`.
        if t.is_punct(".")
            && i + 2 < toks.len()
            && (toks[i + 1].is_ident("unwrap") || toks[i + 1].is_ident("expect"))
            && toks[i + 2].is_punct("(")
        {
            if let Some(chain) = ctx.reachable_chain(toks[i + 1].line) {
                push(
                    out,
                    "C002",
                    toks[i + 1].line,
                    format!(
                        "`.{}()` can panic on a worker thread; handle the None/Err \
                         or justify why it is unreachable",
                        toks[i + 1].text
                    ),
                    chain,
                );
            }
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("!")
        {
            if let Some(chain) = ctx.reachable_chain(t.line) {
                push(
                    out,
                    "C002",
                    t.line,
                    format!("`{}!` panics on a worker thread", t.text),
                    chain,
                );
            }
        }
        // Slice indexing `expr[…]` (panics out of bounds).
        if t.is_punct("[") && i > 0 && is_index_receiver(&toks[i - 1]) {
            if let Some(chain) = ctx.reachable_chain(t.line) {
                push(
                    out,
                    "C002",
                    t.line,
                    format!(
                        "slice index `{}[…]` can panic out of bounds on a worker \
                         thread; use `get` or justify the bound",
                        toks[i - 1].text
                    ),
                    chain,
                );
            }
        }
        // Narrowing `as` casts (silent truncation corrupts shard math).
        if t.is_ident("as")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
            && NARROW_INTS.contains(&toks[i + 1].text.as_str())
        {
            if let Some(chain) = ctx.reachable_chain(t.line) {
                push(
                    out,
                    "C002",
                    t.line,
                    format!(
                        "narrowing `as {}` cast in worker-reachable code can truncate \
                         silently; use `try_from` or justify the range",
                        toks[i + 1].text
                    ),
                    chain,
                );
            }
        }
    }
}

/// Whether the token before `[` makes it an index expression rather
/// than an array literal / attribute / type.
fn is_index_receiver(prev: &Token) -> bool {
    match prev.kind {
        TokenKind::Ident => !is_expr_keyword_before_bracket(&prev.text),
        TokenKind::Punct => prev.text == "]" || prev.text == ")",
        _ => false,
    }
}

/// Idents that precede an array-literal `[` rather than an index
/// (`return [a, b]`, `in [1, 2]`, …).
pub(crate) fn is_expr_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "return" | "in" | "as" | "else" | "match" | "if" | "mut" | "move" | "break" | "let"
    )
}

/// C003 — interior mutability in worker-reachable fns; `static mut` /
/// `thread_local!` anywhere in a file with worker-reachable code.
fn check_c003(ctx: &CRuleCtx<'_>, out: &mut Vec<CFinding>) {
    if !ctx.any_reachable() {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        if INTERIOR_MUT.contains(&t.text.as_str()) {
            if let Some(chain) = ctx.reachable_chain(t.line) {
                push(
                    out,
                    "C003",
                    t.line,
                    format!(
                        "`{}` is unsynchronized interior mutability in worker-reachable \
                         code; use the sanctioned Mutex/atomic protocol",
                        t.text
                    ),
                    chain,
                );
            }
            continue;
        }
        let module_level_hit = if t.text == "static"
            && i + 1 < toks.len()
            && toks[i + 1].is_ident("mut")
        {
            Some("`static mut` shared state in a file with worker-reachable code")
        } else if t.text == "thread_local" && i + 1 < toks.len() && toks[i + 1].is_punct("!") {
            Some("`thread_local!` state in a file with worker-reachable code diverges per worker")
        } else {
            None
        };
        if let Some(msg) = module_level_hit {
            let chain = ctx.reachable_chain(t.line).unwrap_or(&[]);
            push(out, "C003", t.line, msg.to_string(), chain);
        }
    }
}

/// Collects identifiers bound to `Atomic*` types in this file (lets,
/// fields, params) — the receiver evidence for C004's `load`/`store`/
/// `swap` patterns, mirroring `collect_hash_names`.
fn collect_atomic_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !t.text.starts_with("Atomic") {
            continue;
        }
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

/// C004 — atomic operations must spell their `Ordering` at the call
/// site (a variable ordering hides the protocol from review).
fn check_c004(ctx: &CRuleCtx<'_>, out: &mut Vec<CFinding>) {
    if !ctx.any_reachable() {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let atomic_names = collect_atomic_names(toks);
    for i in 0..toks.len() {
        if !toks[i].is_punct(".") || i + 2 >= toks.len() {
            continue;
        }
        let m = &toks[i + 1];
        if m.kind != TokenKind::Ident || !toks[i + 2].is_punct("(") || ctx.in_test(m.line) {
            continue;
        }
        let strong = is_atomic_strong(&m.text);
        let weak = ATOMIC_WEAK.contains(&m.text.as_str());
        if !strong && !weak {
            continue;
        }
        if weak && !atomic_receiver(toks, i, &atomic_names) {
            continue; // `vec.swap(a, b)`, serde `load`, … — not atomic
        }
        // Scan the argument list for explicit ordering evidence.
        let mut depth = 1i32;
        let mut j = i + 3;
        let mut documented = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("(") {
                depth += 1;
            } else if toks[j].is_punct(")") {
                depth -= 1;
            } else if toks[j].kind == TokenKind::Ident && ORDERINGS.contains(&toks[j].text.as_str())
            {
                documented = true;
            }
            j += 1;
        }
        if !documented {
            if let Some(chain) = ctx.reachable_chain(m.line) {
                push(
                    out,
                    "C004",
                    m.line,
                    format!(
                        "atomic `.{}(…)` without an explicit `Ordering::…` argument; \
                         spell the ordering at the call site",
                        m.text
                    ),
                    chain,
                );
            }
        }
    }
}

/// Whether the `.` at `dot` has an atomic-typed receiver (by collected
/// binding names, walking back over one optional `[…]` index).
fn atomic_receiver(toks: &[Token], dot: usize, atomic_names: &[String]) -> bool {
    if dot == 0 {
        return false;
    }
    let mut k = dot - 1;
    if toks[k].is_punct("]") {
        // Walk back over the index to the ident before `[`.
        let mut depth = 0i32;
        loop {
            if toks[k].is_punct("]") {
                depth += 1;
            } else if toks[k].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
    toks[k].kind == TokenKind::Ident && atomic_names.iter().any(|n| n == &toks[k].text)
}

/// C005 — thread spawns outside the sanctioned pool module(s): ad-hoc
/// threads bypass the barrier protocol that keeps drains deterministic.
fn check_c005(ctx: &CRuleCtx<'_>, out: &mut Vec<CFinding>) {
    if !ctx.has_roots || ctx.is_test_path {
        return;
    }
    if ctx
        .spawn_ok
        .iter()
        .any(|p| ctx.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if ctx.in_test(t.line) {
            continue;
        }
        let hit = if t.is_ident("thread")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("spawn")
        {
            Some(("thread::spawn", t.line))
        } else if t.is_punct(".")
            && i + 2 < toks.len()
            && toks[i + 1].is_ident("spawn")
            && toks[i + 2].is_punct("(")
        {
            Some((".spawn(…)", toks[i + 1].line))
        } else {
            None
        };
        if let Some((what, line)) = hit {
            push(
                out,
                "C005",
                line,
                format!(
                    "`{what}` outside the sanctioned pool module(s); all parallel \
                     execution must go through a `[roots] spawn_path` module"
                ),
                &[],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::detect_test_spans;

    fn spans_for(src: &str, reachable: &[(&str, bool)]) -> (Lexed, Vec<(u32, u32)>, Vec<FnSpan>) {
        // Build fn spans from the parser so tests mirror the engine.
        let lexed = lex(src);
        let test_spans = detect_test_spans(&lexed);
        let items = crate::parser::parse_file(&lexed);
        let fn_spans: Vec<FnSpan> = items
            .fns
            .iter()
            .map(|f| {
                let q = f.qualified();
                let r = reachable.iter().find(|(n, _)| *n == q).map(|(_, r)| *r);
                FnSpan {
                    line: f.line,
                    end_line: f.end_line,
                    reachable: r.unwrap_or(false),
                    chain: if r.unwrap_or(false) {
                        vec!["root".into(), q]
                    } else {
                        vec![]
                    },
                }
            })
            .collect();
        (lexed, test_spans, fn_spans)
    }

    fn run(src: &str, reachable: &[(&str, bool)]) -> Vec<CFinding> {
        let (lexed, test_spans, fn_spans) = spans_for(src, reachable);
        check_file(&CRuleCtx {
            rel_path: "crates/x/src/a.rs",
            lexed: &lexed,
            test_spans: &test_spans,
            is_test_path: false,
            fn_spans: &fn_spans,
            has_roots: true,
            spawn_ok: &[],
        })
    }

    #[test]
    fn c002_fires_only_in_reachable_fns() {
        let src = "\
            fn worker(v: &[u32], w: usize) {\n\
                let x = v[w];\n\
                let y = v.get(w).unwrap();\n\
                let n = x as u8;\n\
                if w > 9 { panic!(\"bad\"); }\n\
                let _ = (y, n);\n\
            }\n\
            fn driver(v: &[u32]) { let _ = v[0]; }\n";
        let hits = run(src, &[("worker", true)]);
        let c002: Vec<u32> = hits
            .iter()
            .filter(|f| f.rule == "C002")
            .map(|f| f.line)
            .collect();
        assert_eq!(c002, vec![2, 3, 4, 5], "{hits:?}");
        assert!(hits.iter().all(|f| f.chain == ["root", "worker"]));
        assert!(run(src, &[]).iter().all(|f| f.rule != "C002"));
    }

    #[test]
    fn c002_skips_array_literals_attrs_and_macros() {
        let src = "\
            #[derive(Clone)]\n\
            struct S { a: [u32; 2] }\n\
            fn worker() {\n\
                let a = [1u32, 2];\n\
                let v = vec![3u32];\n\
                let s = S { a: [0, 0] };\n\
                let _ = (a, v, s);\n\
            }\n";
        let hits = run(src, &[("worker", true)]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn c002_sites_in_nested_unreachable_fns_are_not_charged() {
        let src = "\
            fn worker() {\n\
                fn helper(v: &[u32]) -> u32 { v[0] }\n\
                safe();\n\
            }\n\
            fn safe() {}\n";
        let hits = run(src, &[("worker", true)]);
        assert!(hits.is_empty(), "nested helper is not reachable: {hits:?}");
        let hits = run(src, &[("worker", true), ("helper", true)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "C002");
    }

    #[test]
    fn c001_overrides_path_exemptions_in_reachable_code() {
        let src = "\
            fn worker() {\n\
                let t = std::time::Instant::now();\n\
                let _ = t;\n\
            }\n";
        let hits = run(src, &[("worker", true)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "C001");
        assert!(hits[0].message.contains("D002"));
        assert_eq!(hits[0].chain, ["root", "worker"]);
    }

    #[test]
    fn c003_flags_interior_mutability_and_static_mut() {
        let src = "\
            static mut COUNTER: u32 = 0;\n\
            fn worker(c: &RefCell<u32>) { c.borrow_mut(); }\n\
            fn driver(c: &RefCell<u32>) { c.borrow_mut(); }\n";
        let hits = run(src, &[("worker", true)]);
        let rules: Vec<(u32, &str)> = hits.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(rules, vec![(1, "C003"), (2, "C003")], "{hits:?}");
    }

    #[test]
    fn c004_requires_explicit_ordering_with_atomic_evidence() {
        let src = "\
            fn worker(head: &AtomicU64, ord: Ordering, v: &mut Vec<u32>) {\n\
                head.load(ord2());\n\
                head.store(1, Ordering::Release);\n\
                head.fetch_add(1, Ordering::AcqRel);\n\
                v.swap(0, 1);\n\
            }\n\
            fn ord2() -> Ordering { Ordering::Relaxed }\n";
        let hits = run(src, &[("worker", true)]);
        let c004: Vec<u32> = hits
            .iter()
            .filter(|f| f.rule == "C004")
            .map(|f| f.line)
            .collect();
        assert_eq!(c004, vec![2], "{hits:?}");
    }

    #[test]
    fn c005_flags_spawns_outside_sanctioned_paths() {
        let src = "fn f(scope: &Scope) { std::thread::spawn(|| {}); scope.spawn(|| {}); }\n";
        let (lexed, test_spans, fn_spans) = spans_for(src, &[]);
        let sanctioned = ["crates/x/src/".to_string()];
        let ctx = |has_roots: bool, spawn_ok: &'static bool| CRuleCtx {
            rel_path: "crates/x/src/a.rs",
            lexed: &lexed,
            test_spans: &test_spans,
            is_test_path: false,
            fn_spans: &fn_spans,
            has_roots,
            spawn_ok: if *spawn_ok { &sanctioned } else { &[] },
        };
        let hits = check_file(&ctx(true, &false));
        assert_eq!(
            hits.iter().filter(|f| f.rule == "C005").count(),
            2,
            "{hits:?}"
        );
        // Sanctioned path: clean.
        assert!(check_file(&ctx(true, &true)).is_empty());
        // No [roots] declared: C005 is off.
        assert!(check_file(&ctx(false, &false)).is_empty());
    }
}
