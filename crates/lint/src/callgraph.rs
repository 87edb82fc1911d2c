//! The workspace call graph.
//!
//! Nodes are every non-test fn the parser recovered; edges come from
//! call-site resolution with heuristics tuned to this codebase:
//!
//! * **free calls** — same-file fn first, then unique workspace name;
//!   `Type::method` paths through the owner-type table; `drop(x)`
//!   special-cased to `Type::drop` when `x` has a type hint;
//! * **method calls** — receiver-type hints first (`self` → impl type,
//!   typed `let`s/params, constructor RHS inference, struct field
//!   chains incl. `Vec` indexing), then a unique-name fallback over all
//!   workspace methods — except for method names so common in std
//!   (`push`, `len`, `lock`, …) that a unique workspace homonym is more
//!   likely shadowed than called;
//! * **trait-typed receivers** — fan out to the trait's default method
//!   and every `impl Trait for Type` (conservative dynamic dispatch).
//!
//! Anything the heuristics cannot pin down is recorded as an
//! [`Unresolved`] call — reported in the report summary and
//! `LINT_callgraph.json`, never silently dropped — but *not* followed,
//! so one murky call site cannot flood the worker-reachable closure.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{indexed_elem, type_head, CallKind, CallSite, FileItems, FnDef};
use crate::reach::Reach;
use crate::report::json_str;

/// Method names too common in std for the unique-name fallback: a lone
/// workspace method with one of these names is more likely shadowed by
/// a std type than called, so an untyped receiver stays unresolved
/// (reported) instead of creating a speculative edge.
const STD_COMMON_METHODS: [&str; 60] = [
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "clear",
    "clone",
    "collect",
    "cmp",
    "contains",
    "contains_key",
    "count",
    "dedup",
    "drain",
    "entry",
    "expect",
    "extend",
    "filter",
    "find",
    "first",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "position",
    "push",
    "remove",
    "replace",
    "retain",
    "sort",
    "store",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "unwrap",
    "values",
    "wait",
    "write",
];

/// One file's parsed input to the graph build.
pub struct FileInput<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Parsed items.
    pub items: &'a FileItems,
    /// Inclusive test line spans (from [`crate::rules::detect_test_spans`]).
    pub test_spans: &'a [(u32, u32)],
    /// Whether the whole file is test code by path.
    pub is_test_path: bool,
}

/// One call-graph node: a non-test fn.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into [`CallGraph::files`].
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub fn_idx: usize,
    /// Qualified display name (`Type::method` or bare fn name).
    pub name: String,
    /// Bare fn name.
    pub bare: String,
    /// Owner type/trait, if a method.
    pub owner: Option<String>,
    /// First line of the fn.
    pub line: u32,
}

/// Edge provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Resolved to exactly one callee.
    Direct,
    /// Trait-dispatch fan-out (one of possibly several impls).
    Trait,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Caller node id.
    pub from: usize,
    /// Callee node id.
    pub to: usize,
    /// Line of the (first) call site.
    pub line: u32,
    /// How the edge was resolved.
    pub kind: EdgeKind,
}

/// Why a call could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnresolvedKind {
    /// The callee is a local/parameter (closure or fn-pointer call).
    Dynamic,
    /// Several workspace fns match and no hint disambiguates.
    Ambiguous,
    /// A unique workspace method matches, but the name is std-common
    /// and the receiver untyped — too risky to follow.
    CommonName,
}

impl UnresolvedKind {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            UnresolvedKind::Dynamic => "dynamic",
            UnresolvedKind::Ambiguous => "ambiguous",
            UnresolvedKind::CommonName => "common-name",
        }
    }
}

/// A reported (never silently dropped) unresolved call.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Caller node id.
    pub from: usize,
    /// Callee name as written.
    pub name: String,
    /// Call-site line.
    pub line: u32,
    /// Why it stayed unresolved.
    pub kind: UnresolvedKind,
    /// Candidate node ids (for ambiguous/common-name calls).
    pub candidates: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Workspace-relative file paths, in scan order.
    pub files: Vec<String>,
    /// All non-test fns.
    pub nodes: Vec<Node>,
    /// Resolved edges, deduplicated by `(from, to)`.
    pub edges: Vec<Edge>,
    /// Unresolved calls.
    pub unresolved: Vec<Unresolved>,
    /// Calls resolved as external (std or out-of-workspace).
    pub external_calls: usize,
    type_methods: BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    struct_fields: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    traits: BTreeSet<String>,
    trait_impl_types: BTreeMap<String, Vec<String>>,
    workspace_types: BTreeSet<String>,
}

enum Res {
    Edges(Vec<(usize, EdgeKind)>),
    Unresolved(UnresolvedKind, Vec<usize>),
    External,
}

impl CallGraph {
    /// Build the graph over every non-test fn in `files`.
    pub fn build(files: &[FileInput<'_>]) -> CallGraph {
        let mut g = CallGraph::default();
        // Pass 1: nodes + lookup tables.
        for (fi, f) in files.iter().enumerate() {
            g.files.push(f.rel.to_string());
            for s in &f.items.structs {
                g.workspace_types.insert(s.name.clone());
                let entry = g.struct_fields.entry(s.name.clone()).or_default();
                for (fname, ty) in &s.fields {
                    entry.insert(fname.clone(), ty.clone());
                }
            }
            for t in &f.items.traits {
                g.traits.insert(t.name.clone());
            }
            for (tr, ty) in &f.items.trait_impls {
                let impls = g.trait_impl_types.entry(tr.clone()).or_default();
                if !impls.contains(ty) {
                    impls.push(ty.clone());
                }
            }
            for (idx, fun) in f.items.fns.iter().enumerate() {
                if let Some(o) = &fun.owner {
                    g.workspace_types.insert(o.clone());
                }
                if f.is_test_path || in_spans(f.test_spans, fun.line) {
                    continue;
                }
                let id = g.nodes.len();
                g.nodes.push(Node {
                    file: fi,
                    fn_idx: idx,
                    name: fun.qualified(),
                    bare: fun.name.clone(),
                    owner: fun.owner.clone(),
                    line: fun.line,
                });
                match &fun.owner {
                    Some(o) => {
                        g.type_methods
                            .entry((o.clone(), fun.name.clone()))
                            .or_default()
                            .push(id);
                        g.methods_by_name
                            .entry(fun.name.clone())
                            .or_default()
                            .push(id);
                    }
                    None => g.free_by_name.entry(fun.name.clone()).or_default().push(id),
                }
            }
        }
        // Traits count as workspace types for receiver resolution.
        for t in &g.traits {
            g.workspace_types.insert(t.clone());
        }
        // Pass 2: resolve every call of every node.
        let mut seen_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for id in 0..g.nodes.len() {
            let node = g.nodes[id].clone();
            let fun = &files[node.file].items.fns[node.fn_idx];
            for call in &fun.calls {
                if call.kind == CallKind::Macro {
                    continue; // not a fn; the calls in its args are their own sites
                }
                match g.resolve(node.file, fun, call) {
                    Res::Edges(targets) => {
                        for (to, kind) in targets {
                            if seen_edges.insert((id, to)) {
                                g.edges.push(Edge {
                                    from: id,
                                    to,
                                    line: call.line,
                                    kind,
                                });
                            }
                        }
                    }
                    Res::Unresolved(kind, candidates) => g.unresolved.push(Unresolved {
                        from: id,
                        name: call.name.clone(),
                        line: call.line,
                        kind,
                        candidates,
                    }),
                    Res::External => g.external_calls += 1,
                }
            }
        }
        g
    }

    /// Node ids whose qualified (when the spec contains `::`) or bare
    /// name equals `spec`.
    pub fn match_roots(&self, spec: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                if spec.contains("::") {
                    n.name == spec
                } else {
                    n.bare == spec
                }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Adjacency lists over resolved edges (input to [`crate::reach`]).
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.from].push(e.to);
        }
        adj
    }

    /// The receiver's resolved type name for a method call, if the
    /// hints pin one down.
    fn receiver_type(&self, fun: &FnDef, call: &CallSite) -> Option<String> {
        let chain = &call.receiver.chain;
        let first = chain.first()?;
        let mut ty: Vec<String> = if first.name == "self" {
            vec![fun.owner.clone()?]
        } else {
            fun.binding_type(&first.name, call.at)?.to_vec()
        };
        if first.indexed {
            ty = indexed_elem(&ty)?;
        }
        let mut cur = type_head(&ty)?.to_string();
        for link in &chain[1..] {
            let mut fty = self
                .struct_fields
                .get(&cur)
                .and_then(|fields| fields.get(&link.name))?
                .clone();
            if link.indexed {
                fty = indexed_elem(&fty)?;
            }
            cur = type_head(&fty)?.to_string();
        }
        Some(cur)
    }

    fn resolve(&self, file: usize, fun: &FnDef, call: &CallSite) -> Res {
        match call.kind {
            CallKind::Method => self.resolve_method(fun, call),
            CallKind::Free => self.resolve_free(file, fun, call),
            CallKind::Macro => Res::External,
        }
    }

    fn resolve_method(&self, fun: &FnDef, call: &CallSite) -> Res {
        if let Some(ty) = self.receiver_type(fun, call) {
            // Trait-typed receivers fan out to every impl (checked before
            // the direct table: the trait's own signature node would
            // otherwise shadow the dispatch).
            if self.traits.contains(&ty) {
                return self.trait_dispatch(&ty, &call.name);
            }
            if let Some(ids) = self.type_methods.get(&(ty.clone(), call.name.clone())) {
                return if ids.len() == 1 {
                    Res::Edges(vec![(ids[0], EdgeKind::Direct)])
                } else {
                    Res::Unresolved(UnresolvedKind::Ambiguous, ids.clone())
                };
            }
            // A known type (workspace or std) without that method in
            // the workspace: derived/std trait method — external.
            return Res::External;
        }
        // Untyped receiver: unique-name fallback over workspace methods.
        match self.methods_by_name.get(&call.name) {
            None => Res::External,
            Some(ids) if ids.len() == 1 => {
                if STD_COMMON_METHODS.contains(&call.name.as_str()) {
                    Res::Unresolved(UnresolvedKind::CommonName, ids.clone())
                } else {
                    Res::Edges(vec![(ids[0], EdgeKind::Direct)])
                }
            }
            Some(ids) => Res::Unresolved(UnresolvedKind::Ambiguous, ids.clone()),
        }
    }

    /// Trait-typed receiver: default method + every impl's method.
    fn trait_dispatch(&self, tr: &str, method: &str) -> Res {
        let mut targets: Vec<usize> = Vec::new();
        if let Some(ids) = self.type_methods.get(&(tr.to_string(), method.to_string())) {
            targets.extend_from_slice(ids);
        }
        if let Some(types) = self.trait_impl_types.get(tr) {
            for ty in types {
                if let Some(ids) = self.type_methods.get(&(ty.clone(), method.to_string())) {
                    targets.extend_from_slice(ids);
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() {
            Res::External
        } else {
            Res::Edges(targets.into_iter().map(|t| (t, EdgeKind::Trait)).collect())
        }
    }

    fn resolve_free(&self, file: usize, fun: &FnDef, call: &CallSite) -> Res {
        // A call through a local/param (closure, fn pointer) is dynamic.
        if call.qualifier.is_none() && fun.binds(&call.name) {
            return Res::Unresolved(UnresolvedKind::Dynamic, Vec::new());
        }
        // `drop(x)` runs `Type::drop` when `x`'s type is hinted.
        if call.qualifier.is_none() && call.name == "drop" {
            if let Some(arg) = &call.arg_ident {
                if let Some(ty) = fun
                    .binding_type(arg, call.at)
                    .and_then(|t| type_head(t).map(str::to_string))
                {
                    if let Some(ids) = self.type_methods.get(&(ty, "drop".to_string())) {
                        if ids.len() == 1 {
                            return Res::Edges(vec![(ids[0], EdgeKind::Direct)]);
                        }
                        return Res::Unresolved(UnresolvedKind::Ambiguous, ids.clone());
                    }
                }
            }
            return Res::External;
        }
        match call.qualifier.as_deref() {
            // `crate::foo(…)` / `super::foo(…)`: plain free resolution.
            Some("crate") | Some("super") | Some("self") | None => {}
            Some("Self") => {
                let Some(owner) = &fun.owner else {
                    return Res::External;
                };
                return self.qualified_lookup(owner, &call.name);
            }
            Some(q) if self.workspace_types.contains(q) => {
                return self.qualified_lookup(q, &call.name);
            }
            // std module paths (`mem::take`, `thread::spawn`, …).
            Some(_) => return Res::External,
        }
        // Bare free call: same-file fn first, then unique workspace name.
        match self.free_by_name.get(&call.name) {
            None => Res::External,
            Some(ids) => {
                let same_file: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&id| self.nodes[id].file == file)
                    .collect();
                if same_file.len() == 1 {
                    return Res::Edges(vec![(same_file[0], EdgeKind::Direct)]);
                }
                if ids.len() == 1 {
                    return Res::Edges(vec![(ids[0], EdgeKind::Direct)]);
                }
                Res::Unresolved(UnresolvedKind::Ambiguous, ids.clone())
            }
        }
    }

    /// `Type::name(…)` / `Trait::name(…)` lookup.
    fn qualified_lookup(&self, owner: &str, name: &str) -> Res {
        if let Some(ids) = self
            .type_methods
            .get(&(owner.to_string(), name.to_string()))
        {
            return if ids.len() == 1 {
                Res::Edges(vec![(ids[0], EdgeKind::Direct)])
            } else {
                Res::Unresolved(UnresolvedKind::Ambiguous, ids.clone())
            };
        }
        Res::External
    }

    /// Render the graph + reachability result as `LINT_callgraph.json`
    /// (schema version 1).
    pub fn render_json(&self, reach: &Reach, roots: &[usize], root_display: &str) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"root\": {},\n", json_str(root_display)));
        out.push_str("  \"roots\": [");
        for (i, &r) in roots.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(&self.nodes[r].name));
        }
        out.push_str("],\n");
        let trait_edges = self
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Trait)
            .count();
        let count_kind = |k: UnresolvedKind| self.unresolved.iter().filter(|u| u.kind == k).count();
        let reachable_ids: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| reach.is_reachable(i))
            .collect();
        out.push_str("  \"summary\": {");
        out.push_str(&format!("\"fns\": {}, ", self.nodes.len()));
        out.push_str(&format!("\"edges\": {}, ", self.edges.len()));
        out.push_str(&format!("\"trait_edges\": {trait_edges}, "));
        out.push_str(&format!("\"external_calls\": {}, ", self.external_calls));
        out.push_str(&format!(
            "\"unresolved_dynamic\": {}, ",
            count_kind(UnresolvedKind::Dynamic)
        ));
        out.push_str(&format!(
            "\"unresolved_ambiguous\": {}, ",
            count_kind(UnresolvedKind::Ambiguous)
        ));
        out.push_str(&format!(
            "\"unresolved_common_name\": {}, ",
            count_kind(UnresolvedKind::CommonName)
        ));
        out.push_str(&format!("\"reachable\": {}}},\n", reachable_ids.len()));
        // Reachable set with call chains.
        out.push_str("  \"reachable\": [");
        for (i, &id) in reachable_ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let n = &self.nodes[id];
            out.push_str("\n    {");
            out.push_str(&format!("\"fn\": {}, ", json_str(&n.name)));
            out.push_str(&format!("\"file\": {}, ", json_str(&self.files[n.file])));
            out.push_str(&format!("\"line\": {}, ", n.line));
            out.push_str("\"chain\": [");
            for (j, &c) in reach.chain_to(id).iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(&self.nodes[c].name));
            }
            out.push_str("]}");
        }
        out.push_str(if reachable_ids.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        // Full node + edge lists.
        out.push_str("  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": {i}, \"fn\": {}, \"file\": {}, \"line\": {}, \
                 \"reachable\": {}}}",
                json_str(&n.name),
                json_str(&self.files[n.file]),
                n.line,
                reach.is_reachable(i)
            ));
        }
        out.push_str(if self.nodes.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = match e.kind {
                EdgeKind::Direct => "direct",
                EdgeKind::Trait => "trait",
            };
            out.push_str(&format!(
                "\n    {{\"from\": {}, \"to\": {}, \"line\": {}, \"kind\": \"{kind}\"}}",
                e.from, e.to, e.line
            ));
        }
        out.push_str(if self.edges.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        // Unresolved calls whose *caller* is worker-reachable: these are
        // the ones that could hide a closure escape — list them in full.
        let hot: Vec<&Unresolved> = self
            .unresolved
            .iter()
            .filter(|u| reach.is_reachable(u.from))
            .collect();
        out.push_str("  \"unresolved_from_reachable\": [");
        for (i, u) in hot.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let n = &self.nodes[u.from];
            out.push_str("\n    {");
            out.push_str(&format!("\"from\": {}, ", json_str(&n.name)));
            out.push_str(&format!("\"file\": {}, ", json_str(&self.files[n.file])));
            out.push_str(&format!("\"line\": {}, ", u.line));
            out.push_str(&format!("\"call\": {}, ", json_str(&u.name)));
            out.push_str(&format!("\"kind\": \"{}\", ", u.kind.label()));
            out.push_str("\"candidates\": [");
            for (j, &c) in u.candidates.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(&self.nodes[c].name));
            }
            out.push_str("]}");
        }
        out.push_str(if hot.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push('}');
        out.push('\n');
        out
    }
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::reach;
    use crate::rules::detect_test_spans;

    struct Parsed {
        rel: String,
        items: FileItems,
        spans: Vec<(u32, u32)>,
    }

    fn parse_all(files: &[(&str, &str)]) -> Vec<Parsed> {
        files
            .iter()
            .map(|(rel, src)| {
                let lexed = lex(src);
                Parsed {
                    rel: rel.to_string(),
                    spans: detect_test_spans(&lexed),
                    items: parse_file(&lexed),
                }
            })
            .collect()
    }

    fn build(parsed: &[Parsed]) -> CallGraph {
        let inputs: Vec<FileInput<'_>> = parsed
            .iter()
            .map(|p| FileInput {
                rel: &p.rel,
                items: &p.items,
                test_spans: &p.spans,
                is_test_path: crate::walk::is_test_path(&p.rel),
            })
            .collect();
        CallGraph::build(&inputs)
    }

    fn edge_names(g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| (g.nodes[e.from].name.clone(), g.nodes[e.to].name.clone()))
            .collect()
    }

    #[test]
    fn resolves_self_methods_and_field_chains() {
        let src = "\
            struct Pool { n: usize }\n\
            impl Pool { fn run(&self) {} }\n\
            struct Queue { pool: Pool }\n\
            impl Queue {\n\
                fn drain(&self) { self.pool.run(); self.helper(); }\n\
                fn helper(&self) {}\n\
            }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        let edges = edge_names(&g);
        assert!(
            edges.contains(&("Queue::drain".into(), "Pool::run".into())),
            "{edges:?}"
        );
        assert!(edges.contains(&("Queue::drain".into(), "Queue::helper".into())));
    }

    #[test]
    fn resolves_indexed_vec_fields() {
        let src = "\
            struct Shard { v: u32 }\n\
            impl Shard { fn pop_due(&self) {} }\n\
            struct Slots { shards: Vec<Shard> }\n\
            impl Slots {\n\
                fn drain(&self, s: usize) { self.shards[s].pop_due(); }\n\
            }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        assert!(edge_names(&g).contains(&("Slots::drain".into(), "Shard::pop_due".into())));
    }

    #[test]
    fn same_file_free_fn_beats_same_named_fn_elsewhere() {
        let a = "fn relock() {}\nfn caller() { relock(); }\n";
        let b = "fn relock() {}\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        let g = build(&parsed);
        let edges: Vec<(usize, usize)> = g.edges.iter().map(|e| (e.from, e.to)).collect();
        let caller = g.match_roots("caller")[0];
        let local_relock = g
            .nodes
            .iter()
            .position(|n| n.bare == "relock" && g.files[n.file].starts_with("crates/a"))
            .expect("node");
        assert_eq!(edges, vec![(caller, local_relock)]);
    }

    #[test]
    fn trait_receivers_fan_out_to_impls() {
        let src = "\
            trait Policy { fn apply(&self); fn doc(&self) { self.apply(); } }\n\
            struct A; struct B;\n\
            impl Policy for A { fn apply(&self) {} }\n\
            impl Policy for B { fn apply(&self) {} }\n\
            fn run(p: &dyn Policy) { p.apply(); }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        let edges = edge_names(&g);
        assert!(
            edges.contains(&("run".into(), "A::apply".into())),
            "{edges:?}"
        );
        assert!(edges.contains(&("run".into(), "B::apply".into())));
        // The trait's own default method dispatches too.
        assert!(edges.contains(&("Policy::doc".into(), "A::apply".into())));
    }

    #[test]
    fn untyped_receivers_use_unique_name_fallback_but_not_std_common() {
        let src = "\
            struct S { n: u32 }\n\
            impl S { fn drain_due(&self) {} fn push(&self, _x: u32) {} }\n\
            fn f(maker: fn() -> u32) {\n\
                let q = opaque();\n\
                q.drain_due();\n\
                q.push(maker());\n\
            }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        let edges = edge_names(&g);
        assert!(
            edges.contains(&("f".into(), "S::drain_due".into())),
            "{edges:?}"
        );
        // `push` is std-common: unique homonym reported, not followed.
        assert!(!edges.iter().any(|(_, to)| to == "S::push"));
        assert!(g
            .unresolved
            .iter()
            .any(|u| u.name == "push" && u.kind == UnresolvedKind::CommonName));
    }

    #[test]
    fn dynamic_and_ambiguous_calls_are_reported_not_dropped() {
        let a = "fn job(f: fn(u32)) { f(1); }\nfn dup() {}\n";
        let b = "fn dup() {}\nfn caller() { dup(); }\n";
        let c = "fn other() { dup(); }\n";
        let parsed = parse_all(&[
            ("crates/a/src/lib.rs", a),
            ("crates/b/src/lib.rs", b),
            ("crates/c/src/lib.rs", c),
        ]);
        let g = build(&parsed);
        assert!(g
            .unresolved
            .iter()
            .any(|u| u.name == "f" && u.kind == UnresolvedKind::Dynamic));
        // b::caller resolves same-file; c::other is ambiguous between the two.
        let amb: Vec<_> = g
            .unresolved
            .iter()
            .filter(|u| u.name == "dup" && u.kind == UnresolvedKind::Ambiguous)
            .collect();
        assert_eq!(amb.len(), 1);
        assert_eq!(amb[0].candidates.len(), 2);
        assert!(edge_names(&g).contains(&("caller".into(), "dup".into())));
    }

    #[test]
    fn drop_calls_resolve_to_drop_impls() {
        let src = "\
            struct Guard { n: u32 }\n\
            impl Drop for Guard { fn drop(&mut self) {} }\n\
            fn f() { let guard = Guard { n: 1 }; drop(guard); }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        assert!(edge_names(&g).contains(&("f".into(), "Guard::drop".into())));
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let src = "\
            fn live() {}\n\
            #[cfg(test)]\n\
            mod tests {\n\
                #[test]\n\
                fn case() { crate::live(); }\n\
            }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "live");
    }

    #[test]
    fn closure_calls_attribute_to_enclosing_fn_for_reachability() {
        let src = "\
            struct Slots { n: u32 }\n\
            impl Slots { fn drain_worker(&self, _w: usize) { helper(); } }\n\
            fn helper() {}\n\
            fn build_pool() {\n\
                let slots = Slots { n: 1 };\n\
                let job = move |w: usize| { slots.drain_worker(w); };\n\
                job(0);\n\
            }\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        let roots = g.match_roots("Slots::drain_worker");
        assert_eq!(roots.len(), 1);
        let r = reach::closure(g.nodes.len(), &g.adjacency(), &roots);
        let reachable: Vec<&str> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| r.is_reachable(*i))
            .map(|(_, n)| n.name.as_str())
            .collect();
        assert_eq!(reachable, ["Slots::drain_worker", "helper"]);
        let helper = g.match_roots("helper")[0];
        let chain: Vec<&str> = r
            .chain_to(helper)
            .into_iter()
            .map(|i| g.nodes[i].name.as_str())
            .collect();
        assert_eq!(chain, ["Slots::drain_worker", "helper"]);
    }

    #[test]
    fn callgraph_json_is_balanced_and_versioned() {
        let src = "fn a() { b(); }\nfn b() {}\n";
        let parsed = parse_all(&[("crates/a/src/lib.rs", src)]);
        let g = build(&parsed);
        let roots = g.match_roots("a");
        let r = reach::closure(g.nodes.len(), &g.adjacency(), &roots);
        let j = g.render_json(&r, &roots, "/w");
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"reachable\": 2"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
