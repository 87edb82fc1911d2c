//! The item model recovered by the structural parser.
//!
//! [`parser`](crate::parser) turns a file's positioned token stream into
//! these shapes: functions (with their parameter/local bindings and every
//! call expression in their bodies), structs (field types feed method
//! receiver resolution), and traits (dynamic-dispatch fan-out). The model
//! is deliberately *lexical* — types are kept as raw token strings and
//! interpreted by the small helpers at the bottom — because the linter
//! has no type inference and must stay dependency-free.

/// A `(name, declared type)` binding: a fn parameter or a `let` local.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound name.
    pub name: String,
    /// Declared (or constructor-inferred) type as raw token texts, e.g.
    /// `["Vec", "<", "Mutex", "<", "DrainOut", ">", ">"]`. Empty when the
    /// type could not be recovered.
    pub ty: Vec<String>,
    /// Token index of the binding site; later bindings shadow earlier
    /// ones, so lookups take the latest binding before the use site.
    pub at: usize,
}

/// One link of a method receiver chain: an ident, optionally indexed
/// (`a.b[i].c` → links `a`, `b` (indexed), `c`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvLink {
    /// The ident.
    pub name: String,
    /// Whether a `[…]` index follows this link.
    pub indexed: bool,
}

/// Receiver of a method call: a chain of `.`-separated idents rooted at
/// a variable or `self`. Empty chain means the receiver is not a simple
/// chain (a call result, a literal, a parenthesized expression, …).
#[derive(Debug, Clone, Default)]
pub struct Receiver {
    /// Chain links, outermost first (`self.slots.shards[s]` →
    /// `[self, slots, shards(indexed)]`).
    pub chain: Vec<RecvLink>,
}

/// What kind of call a [`CallSite`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Bare or path-qualified call: `relock(…)`, `Type::new(…)`.
    Free,
    /// Method call: `recv.method(…)`.
    Method,
    /// Macro invocation: `panic!(…)`.
    Macro,
}

/// One call expression inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Call kind.
    pub kind: CallKind,
    /// Callee name (last path segment / method name / macro name).
    pub name: String,
    /// Last path segment before the name for qualified calls
    /// (`Slots::new` → `Slots`, `mem::take` → `mem`).
    pub qualifier: Option<String>,
    /// Receiver chain (method calls only).
    pub receiver: Receiver,
    /// For free calls whose argument list is a single ident
    /// (`drop(guard)`), that ident — drives the `drop` special case.
    pub arg_ident: Option<String>,
    /// 1-based source line of the callee token.
    pub line: u32,
    /// Token index of the callee token.
    pub at: usize,
    /// Token range of the argument list, parens excluded.
    pub args: (usize, usize),
}

/// One function (free fn, inherent/trait-impl method, or trait default
/// method/signature).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare fn name.
    pub name: String,
    /// Enclosing impl target type or trait name, if any.
    pub owner: Option<String>,
    /// The trait, when defined inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// Whether it is declared inside a `trait { … }` block.
    pub in_trait: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (the `;` line for
    /// body-less trait signatures).
    pub end_line: u32,
    /// Parameter bindings (incl. a synthetic `self` binding in impls).
    pub params: Vec<Binding>,
    /// `let` bindings in the body, in source order.
    pub locals: Vec<Binding>,
    /// Every call expression in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Whether the fn has a body (trait signatures don't).
    pub has_body: bool,
}

impl FnDef {
    /// Display name: `Type::name` for methods, bare `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// The type tokens bound to `name` at token position `before`:
    /// the latest local binding before it, falling back to parameters.
    pub fn binding_type(&self, name: &str, before: usize) -> Option<&[String]> {
        self.locals
            .iter()
            .rev()
            .find(|b| b.name == name && b.at < before)
            .or_else(|| self.params.iter().find(|b| b.name == name))
            .map(|b| b.ty.as_slice())
    }

    /// Whether `name` is bound to a local or parameter (closure args and
    /// fn params are how dynamic calls enter a body).
    pub fn binds(&self, name: &str) -> bool {
        self.params.iter().any(|b| b.name == name) || self.locals.iter().any(|b| b.name == name)
    }
}

/// A struct definition with named fields (tuple/unit structs keep an
/// empty field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// `(field name, type tokens)` pairs.
    pub fields: Vec<(String, Vec<String>)>,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
}

/// A trait definition (its methods appear as [`FnDef`]s with
/// `in_trait = true`).
#[derive(Debug, Clone)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// 1-based line of the `trait` keyword.
    pub line: u32,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// All functions, in source order.
    pub fns: Vec<FnDef>,
    /// All field-carrying struct definitions.
    pub structs: Vec<StructDef>,
    /// All trait definitions.
    pub traits: Vec<TraitDef>,
    /// `impl Trait for Type` pairs seen in the file.
    pub trait_impls: Vec<(String, String)>,
}

/// Keywords and primitives that can never be a resolvable type head.
const NON_TYPE_HEADS: [&str; 6] = ["dyn", "impl", "mut", "const", "fn", "where"];

/// First meaningful ident of a type token string: skips references,
/// mutability, lifetimes and `dyn`, so `&'p mut Slots` →
/// `Slots` and `&mut dyn FnMut(…)` → `FnMut`.
pub fn type_head(ty: &[String]) -> Option<&str> {
    ty.iter()
        .map(String::as_str)
        .find(|t| {
            !matches!(*t, "&" | "*" | "(" | ")")
                && !t.starts_with('\'')
                && !NON_TYPE_HEADS[..3].contains(t)
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
        .filter(|t| !NON_TYPE_HEADS.contains(t))
}

/// Element type when a value of type `ty` is indexed: `Vec<T>` / `&[T]`
/// / `[T; N]` → `T`'s tokens. `None` when the container is unknown.
pub fn indexed_elem(ty: &[String]) -> Option<Vec<String>> {
    let mut i = 0;
    // Skip leading refs/mut/lifetimes.
    while i < ty.len() && (ty[i] == "&" || ty[i] == "mut" || ty[i].starts_with('\'')) {
        i += 1;
    }
    if i < ty.len() && ty[i] == "[" {
        // Slice or array: inner tokens up to `;` or the matching `]`.
        let mut depth = 1i32;
        let mut out = Vec::new();
        for t in &ty[i + 1..] {
            match t.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ";" if depth == 1 => break,
                _ => {}
            }
            out.push(t.clone());
        }
        return Some(out);
    }
    if i < ty.len() && ty[i] == "Vec" && ty.get(i + 1).map(String::as_str) == Some("<") {
        let mut depth = 1i32;
        let mut out = Vec::new();
        for t in &ty[i + 2..] {
            match t.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            out.push(t.clone());
        }
        return Some(out);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn type_head_skips_refs_and_lifetimes() {
        assert_eq!(type_head(&toks("& 'p Slots")), Some("Slots"));
        assert_eq!(type_head(&toks("& mut Vec < u8 >")), Some("Vec"));
        assert_eq!(type_head(&toks("& mut dyn FnMut ( u8 )")), Some("FnMut"));
        assert_eq!(type_head(&toks("")), None);
    }

    #[test]
    fn indexed_elem_handles_vec_slice_array() {
        assert_eq!(
            indexed_elem(&toks("Vec < Mutex < DrainOut > >")),
            Some(toks("Mutex < DrainOut >"))
        );
        assert_eq!(
            indexed_elem(&toks("& [ EventKey ]")),
            Some(toks("EventKey"))
        );
        assert_eq!(indexed_elem(&toks("[ u32 ; 4 ]")), Some(toks("u32")));
        assert_eq!(indexed_elem(&toks("BTreeMap < u32 , u32 >")), None);
    }

    #[test]
    fn binding_lookup_prefers_latest_local_then_params() {
        let f = FnDef {
            name: "f".into(),
            owner: None,
            trait_impl: None,
            in_trait: false,
            line: 1,
            end_line: 9,
            params: vec![Binding {
                name: "x".into(),
                ty: toks("u32"),
                at: 0,
            }],
            locals: vec![
                Binding {
                    name: "x".into(),
                    ty: toks("Foo"),
                    at: 10,
                },
                Binding {
                    name: "x".into(),
                    ty: toks("Bar"),
                    at: 20,
                },
            ],
            calls: vec![],
            has_body: true,
        };
        assert_eq!(f.binding_type("x", 15), Some(toks("Foo").as_slice()));
        assert_eq!(f.binding_type("x", 25), Some(toks("Bar").as_slice()));
        assert_eq!(f.binding_type("x", 5), Some(toks("u32").as_slice()));
        assert!(f.binds("x"));
        assert!(!f.binds("y"));
    }
}
