#[test]
fn brace_macro_in_fn_body() {
    use mrvd_lint::lexer::lex;
    use mrvd_lint::parser::parse_file;
    let src = "fn worker() {\n    let ok = matches! { 1 };\n    after_macro();\n}\nfn tail() { other(); }\n";
    let items = parse_file(&lex(src));
    let worker = items.fns.iter().find(|f| f.name == "worker").unwrap();
    let names: Vec<&str> = worker.calls.iter().map(|c| c.name.as_str()).collect();
    eprintln!("worker end_line={} calls={:?}", worker.end_line, names);
    assert!(
        names.contains(&"after_macro"),
        "after_macro lost: {names:?}"
    );
}
#[test]
fn module_qualified_workspace_call() {
    use mrvd_lint::callgraph::{CallGraph, FileInput};
    use mrvd_lint::lexer::lex;
    use mrvd_lint::parser::parse_file;
    let a = lex("pub fn go() {}\n");
    let b = lex("fn root_fn() { helper::go(); }\n");
    let ia = parse_file(&a);
    let ib = parse_file(&b);
    let inputs = vec![
        FileInput {
            rel: "crates/a/src/helper.rs",
            items: &ia,
            test_spans: &[],
            is_test_path: false,
        },
        FileInput {
            rel: "crates/b/src/lib.rs",
            items: &ib,
            test_spans: &[],
            is_test_path: false,
        },
    ];
    let g = CallGraph::build(&inputs);
    eprintln!(
        "edges={:?} unresolved={:?} external={}",
        g.edges.len(),
        g.unresolved.len(),
        g.external_calls
    );
    assert!(g.edges.is_empty() && g.unresolved.is_empty() && g.external_calls == 1);
}
