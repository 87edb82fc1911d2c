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
