#![forbid(unsafe_code)]

//! The `mrvd-lint` binary: scan the workspace, print the report, exit
//! nonzero on any unsuppressed finding.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mrvd_lint::scan_workspace;

const USAGE: &str = "\
mrvd-lint — determinism static analysis over the MRVD workspace

USAGE:
    mrvd-lint [--root <dir>] [--format human|json] [--output <file>]

OPTIONS:
    --root <dir>       Workspace root (default: ascend from cwd to the
                       directory whose Cargo.toml declares [workspace])
    --format <fmt>     `human` (default) or `json`
    --output <file>    Also write the report (in the chosen format) there

EXIT CODE: 0 when lint-clean, 1 on unsuppressed findings, 2 on usage/IO
errors.";

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("human");
    let mut output: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = "human".into(),
                Some("json") => format = "json".into(),
                _ => return usage_error("--format must be `human` or `json`"),
            },
            "--output" => match args.next() {
                Some(v) => output = Some(PathBuf::from(v)),
                None => return usage_error("--output needs a value"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let Some(root) = root.or_else(find_root) else {
        eprintln!("mrvd-lint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };
    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mrvd-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = match format.as_str() {
        "json" => report.render_json(),
        _ => report.render_human(),
    };
    print!("{rendered}");
    if let Some(path) = output {
        if write_file(&path, &rendered).is_err() {
            return ExitCode::from(2);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("mrvd-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn write_file(path: &Path, content: &str) -> Result<(), ()> {
    if let Some(parent) = path.parent().filter(|p| *p != Path::new("")) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("mrvd-lint: cannot create {}: {e}", parent.display());
            return Err(());
        }
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("mrvd-lint: cannot write {}: {e}", path.display());
        return Err(());
    }
    Ok(())
}
