//! `mrvd-benchmark`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! mrvd-benchmark --workload <name|all> [--seed S] [--seconds S] [--reps N]
//!                [--trace [0|1]] [--out DIR] [--smoke]
//! mrvd-benchmark --list
//! ```
//!
//! Prints one `name value unit` line per metric, then `ops_attempted`
//! and `ops_failed`, then a one-line JSON summary. Exits 1 if any op
//! failed, 2 on a usage error. `--workload all` runs each workload in a
//! child process of its own, so every peak-RSS reading belongs to one
//! workload.

use std::path::PathBuf;
use std::process::ExitCode;

use mrvd_benchmark::metrics::{END_TO_END, PER_LAYER};
use mrvd_benchmark::run::{report, run, write_trace, RunSpec};
use mrvd_benchmark::workload::{find, SMOKE, WORKLOADS};

const USAGE: &str = "usage: mrvd-benchmark --workload <name|all> [--seed S] [--seconds S] \
[--reps N] [--trace [0|1]] [--out DIR] [--smoke]\n       mrvd-benchmark --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    list: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        reps: None,
        trace: false,
        out: None,
        smoke: false,
        list: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--reps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(n);
            }
            "--trace" => {
                // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
                a.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--out" => a.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => a.smoke = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !a.list && a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<13} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced):");
    for m in &END_TO_END {
        let bound = m.bound.unwrap_or(0.0);
        println!(
            "  {:<26} {:<9} {:<6} bound {bound}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    println!("per-layer metrics (--trace):");
    for m in &PER_LAYER {
        println!("  {:<26} {:<9} {}", m.name, m.unit, m.better.as_str());
    }
}

/// Runs every workload in its own child process with the same flags.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mrvd-benchmark: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        // `parse` has checked that every `--workload` carries a value.
        let mut args: Vec<String> = raw.to_vec();
        for i in 0..args.len() - 1 {
            if args[i] == "--workload" {
                args[i + 1] = w.name.to_string();
            }
        }
        println!("== {}", w.name);
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("mrvd-benchmark: cannot run {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mrvd-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" {
        return run_all(&raw);
    }
    let Some(w) = find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "mrvd-benchmark: unknown workload `{}` (one of: all, {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let spec = RunSpec {
        name: w.name,
        size: if args.smoke { SMOKE } else { w.size },
        policy: w.policy,
        pinned_digest: if args.smoke {
            w.smoke_digest_seed1
        } else {
            w.digest_seed1
        },
        seed: args.seed,
        trace: args.trace,
        reps: args.reps,
        seconds: args.seconds,
    };
    let outcome = run(&spec);
    if let (Some(dir), false) = (&args.out, outcome.spans.is_empty()) {
        if let Err(e) = write_trace(dir, w.name, &outcome.spans) {
            eprintln!("mrvd-benchmark: cannot write the trace: {e}");
            return ExitCode::from(1);
        }
    }
    let expected: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report(&outcome, expected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
