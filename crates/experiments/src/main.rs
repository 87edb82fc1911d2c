//! `mrvd-experiments` — regenerates every table and figure of the
//! paper's evaluation (the command list below names the table or figure
//! each command produces), plus the scenario sweep of `mrvd-scenario`.
//!
//! ```text
//! mrvd-experiments <command> [--scale F] [--instances N] [--seed S]
//!                            [--threads T] [--nn-epochs E] [--out DIR]
//!
//! commands:
//!   table3    idle-time estimation accuracy (drivers 1K–8K)
//!   table4    prediction method × policy revenue
//!   table6    demand-prediction accuracy (HA/LR/GBRT/DeepST/DeepST-GC)
//!   table7    chi-square Poisson test of order arrivals
//!   table8    chi-square Poisson test of rejoined-driver arrivals
//!   fig5      pickup density map 8:00–8:45
//!   fig6      predicted vs real idle time per region
//!   fig7      revenue & batch time vs number of drivers
//!   fig8      revenue & batch time vs batch interval Δ
//!   fig9      revenue & batch time vs scheduling window t_c
//!   fig10     revenue & batch time vs base waiting time τ
//!   fig11     observed-vs-expected order histograms (with table7)
//!   fig12     observed-vs-expected driver histograms (with table8)
//!   fig13     served orders: SHORT vs baselines over four sweeps
//!   ablation  destination-aware ET vs uniform ET
//!   scenarios parallel policy sweep over the built-in workload scenarios
//!   delta     Δ-sensitivity sweep (3 s → 100 ms) over the built-ins
//!   scale     grid × fleet scale sweep (16×16/1K → 200×200/50K) at Δ = 1 s
//!   all       everything above except scenarios, delta and scale
//! ```
//!
//! `--scale 1.0` reproduces the paper's 282,255-order day with 1K–8K
//! drivers; the default 0.25 keeps a full `all` run laptop-sized. Revenue
//! tables print scale-normalized values (divided by the scale) next to
//! the paper's numbers where the paper reports exact values. The
//! `scenarios` command runs the built-in scenario specs exactly as
//! declared, so `--scale`/`--instances` do not apply to it; `delta`
//! scales the built-ins by `--scale` (sub-second Δ multiplies the batch
//! grid 30-fold, so its default run is deliberately smaller); `scale`
//! multiplies each scale-axis point's orders and drivers by `--scale`
//! (grid sizes are fixed — resolution is the axis under test).

#![forbid(unsafe_code)]

mod common;
mod delta;
mod figures;
mod scale;
mod scenarios;
mod tables;

use common::{Options, World};

const COMMANDS: [&str; 19] = [
    "table3",
    "table4",
    "table6",
    "table7",
    "table8",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablation",
    "scenarios",
    "delta",
    "scale",
    "all",
];

fn print_usage() {
    eprintln!(
        "usage: mrvd-experiments <{}> [--scale F] [--instances N] [--seed S] [--threads T] \
         [--nn-epochs E] [--out DIR]",
        COMMANDS.join("|")
    );
}

/// Outcome of command-line parsing.
#[derive(Debug)]
enum Parsed {
    /// Run `cmd` with the given options.
    Run(String, Options),
    /// `--help` / `-h`: print usage and exit 0.
    Help,
}

/// Parses the command line (without the program name). Every malformed
/// input — unknown command, unknown flag anywhere after a valid command,
/// missing or unparsable flag value, out-of-range option — is an error
/// naming the offending token, never a silent skip or a panic.
fn parse_cmdline(args: &[String]) -> Result<Parsed, String> {
    let mut args = args.iter();
    let Some(cmd) = args.next() else {
        return Err("missing command".into());
    };
    if cmd == "--help" || cmd == "-h" {
        return Ok(Parsed::Help);
    }
    // Reject unknown commands before the expensive world build.
    if !COMMANDS.contains(&cmd.as_str()) {
        return Err(format!("unknown command `{cmd}`"));
    }
    let mut opts = Options::default();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            args.next().ok_or(format!("missing value for {name}"))
        };
        fn parse<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("invalid value `{raw}` for {name}"))
        }
        match flag.as_str() {
            "--scale" => opts.scale = parse("--scale", value("--scale")?)?,
            "--instances" => opts.instances = parse("--instances", value("--instances")?)?,
            "--seed" => opts.seed = parse("--seed", value("--seed")?)?,
            "--threads" => opts.threads = parse("--threads", value("--threads")?)?,
            "--nn-epochs" => opts.nn_epochs = parse("--nn-epochs", value("--nn-epochs")?)?,
            "--out" => opts.out_dir = value("--out")?.clone(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(opts.scale > 0.0 && opts.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if opts.instances < 1 {
        return Err("--instances must be ≥ 1".into());
    }
    if opts.threads < 1 {
        return Err("--threads must be ≥ 1".into());
    }
    Ok(Parsed::Run(cmd.clone(), opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_cmdline(&args) {
        Ok(Parsed::Help) => {
            print_usage();
            return;
        }
        Ok(Parsed::Run(cmd, opts)) => (cmd, opts),
        Err(msg) => {
            eprintln!("{msg}");
            print_usage();
            std::process::exit(2)
        }
    };
    println!(
        "# mrvd-experiments {cmd} — scale {}, instances {}, seed {}, threads {}",
        opts.scale, opts.instances, opts.seed, opts.threads
    );
    let t0 = std::time::Instant::now();
    if cmd == "scenarios" || cmd == "delta" || cmd == "scale" {
        // Scenario, Δ and scale sweeps run the declarative specs
        // directly — no world (history generation + model training) is
        // needed.
        match cmd.as_str() {
            "scenarios" => scenarios::scenarios(&opts),
            "delta" => delta::delta(&opts),
            _ => scale::scale(&opts),
        }
        println!("\n# done in {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }
    let world = World::build(&opts);
    match cmd.as_str() {
        "table3" => tables::table3(&world),
        "table4" => tables::table4(&world),
        "table6" => tables::table6(&world),
        "table7" => tables::table7_8(&world, false, false),
        "table8" => tables::table7_8(&world, true, false),
        "fig5" => figures::fig5(&world),
        "fig6" => figures::fig6(&world),
        "fig7" => figures::fig7(&world),
        "fig8" => figures::fig8(&world),
        "fig9" => figures::fig9(&world),
        "fig10" => figures::fig10(&world),
        "fig11" => tables::table7_8(&world, false, true),
        "fig12" => tables::table7_8(&world, true, true),
        "fig13" => figures::fig13(&world),
        "ablation" => tables::ablation(&world),
        "all" => {
            tables::table6(&world);
            tables::table7_8(&world, false, true);
            tables::table7_8(&world, true, true);
            figures::fig5(&world);
            tables::table3(&world);
            figures::fig6(&world);
            tables::table4(&world);
            figures::fig7(&world);
            figures::fig8(&world);
            figures::fig9(&world);
            figures::fig10(&world);
            figures::fig13(&world);
            tables::ablation(&world);
        }
        _ => unreachable!("parse_cmdline vetted the command"),
    }
    println!("\n# done in {:.1}s", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn valid_command_and_flags_parse() {
        let Ok(Parsed::Run(cmd, opts)) = parse_cmdline(&args(&[
            "fig7",
            "--scale",
            "0.5",
            "--threads",
            "3",
            "--out",
            "elsewhere",
        ])) else {
            panic!("expected a run");
        };
        assert_eq!(cmd, "fig7");
        assert_eq!(opts.scale, 0.5);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.out_dir, "elsewhere");
    }

    #[test]
    fn unknown_flag_after_a_valid_command_is_an_error() {
        let err = parse_cmdline(&args(&["table3", "--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // Same for a stray positional.
        let err = parse_cmdline(&args(&["table3", "extra"])).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn malformed_flag_values_error_instead_of_panicking() {
        let err = parse_cmdline(&args(&["fig8", "--scale", "huge"])).unwrap_err();
        assert!(err.contains("huge") && err.contains("--scale"), "{err}");
        let err = parse_cmdline(&args(&["fig8", "--threads", "-2"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn missing_values_and_commands_error() {
        assert!(parse_cmdline(&args(&[])).unwrap_err().contains("missing"));
        let err = parse_cmdline(&args(&["fig9", "--seed"])).unwrap_err();
        assert!(err.contains("missing value for --seed"), "{err}");
        let err = parse_cmdline(&args(&["not-a-command"])).unwrap_err();
        assert!(err.contains("not-a-command"), "{err}");
    }

    #[test]
    fn out_of_range_options_error() {
        assert!(parse_cmdline(&args(&["fig7", "--scale", "0"])).is_err());
        assert!(parse_cmdline(&args(&["fig7", "--scale", "1.5"])).is_err());
        assert!(parse_cmdline(&args(&["fig7", "--instances", "0"])).is_err());
        assert!(parse_cmdline(&args(&["fig7", "--threads", "0"])).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(
            parse_cmdline(&args(&["--help"])),
            Ok(Parsed::Help)
        ));
        assert!(matches!(parse_cmdline(&args(&["-h"])), Ok(Parsed::Help)));
    }

    #[test]
    fn scenarios_is_a_known_command() {
        assert!(matches!(
            parse_cmdline(&args(&["scenarios"])),
            Ok(Parsed::Run(cmd, _)) if cmd == "scenarios"
        ));
    }

    #[test]
    fn scale_is_a_known_command() {
        let Ok(Parsed::Run(cmd, opts)) = parse_cmdline(&args(&["scale", "--scale", "0.05"])) else {
            panic!("expected a run");
        };
        assert_eq!(cmd, "scale");
        assert_eq!(opts.scale, 0.05);
    }

    #[test]
    fn workers_flag_parses_and_validates() {
        // The engine drains events on the calling thread, so there is
        // no drain-worker knob: `--workers` is an unknown flag.
        let err = parse_cmdline(&args(&["scale", "--workers", "4"])).unwrap_err();
        assert_eq!(err, "unknown flag `--workers`");
    }

    #[test]
    fn delta_is_a_known_command_with_scale() {
        let Ok(Parsed::Run(cmd, opts)) = parse_cmdline(&args(&["delta", "--scale", "0.1"])) else {
            panic!("expected a run");
        };
        assert_eq!(cmd, "delta");
        assert_eq!(opts.scale, 0.1);
    }
}
