//! The `scenarios` subcommand: a parallel {policy} × {built-in scenario}
//! sweep over the declarative workloads of `mrvd-scenario`.
//!
//! Unlike the paper-reproduction commands, this one runs the built-ins
//! exactly as declared (a scenario's volume and fleet are part of its
//! definition), so `--scale`/`--instances` do not apply; `--threads` and
//! `--out` do. Results go to the console table and to
//! `<out>/BENCH_scenarios.json` (policy-quality metrics) plus
//! `<out>/BENCH_engine.json` (event-engine counters: empty-batch skip
//! rate, events processed, incremental-index maintenance stats, wall
//! clock per cell) so CI tracks both the dispatching quality and the
//! engine's performance trajectory.

use mrvd_scenario::{builtins, sweep, SweepPolicy};
use serde_json::{json, Value};

use crate::common::{dump_json, print_table, Options};

/// Runs the sweep, prints the comparison table and dumps the JSON.
pub fn scenarios(opts: &Options) {
    let specs = builtins();
    let policies = SweepPolicy::default_set();
    eprintln!(
        "[scenarios] sweeping {} scenarios × {} policies on {} threads…",
        specs.len(),
        policies.len(),
        opts.threads
    );
    let t0 = std::time::Instant::now();
    let cells = sweep(&specs, &policies, opts.threads);
    let total_wall_s = t0.elapsed().as_secs_f64();

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                c.policy.to_string(),
                c.total_riders.to_string(),
                c.served.to_string(),
                c.reneged.to_string(),
                format!("{:.1}%", c.service_rate * 100.0),
                format!("{:.0}", c.total_revenue),
                format!("{:.0}%", c.skip_rate * 100.0),
                c.index_ops.to_string(),
                c.index_regions_dirtied.to_string(),
                format!("{:.2}", c.wall_s),
            ]
        })
        .collect();
    print_table(
        "Scenario sweep — policies × built-in scenarios",
        &[
            "scenario", "policy", "riders", "served", "reneged", "rate", "revenue", "skip",
            "ix ops", "ix dirty", "wall (s)",
        ],
        &rows,
    );

    let cell_values: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "scenario": c.scenario,
                "policy": c.policy,
                "total_riders": c.total_riders,
                "served": c.served,
                "reneged": c.reneged,
                "service_rate": c.service_rate,
                "total_revenue": c.total_revenue,
                "mean_batch_time_s": c.batch_time_s,
                "wall_s": c.wall_s,
            })
        })
        .collect();
    let spec_values: Vec<Value> = specs.iter().map(|s| s.to_json()).collect();
    dump_json(
        opts,
        "BENCH_scenarios",
        json!({
            "threads": opts.threads,
            "total_wall_s": total_wall_s,
            "policies": policies.iter().map(|p| p.label()).collect::<Vec<&str>>(),
            "specs": spec_values,
            "cells": cell_values,
        }),
    );

    // Engine counters per cell: how much of the batch grid the event
    // core skipped, how many true-time events it applied, and how much
    // incremental maintenance the live structures needed.
    let engine_cells: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "scenario": c.scenario,
                "policy": c.policy,
                "batches": c.batches,
                "ticks_executed": c.ticks_executed,
                "ticks_skipped": c.ticks_skipped,
                "skip_rate": c.skip_rate,
                "events_processed": c.events_processed,
                "index_ops": c.index_ops,
                "index_regions_dirtied": c.index_regions_dirtied,
                "counts_ops": c.counts_ops,
                "counts_regions_dirtied": c.counts_regions_dirtied,
                "views_ops": c.views_ops,
                "views_entries_dirtied": c.views_entries_dirtied,
                "wall_s": c.wall_s,
            })
        })
        .collect();
    let total_batches: usize = cells.iter().map(|c| c.batches).sum();
    let total_executed: usize = cells.iter().map(|c| c.ticks_executed).sum();
    dump_json(
        opts,
        "BENCH_engine",
        json!({
            "threads": opts.threads,
            "total_wall_s": total_wall_s,
            "total_batches": total_batches,
            "total_ticks_executed": total_executed,
            "overall_skip_rate": if total_batches == 0 { 0.0 } else {
                (total_batches - total_executed) as f64 / total_batches as f64
            },
            "total_events_processed": cells.iter().map(|c| c.events_processed).sum::<usize>(),
            "total_index_ops": cells.iter().map(|c| c.index_ops).sum::<usize>(),
            "total_index_regions_dirtied":
                cells.iter().map(|c| c.index_regions_dirtied).sum::<usize>(),
            "total_counts_ops": cells.iter().map(|c| c.counts_ops).sum::<usize>(),
            "total_counts_regions_dirtied":
                cells.iter().map(|c| c.counts_regions_dirtied).sum::<usize>(),
            "total_views_ops": cells.iter().map(|c| c.views_ops).sum::<usize>(),
            "total_views_entries_dirtied":
                cells.iter().map(|c| c.views_entries_dirtied).sum::<usize>(),
            "cells": engine_cells,
        }),
    );
}
