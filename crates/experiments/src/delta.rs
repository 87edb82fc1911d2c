//! The `delta` subcommand: the Δ-sensitivity experiment (paper Fig. 8
//! territory, pushed sub-second).
//!
//! Sweeps the batch interval Δ ∈ {3 s, 1 s, 500 ms, 250 ms, 100 ms} over
//! the built-in scenarios for the queueing policy and its strongest
//! cheap baseline. Each `(scenario, policy)` row reruns one materialized
//! workload, so differences down a column are purely batching effects.
//! The event core makes the empty slots free (at Δ = 100 ms a day is
//! 864 000 slots, almost all skipped) and the lazy rate tracker +
//! live candidate index make the *executed* sparse-change batches cheap —
//! the two facts this experiment exists to demonstrate.
//!
//! Unlike `scenarios`, the built-ins are scaled by `--scale` (default
//! 0.25) so a full sweep stays laptop-sized; `--threads`/`--out` apply.
//! Results go to the console table and `<out>/BENCH_delta.json`. The
//! cost of one executed sparse-regime batch is timed by the criterion
//! benches in `crates/bench`: `batch_views` (view maintenance against
//! the scan rebuild) and `rate_estimation` (a whole IRG batch on the
//! lazy rate path against the eager estimation alone).

use mrvd_scenario::{builtins, sweep_deltas, SweepPolicy};
use serde_json::{json, Value};

use crate::common::{dump_json, print_table, Options};

/// The swept batch intervals, ms (the paper's default first).
const DELTAS_MS: [u64; 5] = [3_000, 1_000, 500, 250, 100];

/// Runs the Δ sweep, prints the table and dumps the JSON.
pub fn delta(opts: &Options) {
    let specs: Vec<_> = builtins().iter().map(|s| s.scaled(opts.scale)).collect();
    let policies = [SweepPolicy::IrgReal, SweepPolicy::Near];
    eprintln!(
        "[delta] sweeping {} scenarios × {} policies × {} batch intervals on {} threads (scale {})…",
        specs.len(),
        policies.len(),
        DELTAS_MS.len(),
        opts.threads,
        opts.scale
    );
    let t0 = std::time::Instant::now();
    let cells = sweep_deltas(&specs, &policies, &DELTAS_MS, opts.threads);
    let total_wall_s = t0.elapsed().as_secs_f64();

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.scenario.clone(),
                c.policy.to_string(),
                format!("{}", c.delta_ms),
                c.total_riders.to_string(),
                c.served.to_string(),
                format!("{:.1}%", c.service_rate * 100.0),
                format!("{:.0}", c.total_revenue),
                format!("{:.1}%", c.skip_rate * 100.0),
                c.ticks_executed.to_string(),
                format!("{:.1}", c.exec_batch_time_s * 1e6),
                format!("{:.2}", c.wall_s),
            ]
        })
        .collect();
    print_table(
        "Δ-sensitivity sweep — revenue, reneging and batch cost vs batch interval",
        &[
            "scenario", "policy", "Δ (ms)", "riders", "served", "rate", "revenue", "skip", "exec",
            "µs/exec", "wall (s)",
        ],
        &rows,
    );

    let cell_values: Vec<Value> = cells
        .iter()
        .map(|c| {
            json!({
                "scenario": c.scenario,
                "policy": c.policy,
                "delta_ms": c.delta_ms,
                "total_riders": c.total_riders,
                "served": c.served,
                "reneged": c.reneged,
                "service_rate": c.service_rate,
                "total_revenue": c.total_revenue,
                "mean_batch_time_s": c.batch_time_s,
                "mean_executed_batch_time_s": c.exec_batch_time_s,
                "batches": c.batches,
                "ticks_executed": c.ticks_executed,
                "ticks_skipped": c.ticks_skipped,
                "skip_rate": c.skip_rate,
                "events_processed": c.events_processed,
                "index_ops": c.index_ops,
                "counts_ops": c.counts_ops,
                "views_ops": c.views_ops,
                "wall_s": c.wall_s,
            })
        })
        .collect();
    dump_json(
        opts,
        "BENCH_delta",
        json!({
            "threads": opts.threads,
            "scale": opts.scale,
            "deltas_ms": DELTAS_MS.to_vec(),
            "total_wall_s": total_wall_s,
            "policies": policies.iter().map(|p| p.label()).collect::<Vec<&str>>(),
            "cells": cell_values,
        }),
    );
}
