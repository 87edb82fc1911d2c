//! The `scale` subcommand: city-scale phase 1.
//!
//! Sweeps the workload's *scale axis* — grid resolution × fleet size ×
//! order volume, up to a 200×200 grid with a 50 000-driver fleet serving
//! a 1M-order day — at Δ = 1 s, timing the sharded event engine against
//! the forced single-heap layout on identical workloads. The two layouts
//! must be byte-identical (the shard tournament pops in exactly the
//! global heap order), so every cell is also a differential check; the
//! KPI columns are wall time and engine events per second.
//!
//! A second section reruns the six built-in scenarios (scaled by
//! `--scale`) under IRG-R on the sharded and the single-queue engine and
//! records their byte-identity, so `BENCH_scale.json` carries the
//! equivalence evidence next to the timings it justifies. (The built-ins
//! against the legacy reference loop are checked by the
//! `all_builtins_match_reference_at_full_scale` test, at full scale and
//! under three policies.) Each comparison records
//! [`SimResult::first_difference`]'s report of where the runs split; the
//! tables and the JSON are written first, and the command then exits 1
//! naming the first divergence.
//!
//! The [`SimResult::digest`] of every sharded run, folded into one
//! value, is written both into the JSON and to
//! `<out>/BENCH_scale.digest`, so two builds can be checked for
//! identical behaviour with a plain `cmp` of their digest files.
//!
//! `--scale` multiplies each point's orders and drivers (grid sizes are
//! fixed — resolution is the axis under test); the default 0.25 keeps
//! the sweep laptop-sized while the top point still runs a ≥10K-driver
//! day on the 200×200 grid. Results go to the console and
//! `<out>/BENCH_scale.json`.

use mrvd_scenario::{builtins, run_scenario_configured, ScenarioSpec, SweepPolicy};
use mrvd_sim::{RenegeMatch, ShardedEventQueue, SimResult};
use mrvd_stats::parallel_map;
use serde_json::{json, Value};

use crate::common::{dump_json, print_table, Options};

/// One point of the scale axis (volumes before `--scale`).
struct ScalePoint {
    /// Grid columns.
    cols: u32,
    /// Grid rows.
    rows: u32,
    /// Fleet size at `--scale 1.0`.
    drivers: usize,
    /// Order volume at `--scale 1.0`.
    orders: f64,
}

/// The scale axis: the paper's 16×16 baseline through city-scale
/// resolution. Orders stay at ~20 per driver per day throughout, so
/// cells differ by scale, not by load regime. Every point runs NEAR and
/// IRG-R.
const POINTS: [ScalePoint; 5] = [
    ScalePoint {
        cols: 16,
        rows: 16,
        drivers: 1_000,
        orders: 20_000.0,
    },
    ScalePoint {
        cols: 32,
        rows: 32,
        drivers: 2_000,
        orders: 40_000.0,
    },
    ScalePoint {
        cols: 64,
        rows: 64,
        drivers: 10_000,
        orders: 200_000.0,
    },
    ScalePoint {
        cols: 128,
        rows: 128,
        drivers: 25_000,
        orders: 500_000.0,
    },
    ScalePoint {
        cols: 200,
        rows: 200,
        drivers: 50_000,
        orders: 1_000_000.0,
    },
];

/// The batch interval the whole sweep runs at: the sub-second regime the
/// sharded engine exists for.
const SCALE_DELTA_MS: u64 = 1_000;

impl ScalePoint {
    /// Materializable spec of this point at `scale`.
    fn spec(&self, scale: f64) -> ScenarioSpec {
        let drivers = ((self.drivers as f64 * scale).round() as usize).max(1);
        let mut s = ScenarioSpec::plain(
            &format!("{}x{}-{}d", self.cols, self.rows, drivers),
            "scale-axis point",
            (self.orders * scale).max(1.0),
            drivers,
        );
        s.grid_cols = self.cols;
        s.grid_rows = self.rows;
        s.sim.batch_interval_ms = Some(SCALE_DELTA_MS);
        s
    }
}

/// The console column of a comparison: `yes`, or `NO` if the runs split.
fn same(diff: &Option<String>) -> &'static str {
    if diff.is_none() {
        "yes"
    } else {
        "NO"
    }
}

/// Runs the scale sweep, prints the tables and dumps the JSON; exits 1
/// after writing them if any two runs that must match diverged.
pub fn scale(opts: &Options) {
    eprintln!(
        "[scale] grid × fleet sweep at Δ = {SCALE_DELTA_MS} ms, scale {} — sharded vs single-queue engine…",
        opts.scale
    );
    let t0 = std::time::Instant::now();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cell_values: Vec<Value> = Vec::new();
    let mut digest = SimResult::EMPTY_DIGEST;
    let mut divergences: Vec<String> = Vec::new();
    for point in &POINTS {
        let spec = point.spec(opts.scale);
        let tm = std::time::Instant::now();
        let workload = spec.materialize();
        let materialize_s = tm.elapsed().as_secs_f64();
        let shards = ShardedEventQueue::auto_shard_count(workload.grid.num_regions());
        for policy in [SweepPolicy::Near, SweepPolicy::IrgReal] {
            let ts = std::time::Instant::now();
            let sharded = run_scenario_configured(&workload, policy, None, None);
            let sharded_s = ts.elapsed().as_secs_f64();
            let ts = std::time::Instant::now();
            let single = run_scenario_configured(&workload, policy, None, Some(1));
            let single_s = ts.elapsed().as_secs_f64();
            let diff = sharded.first_difference(&single, RenegeMatch::Exact);
            if let Some(diff) = &diff {
                divergences.push(format!(
                    "{}/{}: sharded and single-queue runs diverged at {diff}",
                    spec.name,
                    policy.label()
                ));
            }
            digest = sharded.fold_digest(digest);
            let events_per_s = sharded.events_processed as f64 / sharded_s.max(1e-9);
            rows.push(vec![
                spec.name.clone(),
                policy.label().to_string(),
                shards.to_string(),
                sharded.total_riders.to_string(),
                format!("{:.1}%", sharded.service_rate() * 100.0),
                sharded.events_processed.to_string(),
                format!("{:.2}M", events_per_s / 1e6),
                format!("{:.2}", sharded_s),
                format!("{:.2}", single_s),
                same(&diff).to_string(),
            ]);
            cell_values.push(json!({
                "point": spec.name,
                "grid_cols": point.cols,
                "grid_rows": point.rows,
                "regions": workload.grid.num_regions(),
                "drivers": workload.schedule.max_drivers(),
                "orders": workload.trips.len(),
                "policy": policy.label(),
                "delta_ms": SCALE_DELTA_MS,
                "event_shards": shards,
                "materialize_s": materialize_s,
                "total_riders": sharded.total_riders,
                "served": sharded.served,
                "reneged": sharded.reneged,
                "service_rate": sharded.service_rate(),
                "total_revenue": sharded.total_revenue,
                "batches": sharded.batches,
                "ticks_executed": sharded.ticks_executed,
                "skip_rate": sharded.skip_rate(),
                "events_processed": sharded.events_processed,
                "events_per_s": events_per_s,
                "views_ops": sharded.views_ops,
                "counts_ops": sharded.counts_ops,
                "index_ops": sharded.index_ops,
                "wall_s_sharded": sharded_s,
                "wall_s_single_queue": single_s,
                "sharded_equals_single_queue": diff.is_none(),
                "first_difference_single_queue": diff,
            }));
        }
    }
    print_table(
        "Scale axis — grid × fleet at Δ = 1 s, sharded engine (vs forced single queue)",
        &[
            "point",
            "policy",
            "shards",
            "riders",
            "rate",
            "events",
            "ev/s",
            "wall (s)",
            "1-queue (s)",
            "identical",
        ],
        &rows,
    );

    eprintln!(
        "[scale] six-builtin identity battery (IRG-R × sharded/single, scale {}) on {} threads…",
        opts.scale, opts.threads
    );
    let specs: Vec<ScenarioSpec> = builtins().iter().map(|s| s.scaled(opts.scale)).collect();
    let identity = parallel_map(specs, opts.threads, |spec| {
        let workload = spec.materialize();
        let sharded = run_scenario_configured(&workload, SweepPolicy::IrgReal, None, None);
        let single = run_scenario_configured(&workload, SweepPolicy::IrgReal, None, Some(1));
        (
            spec.name.clone(),
            sharded.first_difference(&single, RenegeMatch::Exact),
            sharded,
        )
    });
    let id_rows: Vec<Vec<String>> = identity
        .iter()
        .map(|(name, vs_single, _)| vec![name.clone(), same(vs_single).to_string()])
        .collect();
    print_table(
        "Sharded-engine byte-identity on the built-ins (IRG-R)",
        &["scenario", "= single queue"],
        &id_rows,
    );
    for (name, vs_single, sharded) in &identity {
        if let Some(diff) = vs_single {
            divergences.push(format!(
                "{name}: sharded diverged from single queue at {diff}"
            ));
        }
        digest = sharded.fold_digest(digest);
    }
    let total_wall_s = t0.elapsed().as_secs_f64();

    let identity_values: Vec<Value> = identity
        .iter()
        .map(|(name, vs_single, _)| {
            json!({
                "scenario": name,
                "policy": "IRG-R",
                "sharded_equals_single_queue": vs_single.is_none(),
                "first_difference_single_queue": vs_single,
            })
        })
        .collect();
    let digest_hex = format!("{digest:016x}");
    dump_json(
        opts,
        "BENCH_scale",
        json!({
            "scale": opts.scale,
            "threads": opts.threads,
            "delta_ms": SCALE_DELTA_MS,
            "total_wall_s": total_wall_s,
            "results_digest": digest_hex,
            "cells": cell_values,
            "builtin_identity": identity_values,
        }),
    );
    // The digest also lands in its own file so two sweeps can be
    // compared with `cmp`, without a JSON parser.
    let digest_path = std::path::Path::new(&opts.out_dir).join("BENCH_scale.digest");
    match std::fs::write(&digest_path, format!("{digest_hex}\n")) {
        Ok(()) => eprintln!("[out] wrote {}", digest_path.display()),
        Err(e) => eprintln!("[warn] cannot write {}: {e}", digest_path.display()),
    }
    if let Some(first) = divergences.first() {
        eprintln!(
            "[scale] {} comparison(s) diverged; the first: {first}",
            divergences.len()
        );
        std::process::exit(1);
    }
}
