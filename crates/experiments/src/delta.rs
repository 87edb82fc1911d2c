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
//! Results go to the console table and `<out>/BENCH_delta.json`, which
//! also carries a sparse-regime microbenchmark (1 waiting rider over a
//! 4 000-driver fleet) timing one executed batch of IRG-R under the
//! lazy rate path against the eager reference path.

use mrvd_bench::BatchFixture;
use mrvd_core::{DemandOracle, DispatchConfig, QueueingPolicy};
use mrvd_scenario::{builtins, sweep_deltas, SweepPolicy};
use mrvd_sim::DispatchPolicy;
use mrvd_spatial::ConstantSpeedModel;
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

    let micro = sparse_batch_microbench();
    println!(
        "\nsparse-regime executed batch ({} rider(s) / {} drivers, IRG-R): \
         reference rates {:.1} µs → lazy tracker {:.1} µs ({:.1}×); \
         regions filled per batch {:.0} → {:.1}; idle-time solves per batch {:.0} → {:.1}",
        micro.riders,
        micro.available_drivers,
        micro.reference_us,
        micro.tracker_us,
        micro.reference_us / micro.tracker_us,
        micro.reference_regions_per_batch,
        micro.tracker_regions_per_batch,
        micro.reference_ets_per_batch,
        micro.tracker_ets_per_batch,
    );

    let vmicro = views_microbench();
    println!(
        "sparse-regime view maintenance ({} rider(s) / {} drivers / {} busy): \
         scan-rebuild {:.2} µs → incremental {:.3} µs per executed batch ({:.0}×)",
        vmicro.riders,
        vmicro.available_drivers,
        vmicro.busy_drivers,
        vmicro.scan_us,
        vmicro.incremental_us,
        vmicro.scan_us / vmicro.incremental_us,
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
                "index_regions_dirtied": c.index_regions_dirtied,
                "counts_ops": c.counts_ops,
                "counts_regions_dirtied": c.counts_regions_dirtied,
                "views_ops": c.views_ops,
                "views_entries_dirtied": c.views_entries_dirtied,
                "wall_s": c.wall_s,
            })
        })
        .collect();
    let sparse_bench = json!({
        "riders": micro.riders,
        "available_drivers": micro.available_drivers,
        "busy_drivers": micro.busy_drivers,
        "reference_us": micro.reference_us,
        "tracker_us": micro.tracker_us,
        "speedup": micro.reference_us / micro.tracker_us,
        "reference_regions_per_batch": micro.reference_regions_per_batch,
        "tracker_regions_per_batch": micro.tracker_regions_per_batch,
        "reference_ets_per_batch": micro.reference_ets_per_batch,
        "tracker_ets_per_batch": micro.tracker_ets_per_batch,
    });
    let views_bench = json!({
        "riders": vmicro.riders,
        "available_drivers": vmicro.available_drivers,
        "busy_drivers": vmicro.busy_drivers,
        "scan_us": vmicro.scan_us,
        "incremental_us": vmicro.incremental_us,
        "speedup": vmicro.scan_us / vmicro.incremental_us,
    });
    dump_json(
        opts,
        "BENCH_delta",
        json!({
            "threads": opts.threads,
            "scale": opts.scale,
            "deltas_ms": DELTAS_MS.to_vec(),
            "total_wall_s": total_wall_s,
            "policies": policies.iter().map(|p| p.label()).collect::<Vec<&str>>(),
            "sparse_batch_bench": sparse_bench,
            "views_bench": views_bench,
            "cells": cell_values,
        }),
    );
}

/// Result of the sparse-regime view-maintenance microbenchmark.
struct ViewsBench {
    riders: usize,
    available_drivers: usize,
    busy_drivers: usize,
    scan_us: f64,
    incremental_us: f64,
}

/// Times the engine's per-executed-batch view work in the fine-Δ sparse
/// regime (one waiting rider over a 10 000-driver fleet): the full
/// waiting/available/busy scans the old engine ran every executed batch
/// ([`mrvd_sim::BatchViews::rebuild_reference`]) against the live views'
/// incremental path (one assignment round-trip of O(1) slot updates plus
/// the per-batch dirty drain). Same regime as the `batch_views`
/// criterion bench, recorded here so `BENCH_delta.json` carries the
/// number alongside the sweep it explains.
fn views_microbench() -> ViewsBench {
    use mrvd_sim::{BatchViews, BusyDriver};
    let fixture = BatchFixture::rush_hour(16, 1, 10_000, 500, 7);
    const WARMUP: usize = 10;
    const ITERS: usize = 200;
    let mut scan_views = BatchViews::new();
    let mut scan = || {
        scan_views.rebuild_reference(
            fixture.riders.iter().copied(),
            fixture.drivers.iter().copied(),
            fixture.busy.iter().copied(),
        );
        scan_views.waiting().len() + scan_views.available().len() + scan_views.busy().len()
    };
    for _ in 0..WARMUP {
        std::hint::black_box(scan());
    }
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(scan());
    }
    let scan_us = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;

    let mut views = BatchViews::new();
    views.rebuild_reference(
        fixture.riders.iter().copied(),
        fixture.drivers.iter().copied(),
        fixture.busy.iter().copied(),
    );
    let rider = fixture.riders[0];
    let driver = fixture.drivers[0];
    let busy = BusyDriver {
        id: driver.id,
        dropoff_ms: fixture.now_ms + 600_000,
        dropoff_pos: rider.dropoff,
    };
    let mut incremental = || {
        views.remove_waiting(rider.id);
        views.remove_available(driver.id);
        views.add_busy(busy);
        views.remove_busy(driver.id);
        views.add_available(driver);
        views.add_waiting(rider);
        let dirtied = views.entries_dirtied();
        views.clear_dirty();
        dirtied
    };
    for _ in 0..WARMUP {
        std::hint::black_box(incremental());
    }
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(incremental());
    }
    let incremental_us = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;

    ViewsBench {
        riders: fixture.riders.len(),
        available_drivers: fixture.drivers.len(),
        busy_drivers: fixture.busy.len(),
        scan_us,
        incremental_us,
    }
}

/// Result of the sparse-regime rate-path microbenchmark.
struct SparseBench {
    riders: usize,
    available_drivers: usize,
    busy_drivers: usize,
    reference_us: f64,
    tracker_us: f64,
    reference_regions_per_batch: f64,
    tracker_regions_per_batch: f64,
    reference_ets_per_batch: f64,
    tracker_ets_per_batch: f64,
}

/// Times one executed IRG-R batch in the regime fine Δ produces (one
/// waiting rider over a large idle fleet), over a prebuilt batch state
/// (the structures the engine keeps live), under the eager reference
/// rate path vs the lazy tracker. Candidate generation is
/// identical in both runs, so the difference is the rate path.
fn sparse_batch_microbench() -> SparseBench {
    let mut fixture = BatchFixture::rush_hour(16, 1, 4_000, 200, 7);
    // Anchored riders guarantee the batch actually assigns: the tracker
    // path then pays its one region fill, lazy idle-time solve and μ-bump
    // resolve —
    // the representative executed-batch cost, not the no-candidate floor.
    fixture.anchor_riders_to_drivers();
    let travel = ConstantSpeedModel::default();
    let state = fixture.batch_state();
    let ctx = state.context(fixture.now_ms, &travel);
    let time_policy = |policy: &mut QueueingPolicy| {
        const WARMUP: usize = 10;
        const ITERS: usize = 200;
        for _ in 0..WARMUP {
            std::hint::black_box(policy.assign(&ctx));
        }
        let t0 = std::time::Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(policy.assign(&ctx));
        }
        t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64
    };
    let oracle = || DemandOracle::real(fixture.series.clone(), 0);
    let mut reference = QueueingPolicy::irg(
        DispatchConfig {
            reference_rates: true,
            ..DispatchConfig::default()
        },
        oracle(),
    );
    let mut tracker = QueueingPolicy::irg(DispatchConfig::default(), oracle());
    let reference_us = time_policy(&mut reference);
    let tracker_us = time_policy(&mut tracker);
    // (regions filled, idle-time solves) per batch.
    let per_batch = |p: &QueueingPolicy| {
        let s = p.rate_stats();
        let batches = s.batches.max(1) as f64;
        (
            s.regions_filled as f64 / batches,
            s.ets_computed as f64 / batches,
        )
    };
    let (reference_regions_per_batch, reference_ets_per_batch) = per_batch(&reference);
    let (tracker_regions_per_batch, tracker_ets_per_batch) = per_batch(&tracker);
    SparseBench {
        riders: fixture.riders.len(),
        available_drivers: fixture.drivers.len(),
        busy_drivers: fixture.busy.len(),
        reference_us,
        tracker_us,
        reference_regions_per_batch,
        tracker_regions_per_batch,
        reference_ets_per_batch,
        tracker_ets_per_batch,
    }
}
