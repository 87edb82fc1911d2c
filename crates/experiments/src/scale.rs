//! The `scale` subcommand: city-scale phase 1.
//!
//! Sweeps the workload's *scale axis* — grid resolution × fleet size ×
//! order volume, up to a 200×200 grid with a 50 000-driver fleet serving
//! a 1M-order day — at Δ = 1 s, timing the sharded event engine against
//! the forced single-heap layout on identical workloads. The two layouts
//! must be byte-identical (the shard tournament pops in exactly the
//! global heap order), so every cell is also a differential check; the
//! KPI columns are wall time, engine events per second and
//! `views_entries_dirtied` (the O(changes) work the policies actually
//! see per batch).
//!
//! A second section reruns the six built-in scenarios (scaled by
//! `--scale`) under IRG-R three ways — sharded engine, single-queue
//! engine, legacy reference loop — and records the byte-identity of each
//! pair, so `BENCH_scale.json` carries the equivalence evidence next to
//! the timings it justifies.
//!
//! An FNV-1a digest over the *simulated* outputs of every sharded run
//! (counts, revenue bits, the full assignment and renege streams — no
//! wall-clock fields) is written both into the JSON and to
//! `<out>/BENCH_scale.digest`, so two builds can be checked for
//! identical behaviour with a plain `cmp` of their digest files.
//!
//! `--scale` multiplies each point's orders and drivers (grid sizes are
//! fixed — resolution is the axis under test); the default 0.25 keeps
//! the sweep laptop-sized while the top point still runs a ≥10K-driver
//! day on the 200×200 grid. Results go to the console and
//! `<out>/BENCH_scale.json`.

use mrvd_scenario::{
    builtins, run_scenario_configured, run_scenario_reference, ScenarioSpec, SweepPolicy,
};
use mrvd_sim::{ShardedEventQueue, SimResult};
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
    /// Whether to also run IRG-R (its per-batch rate work still scales
    /// with the *occupied* region count, so it stays off the largest
    /// grids — the explicitly-scoped phase-2 wall).
    irg: bool,
}

/// The scale axis: the paper's 16×16 baseline through city-scale
/// resolution. Orders stay at ~20 per driver per day throughout, so
/// cells differ by scale, not by load regime.
const POINTS: [ScalePoint; 5] = [
    ScalePoint {
        cols: 16,
        rows: 16,
        drivers: 1_000,
        orders: 20_000.0,
        irg: true,
    },
    ScalePoint {
        cols: 32,
        rows: 32,
        drivers: 2_000,
        orders: 40_000.0,
        irg: true,
    },
    ScalePoint {
        cols: 64,
        rows: 64,
        drivers: 10_000,
        orders: 200_000.0,
        irg: false,
    },
    ScalePoint {
        cols: 128,
        rows: 128,
        drivers: 25_000,
        orders: 500_000.0,
        irg: false,
    },
    ScalePoint {
        cols: 200,
        rows: 200,
        drivers: 50_000,
        orders: 1_000_000.0,
        irg: false,
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

/// Byte-level equality of two runs: counts, revenue bits, the full
/// assignment streams, and the reneged-rider sets (`relaxed_reneges`
/// compares renege *identities* only — the legacy loop charges reneges
/// up to Δ later than the event core, never earlier).
fn results_identical(a: &SimResult, b: &SimResult, relaxed_reneges: bool) -> bool {
    let heads_match = a.served == b.served
        && a.reneged == b.reneged
        && a.still_waiting == b.still_waiting
        && a.total_riders == b.total_riders
        && a.total_revenue.to_bits() == b.total_revenue.to_bits()
        && a.batches == b.batches
        && a.assignments == b.assignments;
    if !heads_match {
        return false;
    }
    if relaxed_reneges {
        let ids = |r: &SimResult| {
            let mut v: Vec<u32> = r.reneges.iter().map(|x| x.rider.0).collect();
            v.sort_unstable();
            v
        };
        ids(a) == ids(b)
    } else {
        a.reneges.len() == b.reneges.len()
            && a.reneges.iter().zip(&b.reneges).all(|(x, y)| {
                (x.rider, x.request_ms, x.renege_ms) == (y.rider, y.request_ms, y.renege_ms)
            })
    }
}

/// FNV-1a (64-bit) fold of one little-endian `u64` into `hash`.
fn fnv_u64(hash: &mut u64, value: u64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds the *simulated* outputs of one run into the digest: counts,
/// revenue bits and the full assignment/renege streams — nothing
/// wall-clock-dependent, so two sweeps of the same behaviour digest
/// identically.
fn fold_result(hash: &mut u64, r: &SimResult) {
    fnv_u64(hash, r.served as u64);
    fnv_u64(hash, r.reneged as u64);
    fnv_u64(hash, r.still_waiting as u64);
    fnv_u64(hash, r.total_riders as u64);
    fnv_u64(hash, r.total_revenue.to_bits());
    fnv_u64(hash, r.batches as u64);
    for a in &r.assignments {
        fnv_u64(hash, u64::from(a.rider.0));
        fnv_u64(hash, u64::from(a.driver.0));
        fnv_u64(hash, a.batch_ms);
        fnv_u64(hash, a.pickup_ms);
        fnv_u64(hash, a.dropoff_ms);
        fnv_u64(hash, a.revenue.to_bits());
    }
    for x in &r.reneges {
        fnv_u64(hash, u64::from(x.rider.0));
        fnv_u64(hash, x.request_ms);
        fnv_u64(hash, x.renege_ms);
    }
}

/// The FNV-1a offset basis — the digest's initial value.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the scale sweep, prints the tables and dumps the JSON.
pub fn scale(opts: &Options) {
    eprintln!(
        "[scale] grid × fleet sweep at Δ = {SCALE_DELTA_MS} ms, scale {} — sharded vs single-queue engine…",
        opts.scale
    );
    let t0 = std::time::Instant::now();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cell_values: Vec<Value> = Vec::new();
    let mut digest = FNV_OFFSET;
    for point in &POINTS {
        let spec = point.spec(opts.scale);
        let tm = std::time::Instant::now();
        let workload = spec.materialize();
        let materialize_s = tm.elapsed().as_secs_f64();
        let shards = ShardedEventQueue::auto_shard_count(workload.grid.num_regions());
        let mut policies = vec![SweepPolicy::Near];
        if point.irg {
            policies.push(SweepPolicy::IrgReal);
        }
        for policy in policies {
            let ts = std::time::Instant::now();
            let sharded = run_scenario_configured(&workload, policy, None, None);
            let sharded_s = ts.elapsed().as_secs_f64();
            let ts = std::time::Instant::now();
            let single = run_scenario_configured(&workload, policy, None, Some(1));
            let single_s = ts.elapsed().as_secs_f64();
            let identical = results_identical(&sharded, &single, false);
            assert!(
                identical,
                "{}/{}: sharded and single-queue runs diverged",
                spec.name,
                policy.label()
            );
            fold_result(&mut digest, &sharded);
            let events_per_s = sharded.events_processed as f64 / sharded_s.max(1e-9);
            rows.push(vec![
                spec.name.clone(),
                policy.label().to_string(),
                shards.to_string(),
                sharded.total_riders.to_string(),
                format!("{:.1}%", sharded.service_rate() * 100.0),
                sharded.events_processed.to_string(),
                format!("{:.2}M", events_per_s / 1e6),
                sharded.views_entries_dirtied.to_string(),
                format!("{:.2}", sharded_s),
                format!("{:.2}", single_s),
                if identical { "yes" } else { "NO" }.to_string(),
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
                "views_entries_dirtied": sharded.views_entries_dirtied,
                "counts_ops": sharded.counts_ops,
                "index_ops": sharded.index_ops,
                "wall_s_sharded": sharded_s,
                "wall_s_single_queue": single_s,
                "sharded_equals_single_queue": identical,
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
            "dirtied",
            "wall (s)",
            "1-queue (s)",
            "identical",
        ],
        &rows,
    );

    eprintln!(
        "[scale] six-builtin identity battery (IRG-R × sharded/single/reference, scale {}) on {} threads…",
        opts.scale, opts.threads
    );
    let specs: Vec<ScenarioSpec> = builtins().iter().map(|s| s.scaled(opts.scale)).collect();
    let identity = parallel_map(specs, opts.threads, |spec| {
        let workload = spec.materialize();
        let sharded = run_scenario_configured(&workload, SweepPolicy::IrgReal, None, None);
        let single = run_scenario_configured(&workload, SweepPolicy::IrgReal, None, Some(1));
        let reference = run_scenario_reference(&workload, SweepPolicy::IrgReal);
        (
            spec.name.clone(),
            results_identical(&sharded, &single, false),
            results_identical(&sharded, &reference, true),
            sharded,
        )
    });
    let id_rows: Vec<Vec<String>> = identity
        .iter()
        .map(|(name, vs_single, vs_reference, _)| {
            vec![
                name.clone(),
                if *vs_single { "yes" } else { "NO" }.to_string(),
                if *vs_reference { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Sharded-engine byte-identity on the built-ins (IRG-R)",
        &["scenario", "= single queue", "= reference loop"],
        &id_rows,
    );
    for (name, vs_single, vs_reference, sharded) in &identity {
        assert!(vs_single, "{name}: sharded diverged from single queue");
        assert!(vs_reference, "{name}: sharded diverged from reference loop");
        fold_result(&mut digest, sharded);
    }
    let total_wall_s = t0.elapsed().as_secs_f64();

    let identity_values: Vec<Value> = identity
        .iter()
        .map(|(name, vs_single, vs_reference, _)| {
            json!({
                "scenario": name,
                "policy": "IRG-R",
                "sharded_equals_single_queue": vs_single,
                "sharded_equals_reference": vs_reference,
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
}
