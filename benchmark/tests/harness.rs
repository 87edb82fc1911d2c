//! Harness tests on the `--smoke` world (16×16, 2 000 orders, 50 drivers,
//! Δ = 60 s): the printed metric set, the statistics, the transparency of
//! the timing wrapper and the traced run, and `BENCHMARK.json` staying in
//! sync with the metric table.

use std::process::Command;
use std::time::Duration;

use mrvd_benchmark::clock;
use mrvd_benchmark::metrics::{
    median_of, median_percentile, nearest_rank, valid_name, MetricSpec, END_TO_END, PER_LAYER,
};
use mrvd_benchmark::run::{digest, run_rep};
use mrvd_benchmark::speed::{scale_of, SpeedProbe, INTERVAL_NS, REFERENCE_NS};
use mrvd_benchmark::timed::{Probe, TimedPolicy};
use mrvd_benchmark::workload::{
    demand_inputs, sim_config, PolicyKind, World, WorldSize, SMOKE, WORKLOADS,
};
use mrvd_core::{DemandOracle, DispatchConfig, Near, Rand, Upper};
use mrvd_demand::NycLikeGenerator;
use mrvd_sim::{DispatchPolicy, DriverSchedule, Simulator};
use mrvd_spatial::ConstantSpeedModel;

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs the binary on the smoke world; returns stdout and the exit status.
fn smoke_run(workload: &str, trace: &str) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mrvd-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--reps",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("run mrvd-benchmark");
    (
        String::from_utf8(out.stdout).expect("utf-8 output"),
        out.status.success(),
    )
}

fn names(v: &serde_json::Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(|a| a.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn every_benchmark_metric_is_printed_finite() {
    let bench = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        for workload in ["paper-irg", "city-near"] {
            let (stdout, ok) = smoke_run(workload, trace);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let lines: Vec<&str> = stdout.lines().collect();
            let summary: serde_json::Value =
                serde_json::from_str(lines.last().unwrap()).expect("last line is JSON");
            assert_eq!(summary.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));
            assert!(summary.get("attempted").unwrap().as_u64().unwrap() >= 1);
            for name in names(&bench, key) {
                let line = lines
                    .iter()
                    .find(|l| l.split(' ').next() == Some(name.as_str()))
                    .unwrap_or_else(|| panic!("{workload}: `{name}` not printed"));
                let value: f64 = line.split(' ').nth(1).unwrap().parse().unwrap();
                assert!(value.is_finite(), "{workload}: {line}");
                let json = summary.get("metrics").unwrap().get(&name).unwrap();
                assert_eq!(json.get("value").unwrap().as_f64(), Some(value));
            }
            for line in &lines[..lines.len() - 1] {
                let name = line.split(' ').next().unwrap();
                assert!(valid_name(name), "bad metric name in `{line}`");
            }
        }
    }
}

#[test]
fn nearest_rank_percentiles_and_rep_reductions() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&v, 50.0), Some(50));
    assert_eq!(nearest_rank(&v, 99.0), Some(99));
    assert_eq!(nearest_rank(&v, 100.0), Some(100));
    let small = [15, 20, 35, 40, 50];
    assert_eq!(nearest_rank(&small, 30.0), Some(20));
    assert_eq!(nearest_rank(&small, 40.0), Some(20));
    assert_eq!(nearest_rank(&small, 50.0), Some(35));
    assert_eq!(nearest_rank(&small, 99.0), Some(50));
    assert_eq!(nearest_rank(&[7], 99.0), Some(7));
    assert_eq!(nearest_rank(&[], 50.0), None);
    // Per repetition first (p50 = 2nd of 4, p99 = 4th of 4), then the
    // median over repetitions.
    let reps = vec![vec![1, 2, 3, 4], vec![9, 10, 11, 12], vec![5, 6, 7, 8]];
    assert_eq!(median_percentile(&reps, 50.0), Some(6));
    assert_eq!(median_percentile(&reps, 99.0), Some(8));
    assert_eq!(median_percentile(&reps[..2], 50.0), Some(2));
    assert_eq!(median_percentile(&[vec![], vec![3]], 50.0), Some(3));
    assert_eq!(median_percentile(&[], 50.0), None);
    assert_eq!(median_of(&[9, 1, 5]), Some(5));
    assert_eq!(median_of(&[4, 1, 3, 2]), Some(2));
    assert_eq!(median_of(&[]), None);
}

#[test]
fn metric_and_workload_names_are_well_formed() {
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    all.extend(WORKLOADS.iter().map(|w| w.name));
    assert!(
        all.iter().all(|n| valid_name(n) && n.len() <= 64),
        "{all:?}"
    );
    all.sort_unstable();
    let count = all.len();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    assert!(!valid_name("") && !valid_name("a b") && !valid_name("µs"));
    // Set-up time carries the largest bound, so work moved into set-up
    // cannot hide behind a looser bound elsewhere.
    let bound = |m: &MetricSpec| m.bound.expect("end-to-end metrics carry a bound");
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").map(bound);
    assert_eq!(setup, END_TO_END.iter().map(bound).reduce(f64::max));
}

#[test]
fn benchmark_json_names_exactly_the_metric_table() {
    let bench = benchmark_json();
    let workloads = bench.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(j.get("name").unwrap().as_str(), Some(w.name));
        assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
    }
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let list = bench.get(key).unwrap().as_array().unwrap();
        assert_eq!(list.len(), table.len(), "{key}: metric count");
        for (j, m) in list.iter().zip(table) {
            let MetricSpec {
                name,
                unit,
                better,
                bound,
            } = *m;
            assert_eq!(j.get("name").unwrap().as_str(), Some(name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(unit), "{name}");
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(better.as_str()),
                "{name}"
            );
            assert_eq!(j.get("bound").and_then(|b| b.as_f64()), bound, "{name}");
        }
    }
}

/// Digest of one smoke day with `policy`, bare or wrapped.
fn smoke_digest<P: DispatchPolicy>(policy: P, wrap: bool, probe: Option<Probe>) -> u64 {
    let seed = 7;
    let (world, _) = World::generate(&SMOKE, seed);
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(sim_config(&SMOKE, seed), &travel, &world.grid);
    let schedule = DriverSchedule::constant(world.fleet.len());
    let result = if wrap {
        let mut timed = TimedPolicy::new(policy, probe);
        sim.run_scheduled(&world.trips, &world.fleet, &schedule, &mut timed)
    } else {
        let mut bare = policy;
        sim.run_scheduled(&world.trips, &world.fleet, &schedule, &mut bare)
    };
    digest(&result)
}

fn assert_transparent<P: DispatchPolicy>(name: &str, build: impl Fn() -> P) {
    let bare = build();
    let timed = TimedPolicy::new(build(), None);
    assert_eq!(timed.name(), bare.name());
    assert_eq!(timed.teleports_pickup(), bare.teleports_pickup(), "{name}");
    assert_eq!(
        timed.invoke_every_batch(),
        bare.invoke_every_batch(),
        "{name}"
    );
    assert_eq!(
        smoke_digest(build(), false, None),
        smoke_digest(build(), true, None),
        "{name}"
    );
}

#[test]
fn timed_policy_is_transparent() {
    let (world, _) = World::generate(&SMOKE, 7);
    let irg = || PolicyKind::irg(world.series.clone());
    assert_transparent("NEAR", Near::default);
    assert_transparent("IRG-R", irg);
    // RAND must be invoked every batch and UPPER teleports its pickups:
    // both flags have to reach the engine through the wrapper.
    assert!(Rand::new(11).invoke_every_batch() && Upper.teleports_pickup());
    assert_transparent("RAND", || Rand::new(11));
    assert_transparent("UPPER", || Upper);
    // The probes own their state: a traced IRG-R day is the same day.
    let cfg = DispatchConfig::default();
    let probe = Probe::new(
        cfg.max_candidates,
        Some((DemandOracle::real(world.series.clone(), 0), cfg.clone())),
    );
    assert_eq!(
        smoke_digest(irg(), false, None),
        smoke_digest(irg(), true, Some(probe)),
        "traced IRG-R"
    );
}

#[test]
fn sampled_generation_is_the_plain_generation() {
    // Set-up samples the host speed from inside `generate_day_trips_with`
    // through a pass-through shaper; the day must be the one production's
    // `generate_day_trips` makes.
    let city = WorldSize { grid: 64, ..SMOKE };
    for size in [SMOKE, city] {
        let (world, times) = World::generate(&size, 5);
        let (grid, config) = demand_inputs(&size, 5);
        let plain = NycLikeGenerator::with_grid(grid, config).generate_day_trips(0);
        assert_eq!(world.trips, plain, "{}x{}", size.grid, size.grid);
        // The bracket before set-up always samples.
        assert!(!times.speed.samples().is_empty());
    }
}

#[test]
fn host_speed_scale_is_the_reference_over_the_trimmed_mean() {
    assert_eq!(scale_of(&[]), 1.0);
    assert_eq!(scale_of(&[REFERENCE_NS as u64]), 1.0);
    // The 10× sample is above twice the median and left out.
    let r = REFERENCE_NS as u64;
    assert_eq!(scale_of(&[r - 5_000, r + 5_000, 10 * r, r]), 1.0);
    assert_eq!(scale_of(&[2 * r, 2 * r, 2 * r]), 0.5);

    // Brackets always sample and do not count as time spent inside the
    // phase; in-phase ticks wait an interval after the last sample.
    let mut probe = SpeedProbe::new();
    let before = clock::now();
    probe.bracket();
    assert_eq!((probe.samples().len(), probe.spent_ns()), (1, 0));
    probe.tick_at(before);
    assert_eq!(probe.samples().len(), 1);
    probe.tick_at(before + Duration::from_secs(1) + Duration::from_nanos(INTERVAL_NS));
    assert_eq!(probe.samples().len(), 2);
    assert_eq!(probe.spent_ns(), probe.samples()[1]);
    assert!(probe.scale().is_finite() && probe.scale() > 0.0);
}

#[test]
fn traced_rep_matches_untraced_and_the_pinned_digest() {
    for w in &WORKLOADS {
        let untraced = run_rep(&SMOKE, w.policy, 1, false);
        let traced = run_rep(&SMOKE, w.policy, 1, true);
        assert_eq!(untraced.digest, traced.digest, "{}", w.name);
        assert_eq!(untraced.digest, w.smoke_digest_seed1, "{}", w.name);
        assert!(untraced.failures.is_empty() && traced.failures.is_empty());
        let probe = traced.probe.expect("traced reps carry probe totals");
        assert_eq!(probe.spans.len() as u64, 4 * traced.calls, "{}", w.name);
        assert!(untraced.probe.is_none());
    }
}
