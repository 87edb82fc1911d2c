//! Determinism battery: every built-in scenario must produce
//! byte-identical simulation metrics for the same seed — across repeated
//! runs, and through the sweep runner regardless of worker-thread count.
//! This is what lets BENCH_scenarios.json act as a regression baseline.

use mrvd_scenario::{builtins, run_scenario, sweep, ScenarioSpec, SweepPolicy};
use mrvd_sim::{RenegeMatch, SimResult};

/// Shrinks a built-in so one debug-mode run stays well under a second:
/// 20% volume/fleet and a 30 s batch interval.
fn quick(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec = spec.scaled(0.2);
    spec.sim.batch_interval_ms = Some(30_000);
    spec
}

/// Asserts that two runs of `name` have the same simulated outputs,
/// renege records included.
fn assert_same(name: &str, a: &SimResult, b: &SimResult) {
    if let Some(diff) = a.first_difference(b, RenegeMatch::Exact) {
        panic!("{name} diverged between runs at {diff}");
    }
}

fn assert_deterministic(name: &str) {
    let spec = quick(
        builtins()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no builtin named {name}")),
    );
    let a = run_scenario(&spec.materialize(), SweepPolicy::Near);
    let b = run_scenario(&spec.materialize(), SweepPolicy::Near);
    assert_same(name, &a, &b);
    assert!(a.total_riders > 0, "{name} generated no riders");
}

#[test]
fn baseline_weekday_is_deterministic() {
    assert_deterministic("baseline-weekday");
}

#[test]
fn rush_hour_surge_is_deterministic() {
    assert_deterministic("rush-hour-surge");
}

#[test]
fn airport_pulse_is_deterministic() {
    assert_deterministic("airport-pulse");
}

#[test]
fn rain_slowdown_is_deterministic() {
    assert_deterministic("rain-slowdown");
}

#[test]
fn driver_shortage_is_deterministic() {
    assert_deterministic("driver-shortage");
}

#[test]
fn weekend_lull_is_deterministic() {
    assert_deterministic("weekend-lull");
}

#[test]
fn queueing_policy_is_deterministic_on_the_baseline() {
    // The oracle-backed paper policy exercises a different code path
    // (per-region queue estimates) than the greedy baselines.
    let spec = quick(mrvd_scenario::baseline_weekday());
    let a = run_scenario(&spec.materialize(), SweepPolicy::IrgReal);
    let b = run_scenario(&spec.materialize(), SweepPolicy::IrgReal);
    assert_same("baseline-weekday/IRG-R", &a, &b);
    assert!(a.served > 0);
}

#[test]
fn sweep_metrics_are_independent_of_worker_thread_count() {
    let specs: Vec<ScenarioSpec> = builtins().into_iter().map(quick).collect();
    let policies = [SweepPolicy::Near];
    let one = sweep(&specs, &policies, 1);
    let four = sweep(&specs, &policies, 4);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.scenario, b.scenario, "cell order changed with threads");
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.served, b.served, "{}: served diverged", a.scenario);
        assert_eq!(a.reneged, b.reneged, "{}: reneged diverged", a.scenario);
        assert_eq!(a.total_riders, b.total_riders);
        assert_eq!(
            a.total_revenue.to_bits(),
            b.total_revenue.to_bits(),
            "{}: revenue diverged",
            a.scenario
        );
    }
}
