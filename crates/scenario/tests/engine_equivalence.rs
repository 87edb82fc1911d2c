//! Engine-equivalence battery: the event-driven core and the legacy
//! per-Δ batch loop must produce identical `SimResult`s on every
//! built-in scenario (the built-ins all use Δ-aligned driver phases, so
//! equivalence is exact, not approximate). Both runs build the same
//! policy and differ only in the loop around it: under `run_scenario`
//! the queueing policies read the event core's live index and
//! per-region counts, while under `run_scenario_reference` they read an
//! index and counts that `BatchState::rebuild` builds from scratch every
//! batch — so a bit-identical result pins engine, index and rate counts
//! at once.
//!
//! The default tests run each built-in at reduced volume but the *paper
//! default Δ = 3 s*, so the skip logic is exercised across thousands of
//! batch slots per scenario. The `#[ignore]`d test runs the full-scale
//! acceptance check — all six built-ins × the default policy set — and
//! is executed by CI's `cargo test -- --ignored` pass.

use mrvd_scenario::{
    builtins, run_scenario, run_scenario_configured, ScenarioSpec, ScenarioWorkload, SweepPolicy,
};
use mrvd_sim::{RenegeMatch, SimResult, Simulator};

/// Shrinks a built-in to 20% volume/fleet, keeping the default Δ = 3 s,
/// so one debug-mode differential run stays in the low seconds.
fn quick(spec: ScenarioSpec) -> ScenarioSpec {
    spec.scaled(0.2)
}

/// Runs one policy over one materialized scenario on the legacy per-Δ
/// batch loop ([`Simulator::run_scheduled_reference`]), the differential
/// baseline for [`run_scenario`].
fn run_scenario_reference(workload: &ScenarioWorkload, policy: SweepPolicy) -> SimResult {
    let sim = Simulator::new(
        workload.sim_config.clone(),
        &workload.travel,
        &workload.grid,
    );
    let mut p = policy.build(workload);
    sim.run_scheduled_reference(
        &workload.trips,
        &workload.driver_pool,
        &workload.schedule,
        p.as_mut(),
    )
}

/// Asserts that two runs of `name` have the same simulated outputs,
/// their reneges compared as `reneges` says: against the legacy loop,
/// which charges reneges up to Δ late, only the reneging riders match.
fn assert_same(name: &str, a: &SimResult, b: &SimResult, reneges: RenegeMatch) {
    if let Some(diff) = a.first_difference(b, reneges) {
        panic!("{name}: diverged at {diff}");
    }
}

fn assert_builtin_equivalent(name: &str, policy: SweepPolicy) {
    let spec = quick(
        builtins()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no builtin named {name}")),
    );
    let workload = spec.materialize();
    let fast = run_scenario(&workload, policy);
    let slow = run_scenario_reference(&workload, policy);
    assert_same(name, &fast, &slow, RenegeMatch::RiderSet);
    // The event core must actually skip work, not just match: every
    // built-in day has quiet stretches at Δ = 3 s.
    assert!(
        fast.ticks_executed < slow.ticks_executed,
        "{name}: no slot skipped ({} of {})",
        fast.ticks_executed,
        fast.batches
    );
    assert!(fast.events_processed > 0, "{name}: no events processed");
    // The bit-identical result above was produced through the live
    // incremental index (fast) against the reference loop's per-batch
    // from-scratch rebuild (slow) — assert that differential actually
    // happened.
    assert!(fast.index_ops > 0, "{name}: index never maintained");
    assert_eq!(slow.index_ops, 0, "{name}: reference loop grew an index");
    // Same story for the live per-region rate counts: maintained (and
    // sparse) under the event core, rebuilt per batch under the
    // reference loop.
    assert!(fast.counts_ops > 0, "{name}: counts never maintained");
    assert_eq!(slow.counts_ops, 0, "{name}: reference loop grew counts");
    // And for the live batch views: maintained at event times under the
    // event core, while the reference loop scan-builds its views and
    // reports no live-view activity.
    assert!(fast.views_ops > 0, "{name}: views never maintained");
    assert_eq!(slow.views_ops, 0, "{name}: reference loop grew views");
}

#[test]
fn baseline_weekday_matches_reference() {
    assert_builtin_equivalent("baseline-weekday", SweepPolicy::Near);
}

#[test]
fn rush_hour_surge_matches_reference() {
    assert_builtin_equivalent("rush-hour-surge", SweepPolicy::Ltg);
}

#[test]
fn airport_pulse_matches_reference() {
    assert_builtin_equivalent("airport-pulse", SweepPolicy::Near);
}

#[test]
fn rain_slowdown_matches_reference() {
    assert_builtin_equivalent("rain-slowdown", SweepPolicy::Near);
}

#[test]
fn driver_shortage_matches_reference() {
    // The shortage regime keeps riders waiting with no supply — the
    // adversarial case for skip logic and for RAND's per-batch RNG
    // stream (kept aligned via `invoke_every_batch`).
    assert_builtin_equivalent("driver-shortage", SweepPolicy::Rand);
}

#[test]
fn weekend_lull_matches_reference() {
    assert_builtin_equivalent("weekend-lull", SweepPolicy::IrgReal);
}

/// The large-grid acceptance check for the sharded event queue: a 64×64
/// grid with a 2 000-driver fleet at Δ = 1 s, run three ways — sharded
/// engine (auto shard count), forced single global heap, and the legacy
/// reference loop — must produce identical results. Exact renege
/// comparison between the two engine layouts (same event times); relaxed
/// renege-identity against the reference loop (it charges reneges up to
/// Δ later). CI's `--ignored` pass covers it.
#[test]
#[ignore = "large-grid differential run (minutes); cargo test -- --ignored"]
fn large_grid_sharded_matches_single_queue_and_reference() {
    let mut spec = ScenarioSpec::plain(
        "large-grid",
        "64×64 grid, 2 000 drivers, Δ = 1 s",
        40_000.0,
        2_000,
    );
    spec.grid_cols = 64;
    spec.grid_rows = 64;
    spec.sim.batch_interval_ms = Some(1_000);
    let workload = spec.materialize();
    for policy in [SweepPolicy::Near, SweepPolicy::IrgReal] {
        let name = format!("large-grid/{}", policy.label());
        let sharded = run_scenario_configured(&workload, policy, None, None);
        let single = run_scenario_configured(&workload, policy, None, Some(1));
        assert_same(&name, &sharded, &single, RenegeMatch::Exact);
        let reference = run_scenario_reference(&workload, policy);
        assert_same(&name, &sharded, &reference, RenegeMatch::RiderSet);
    }
}

/// The full-scale acceptance check: all six built-ins at their declared
/// volume, Δ = 3 s, against the default comparison policy set. Takes a
/// few minutes in debug; CI's `--ignored` pass covers it.
#[test]
#[ignore = "full-scale differential run (minutes); cargo test -- --ignored"]
fn all_builtins_match_reference_at_full_scale() {
    for spec in builtins() {
        let workload = spec.materialize();
        for policy in SweepPolicy::default_set() {
            let fast = run_scenario(&workload, policy);
            let slow = run_scenario_reference(&workload, policy);
            let name = format!("{}/{}", spec.name, policy.label());
            assert_same(&name, &fast, &slow, RenegeMatch::RiderSet);
        }
    }
}
