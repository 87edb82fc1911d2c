//! The parallel policy × scenario sweep runner.
//!
//! Materializes every scenario once, then runs every `(scenario, policy)`
//! cell on the shared [`mrvd_stats::parallel_map`] worker pool. Results
//! come back in deterministic input order regardless of the worker count.
//!
//! Every cell runs on the event core, where the queueing policies read
//! the engine's live per-region counts. The built-in engine-equivalence
//! battery (`tests/engine_equivalence.rs` of this crate) runs the same
//! [`SweepPolicy::build`] policies on the legacy per-Δ loop
//! ([`Simulator::run_scheduled_reference`]), whose counts are rebuilt
//! from scratch every batch, and requires identical outputs.

use mrvd_core::{DemandOracle, DispatchConfig, Ltg, Near, QueueingPolicy, Rand};
use mrvd_sim::{DispatchPolicy, SimResult, Simulator};
use mrvd_stats::parallel_map;

use crate::spec::ScenarioSpec;
use crate::workload::ScenarioWorkload;

/// A policy a sweep can run. Oracle-backed policies use the scenario's
/// *realized* counts (the real oracle), so sweeps measure dispatching,
/// not prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPolicy {
    /// Idle-ratio greedy with the real oracle (the paper's Algorithm 2).
    IrgReal,
    /// Local search with the real oracle (the paper's Algorithm 3).
    LsReal,
    /// The served-orders variant with the real oracle (Appendix C).
    ShortReal,
    /// Long-trip greedy baseline.
    Ltg,
    /// Nearest-trip greedy baseline.
    Near,
    /// Random valid assignment baseline.
    Rand,
}

impl SweepPolicy {
    /// Display label (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            SweepPolicy::IrgReal => "IRG-R",
            SweepPolicy::LsReal => "LS-R",
            SweepPolicy::ShortReal => "SHORT-R",
            SweepPolicy::Ltg => "LTG",
            SweepPolicy::Near => "NEAR",
            SweepPolicy::Rand => "RAND",
        }
    }

    /// The default comparison set: the paper's queueing policy flanked by
    /// its two strongest simple baselines.
    pub fn default_set() -> [SweepPolicy; 3] {
        [SweepPolicy::IrgReal, SweepPolicy::Ltg, SweepPolicy::Near]
    }

    /// Builds the policy against one materialized workload.
    pub fn build(&self, workload: &ScenarioWorkload) -> Box<dyn DispatchPolicy> {
        let oracle = || DemandOracle::real(workload.series.clone(), 0);
        let cfg = DispatchConfig::default();
        match self {
            SweepPolicy::IrgReal => Box::new(QueueingPolicy::irg(cfg, oracle())),
            SweepPolicy::LsReal => Box::new(QueueingPolicy::ls(cfg, oracle())),
            SweepPolicy::ShortReal => Box::new(QueueingPolicy::short(cfg, oracle())),
            SweepPolicy::Ltg => Box::new(Ltg::default()),
            SweepPolicy::Near => Box::new(Near::default()),
            SweepPolicy::Rand => Box::new(Rand::new(workload.spec.seed ^ 0x5EED_1E55)),
        }
    }
}

/// Runs one policy over one materialized scenario on the event core.
pub fn run_scenario(workload: &ScenarioWorkload, policy: SweepPolicy) -> SimResult {
    run_scenario_configured(workload, policy, None, None)
}

/// [`run_scenario`] with an optional batch-interval override and an
/// optional event-queue shard count override (`Some(1)` forces the
/// single global heap, `Some(0)`/`None` keep the config's sharding —
/// `0` = auto-sized to the grid). The Δ-sensitivity sweeps rerun one
/// materialized workload at many Δ values without regenerating trips
/// (the workload does not depend on Δ); the scale experiments pin the
/// sharded engine byte-identical to the single-queue layout while
/// comparing their wall times.
pub fn run_scenario_configured(
    workload: &ScenarioWorkload,
    policy: SweepPolicy,
    delta_ms: Option<u64>,
    event_shards: Option<usize>,
) -> SimResult {
    let mut config = workload.sim_config.clone();
    if let Some(delta) = delta_ms {
        config.batch_interval_ms = delta;
    }
    if let Some(shards) = event_shards {
        config.event_shards = shards;
    }
    let sim = Simulator::new(config, &workload.travel, &workload.grid);
    let mut p = policy.build(workload);
    sim.run_scheduled(
        &workload.trips,
        &workload.driver_pool,
        &workload.schedule,
        p.as_mut(),
    )
}

/// One `(scenario, policy)` cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Scenario name.
    pub scenario: String,
    /// Policy label.
    pub policy: &'static str,
    /// Batch interval Δ the cell ran at, ms (the scenario's own unless a
    /// Δ-sweep overrode it).
    pub delta_ms: u64,
    /// Riders that entered the platform.
    pub total_riders: usize,
    /// Served riders.
    pub served: usize,
    /// Reneged riders.
    pub reneged: usize,
    /// Served fraction.
    pub service_rate: f64,
    /// Total revenue (seconds of ride time at α = 1).
    pub total_revenue: f64,
    /// Mean wall-clock seconds per batch *slot* inside the policy
    /// (skipped slots charged zero; [`mrvd_sim::SimResult::mean_batch_time_s`]).
    pub batch_time_s: f64,
    /// Mean wall-clock seconds per *executed* batch inside the policy
    /// ([`mrvd_sim::SimResult::mean_executed_batch_time_s`]).
    pub exec_batch_time_s: f64,
    /// Wall-clock seconds for the whole cell (simulation + policy).
    pub wall_s: f64,
    /// Batch slots in the horizon (`⌈horizon / Δ⌉`).
    pub batches: usize,
    /// Batch slots at which the policy actually ran (the event core
    /// skips quiescent slots).
    pub ticks_executed: usize,
    /// Batch slots skipped ([`mrvd_sim::SimResult::ticks_skipped`]).
    pub ticks_skipped: usize,
    /// Skipped fraction of slots ([`mrvd_sim::SimResult::skip_rate`]).
    pub skip_rate: f64,
    /// State-transition events the engine applied at true event times.
    pub events_processed: usize,
    /// Mutations applied to the live availability index
    /// ([`mrvd_sim::SimResult::index_ops`]).
    pub index_ops: usize,
    /// Mutations applied to the live per-region batch-state counts
    /// ([`mrvd_sim::SimResult::counts_ops`]).
    pub counts_ops: usize,
    /// Mutations applied to the live batch views
    /// ([`mrvd_sim::SimResult::views_ops`]).
    pub views_ops: usize,
}

impl SweepCell {
    /// Builds a cell from one run's [`SimResult`] and wall-clock time.
    fn from_result(
        scenario: String,
        policy: SweepPolicy,
        result: &SimResult,
        wall_s: f64,
        delta_ms: u64,
    ) -> Self {
        SweepCell {
            scenario,
            policy: policy.label(),
            delta_ms,
            total_riders: result.total_riders,
            served: result.served,
            reneged: result.reneged,
            service_rate: result.service_rate(),
            total_revenue: result.total_revenue,
            batch_time_s: result.mean_batch_time_s(),
            exec_batch_time_s: result.mean_executed_batch_time_s(),
            wall_s,
            batches: result.batches,
            ticks_executed: result.ticks_executed,
            ticks_skipped: result.ticks_skipped(),
            skip_rate: result.skip_rate(),
            events_processed: result.events_processed,
            index_ops: result.index_ops,
            counts_ops: result.counts_ops,
            views_ops: result.views_ops,
        }
    }
}

/// Sweeps `policies` × `specs` on `threads` workers. Each scenario is
/// materialized once; cells are ordered scenario-major (`specs[0]` ×
/// every policy first), and the output order and every metric are
/// independent of `threads`.
pub fn sweep(specs: &[ScenarioSpec], policies: &[SweepPolicy], threads: usize) -> Vec<SweepCell> {
    let workloads: Vec<ScenarioWorkload> =
        parallel_map(specs.to_vec(), threads, |spec| spec.materialize());
    let jobs: Vec<(usize, SweepPolicy)> = (0..workloads.len())
        .flat_map(|w| policies.iter().map(move |&p| (w, p)))
        .collect();
    let workloads_ref = &workloads;
    parallel_map(jobs, threads, |&(w, policy)| {
        let workload = &workloads_ref[w];
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds only the wall_time_s telemetry column, never simulated results"
        )]
        let t0 = std::time::Instant::now();
        let result = run_scenario(workload, policy);
        SweepCell::from_result(
            workload.spec.name.clone(),
            policy,
            &result,
            t0.elapsed().as_secs_f64(),
            workload.sim_config.batch_interval_ms,
        )
    })
}

/// The Δ-sensitivity sweep (paper Fig. 8 territory, pushed sub-second):
/// every `(scenario, policy, Δ)` cell reruns the *same* materialized
/// workload — trips, fleet, deadlines and seeds do not depend on Δ — with
/// the batch interval overridden, so differences across a row are purely
/// batching effects. Cells are ordered scenario-major, then policy, then
/// Δ in the given order; like [`sweep`], output order and every metric
/// are independent of `threads`.
pub fn sweep_deltas(
    specs: &[ScenarioSpec],
    policies: &[SweepPolicy],
    deltas_ms: &[u64],
    threads: usize,
) -> Vec<SweepCell> {
    assert!(deltas_ms.iter().all(|&d| d > 0), "Δ must be positive");
    let workloads: Vec<ScenarioWorkload> =
        parallel_map(specs.to_vec(), threads, |spec| spec.materialize());
    let jobs: Vec<(usize, SweepPolicy, u64)> = (0..workloads.len())
        .flat_map(|w| {
            policies
                .iter()
                .flat_map(move |&p| deltas_ms.iter().map(move |&delta| (w, p, delta)))
        })
        .collect();
    let workloads_ref = &workloads;
    parallel_map(jobs, threads, |&(w, policy, delta)| {
        let workload = &workloads_ref[w];
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds only the wall_time_s telemetry column, never simulated results"
        )]
        let t0 = std::time::Instant::now();
        let result = run_scenario_configured(workload, policy, Some(delta), None);
        SweepCell::from_result(
            workload.spec.name.clone(),
            policy,
            &result,
            t0.elapsed().as_secs_f64(),
            delta,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SweepPolicy::IrgReal.label(), "IRG-R");
        assert_eq!(SweepPolicy::ShortReal.label(), "SHORT-R");
        assert_eq!(SweepPolicy::Ltg.label(), "LTG");
        assert_eq!(SweepPolicy::default_set().len(), 3);
    }

    #[test]
    fn sweep_preserves_scenario_major_order() {
        // Two tiny scenarios with a large batch interval keep this fast.
        let mut a = ScenarioSpec::plain("a", "", 600.0, 10);
        a.sim.batch_interval_ms = Some(60_000);
        let mut b = ScenarioSpec::plain("b", "", 600.0, 10);
        b.sim.batch_interval_ms = Some(60_000);
        let cells = sweep(&[a, b], &[SweepPolicy::Near, SweepPolicy::Ltg], 4);
        let got: Vec<(String, &str)> = cells
            .iter()
            .map(|c| (c.scenario.clone(), c.policy))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".to_string(), "NEAR"),
                ("a".to_string(), "LTG"),
                ("b".to_string(), "NEAR"),
                ("b".to_string(), "LTG"),
            ]
        );
        for c in &cells {
            assert!(c.served + c.reneged <= c.total_riders);
            assert!(c.wall_s >= 0.0);
            assert!(c.ticks_executed <= c.batches);
            assert_eq!(c.ticks_skipped, c.batches - c.ticks_executed);
            assert!((0.0..=1.0).contains(&c.skip_rate));
            assert!(
                c.events_processed >= c.total_riders,
                "every admission is an event"
            );
            assert!(c.index_ops > 0, "fleet seeding alone applies index ops");
            assert!(c.counts_ops > 0, "fleet seeding alone applies count ops");
            assert!(c.views_ops > 0, "fleet seeding alone applies view ops");
            assert_eq!(c.delta_ms, 60_000, "cell records the Δ it ran at");
        }
    }

    #[test]
    fn delta_sweep_reruns_one_workload_across_intervals() {
        let mut spec = ScenarioSpec::plain("d", "", 600.0, 10);
        spec.sim.batch_interval_ms = Some(60_000); // overridden per cell
        let cells = sweep_deltas(
            &[spec],
            &[SweepPolicy::Near, SweepPolicy::IrgReal],
            &[60_000, 20_000],
            4,
        );
        let got: Vec<(&str, u64)> = cells.iter().map(|c| (c.policy, c.delta_ms)).collect();
        assert_eq!(
            got,
            vec![
                ("NEAR", 60_000),
                ("NEAR", 20_000),
                ("IRG-R", 60_000),
                ("IRG-R", 20_000),
            ]
        );
        for pair in cells.chunks(2) {
            // Same materialized workload at both Δ: identical demand, a
            // 3× finer batch grid, and a Fig. 8-consistent direction
            // (finer batching never serves fewer riders here).
            assert_eq!(pair[0].total_riders, pair[1].total_riders);
            assert_eq!(pair[1].batches, 3 * pair[0].batches);
            assert!(pair[1].served >= pair[0].served);
        }
    }
}
