//! Cross-crate invariant tests: adversarial policies, validity
//! enforcement, LS structural properties, and oracle consistency.

use mrvd::prelude::*;
use rand::rngs::StdRng;

fn small_world() -> (Vec<TripRecord>, Vec<Point>, Grid, DemandSeries) {
    let gen = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 3_000.0,
        seed: 77,
        ..NycLikeConfig::default()
    });
    let trips = gen.generate_day_trips(0);
    let mut rng = StdRng::seed_from_u64(1);
    let drivers = sample_driver_positions(&trips, 40, &mut rng);
    let grid = Grid::nyc_16x16();
    let series = count_trips(&trips, &grid);
    (trips, drivers, grid, series)
}

/// A hostile policy that assigns the first rider to the first driver
/// without checking validity — the simulator must reject it.
struct InvalidPairPolicy;

impl DispatchPolicy for InvalidPairPolicy {
    fn name(&self) -> String {
        "invalid".into()
    }
    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        // Find a rider/driver pair that is NOT valid and emit it.
        for r in ctx.riders {
            for d in ctx.drivers {
                if !ctx.is_valid_pair(r, d) {
                    return vec![Assignment {
                        rider: r.id,
                        driver: d.id,
                        estimated_idle_s: None,
                    }];
                }
            }
        }
        Vec::new()
    }
}

/// A hostile policy that double-books a driver in one batch.
struct DoubleBookPolicy;

impl DispatchPolicy for DoubleBookPolicy {
    fn name(&self) -> String {
        "double-book".into()
    }
    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let mut valid = Vec::new();
        for d in ctx.drivers {
            for r in ctx.riders {
                if ctx.is_valid_pair(r, d) {
                    valid.push(Assignment {
                        rider: r.id,
                        driver: d.id,
                        estimated_idle_s: None,
                    });
                    if valid.len() == 2 && valid[0].driver == valid[1].driver {
                        return valid;
                    }
                }
            }
            valid.clear();
        }
        Vec::new()
    }
}

#[test]
#[should_panic(expected = "deadline")]
fn simulator_rejects_invalid_pairs() {
    let (trips, drivers, grid, _) = small_world();
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    sim.run(&trips, &drivers, &mut InvalidPairPolicy);
}

#[test]
#[should_panic(expected = "twice in one batch")]
fn simulator_rejects_double_booking() {
    let (trips, drivers, grid, _) = small_world();
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    sim.run(&trips, &drivers, &mut DoubleBookPolicy);
}

#[test]
fn queueing_policy_outputs_only_valid_unique_pairs() {
    // Wrap IRG and audit every batch's output independently.
    struct Auditor {
        inner: QueueingPolicy,
        batches_checked: usize,
    }
    impl DispatchPolicy for Auditor {
        fn name(&self) -> String {
            "audited".into()
        }
        fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
            let out = self.inner.assign(ctx);
            let mut riders = std::collections::HashSet::new();
            let mut drivers = std::collections::HashSet::new();
            for a in &out {
                assert!(riders.insert(a.rider), "rider assigned twice");
                assert!(drivers.insert(a.driver), "driver assigned twice");
                let rider = ctx
                    .riders
                    .iter()
                    .find(|r| r.id == a.rider)
                    .expect("known rider");
                let driver = ctx
                    .drivers
                    .iter()
                    .find(|d| d.id == a.driver)
                    .expect("known driver");
                assert!(ctx.is_valid_pair(rider, driver), "invalid pair emitted");
                let est = a
                    .estimated_idle_s
                    .expect("queueing policies attach estimates");
                assert!(est.is_finite() && est >= 0.0);
            }
            if !out.is_empty() {
                self.batches_checked += 1;
            }
            out
        }
    }
    let (trips, drivers, grid, series) = small_world();
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    let mut audited = Auditor {
        inner: QueueingPolicy::irg(DispatchConfig::default(), DemandOracle::real(series, 0)),
        batches_checked: 0,
    };
    let res = sim.run(&trips, &drivers, &mut audited);
    assert!(audited.batches_checked > 10, "too few non-empty batches");
    assert!(res.served > 0);
}

#[test]
fn ls_assigns_at_least_as_much_revenue_weight_as_its_greedy_seed() {
    // LS only replaces riders per driver (never drops assignments), so
    // its per-batch cardinality matches IRG's. Verify on a full day via
    // total assignment counts with identical seeds.
    let (trips, drivers, grid, series) = small_world();
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    let mut irg = QueueingPolicy::irg(
        DispatchConfig::default(),
        DemandOracle::real(series.clone(), 0),
    );
    let irg_res = sim.run(&trips, &drivers, &mut irg);
    let mut ls = QueueingPolicy::ls(DispatchConfig::default(), DemandOracle::real(series, 0));
    let ls_res = sim.run(&trips, &drivers, &mut ls);
    // Identical batch cardinality would require identical downstream
    // states; over a full day the counts drift, but LS must stay in the
    // same ballpark (its swaps never reduce per-batch counts).
    assert!(
        (ls_res.served as f64) > 0.9 * irg_res.served as f64,
        "LS served {} vs IRG {}",
        ls_res.served,
        irg_res.served
    );
}

#[test]
fn oracle_window_covering_full_slot_returns_slot_counts() {
    let (_, _, grid, series) = small_world();
    let oracle = DemandOracle::real(series.clone(), 0);
    // Window exactly covering slot 17.
    let w = oracle.upcoming_riders(17 * SLOT_MS, SLOT_MS);
    assert_eq!(w.len(), grid.num_regions());
    for (r, &wr) in w.iter().enumerate() {
        assert!(
            (wr - series.get(0, 17, r)).abs() < 1e-9,
            "region {r}: window {} vs slot {}",
            wr,
            series.get(0, 17, r)
        );
    }
    // Two windows tiling a slot sum to the slot.
    let a = oracle.upcoming_riders(17 * SLOT_MS, SLOT_MS / 2);
    let b = oracle.upcoming_riders(17 * SLOT_MS + SLOT_MS / 2, SLOT_MS / 2);
    for r in 0..grid.num_regions() {
        assert!((a[r] + b[r] - w[r]).abs() < 1e-9);
    }
}

#[test]
fn upper_bound_service_is_monotone_in_fleet_size() {
    let (trips, _, grid, _) = small_world();
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    let mut rng = StdRng::seed_from_u64(9);
    let mut prev = 0usize;
    for n in [10usize, 40, 160] {
        let drivers = sample_driver_positions(&trips, n, &mut rng);
        let res = sim.run(&trips, &drivers, &mut Upper);
        assert!(
            res.served >= prev,
            "UPPER served {} with {n} drivers, less than {prev} with fewer",
            res.served
        );
        prev = res.served;
    }
}
