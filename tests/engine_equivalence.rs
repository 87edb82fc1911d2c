//! Property-based engine equivalence: the event-driven core must match
//! the legacy per-Δ batch loop bit-for-bit on random small worlds —
//! random trips, random fleets, random Δ-aligned shift schedules —
//! across every policy family (greedy baselines, the seeded-RNG RAND,
//! the queueing policy with a real oracle, the stateful POLAR
//! comparator, and the teleporting UPPER bound).

use mrvd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const DELTA_MS: u64 = 3_000;
const HORIZON_MS: u64 = 3_600_000;

/// A random world drawn from one seed: trips sorted by request time
/// inside the horizon, a driver pool, and a Δ-aligned supply schedule.
fn random_world(seed: u64) -> (Vec<TripRecord>, Vec<Point>, DriverSchedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_trips = rng.gen_range(0usize..45);
    let mut requests: Vec<u64> = (0..n_trips).map(|_| rng.gen_range(0..HORIZON_MS)).collect();
    requests.sort_unstable();
    let pt =
        |rng: &mut StdRng| Point::new(rng.gen_range(-74.02..-73.80), rng.gen_range(40.60..40.90));
    let trips: Vec<TripRecord> = requests
        .into_iter()
        .enumerate()
        .map(|(i, request_ms)| TripRecord {
            id: i as u64,
            request_ms,
            pickup: pt(&mut rng),
            dropoff: pt(&mut rng),
        })
        .collect();
    let pool: Vec<Point> = (0..rng.gen_range(0usize..9))
        .map(|_| pt(&mut rng))
        .collect();
    // 1–3 phases starting at 0, later ones Δ-aligned (the legacy loop
    // quantizes shift changes to batch boundaries, so alignment is the
    // exact-equivalence regime; the built-ins are all Δ-aligned too).
    let n_phases = rng.gen_range(1usize..4);
    let mut phases = vec![(0u64, rng.gen_range(0..=pool.len()))];
    for _ in 1..n_phases {
        let from = rng.gen_range(1..HORIZON_MS / DELTA_MS) * DELTA_MS;
        if phases.iter().all(|&(f, _)| f != from) {
            phases.push((from, rng.gen_range(0..=pool.len())));
        }
    }
    phases.sort_unstable();
    (trips, pool, DriverSchedule::new(phases))
}

fn policies(
    seed: u64,
    series: &DemandSeries,
    grid: &Grid,
    n_drivers: usize,
) -> Vec<Box<dyn DispatchPolicy>> {
    vec![
        Box::new(Near::default()),
        Box::new(Ltg::default()),
        Box::new(Rand::new(seed ^ 0xABCD)),
        Box::new(QueueingPolicy::irg(
            DispatchConfig::default(),
            DemandOracle::real(series.clone(), 0),
        )),
        // The same policy on the verbatim eager rate path — the engine
        // differential must hold for both rate estimators.
        Box::new(QueueingPolicy::irg(
            DispatchConfig {
                reference_rates: true,
                ..DispatchConfig::default()
            },
            DemandOracle::real(series.clone(), 0),
        )),
        // POLAR carries cross-batch state (the slot-rolled blueprint
        // budget), so it exercises the skip-exactness argument hardest.
        Box::new(Polar::new(
            PolarConfig::default(),
            &DemandOracle::real(series.clone(), 0),
            grid,
            n_drivers,
        )),
        Box::new(Upper),
    ]
}

proptest! {
    #[test]
    fn event_core_matches_reference_on_random_worlds(seed in 0u64..48) {
        let (trips, pool, schedule) = random_world(seed);
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let series = count_trips(&trips, &grid);
        let config = SimConfig {
            batch_interval_ms: DELTA_MS,
            horizon_ms: HORIZON_MS,
            seed,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        for (fast_p, slow_p) in policies(seed, &series, &grid, pool.len())
            .into_iter()
            .zip(policies(seed, &series, &grid, pool.len()))
        {
            let mut fast_p = fast_p;
            let mut slow_p = slow_p;
            let name = fast_p.name();
            let fast = sim.run_scheduled(&trips, &pool, &schedule, fast_p.as_mut());
            let slow = sim.run_scheduled_reference(&trips, &pool, &schedule, slow_p.as_mut());
            // Every simulated output matches; the legacy loop charges
            // reneges up to Δ late, so only the reneging riders do.
            let diff = fast.first_difference(&slow, RenegeMatch::RiderSet);
            prop_assert!(
                diff.is_none(),
                "seed {} policy {} diverged at {}",
                seed,
                name,
                diff.unwrap_or_default()
            );
            prop_assert!(fast.ticks_executed <= slow.ticks_executed);
            // The event core maintains its views at event times; the
            // reference loop scan-builds them every batch and reports no
            // live-view activity at all.
            prop_assert!(fast.views_entries_dirtied <= 2 * fast.views_ops);
            prop_assert_eq!(slow.views_ops, 0);
            prop_assert_eq!(slow.views_entries_dirtied, 0);
            // Exact renege times are never later than the legacy's
            // quantized ones, and never more than Δ earlier (record
            // order may differ inside one batch interval, so join by
            // rider).
            let slow_by_rider: std::collections::HashMap<u32, u64> = slow
                .reneges
                .iter()
                .map(|x| (x.rider.0, x.renege_ms))
                .collect();
            for f in &fast.reneges {
                let s = slow_by_rider[&f.rider.0];
                prop_assert!(f.renege_ms <= s, "exact {} after quantized {}", f.renege_ms, s);
                prop_assert!(s - f.renege_ms <= DELTA_MS);
            }
        }
    }
}
