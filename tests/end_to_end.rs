//! Cross-crate integration tests: a complete (small-scale) reproduction
//! pipeline — generate a day, fit predictors, run every policy in the
//! simulator — checking the qualitative relationships the paper reports.

use mrvd::prelude::*;
use rand::rngs::StdRng;

/// A small but non-trivial scenario: ~8K orders, scarce drivers.
struct Scenario {
    trips: Vec<TripRecord>,
    drivers: Vec<Point>,
    grid: Grid,
    travel: ConstantSpeedModel,
    real_series: DemandSeries,
}

fn scenario(n_drivers: usize) -> Scenario {
    let gen = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 8_000.0,
        seed: 42,
        ..NycLikeConfig::default()
    });
    let trips = gen.generate_day_trips(0);
    let mut rng = StdRng::seed_from_u64(7);
    let drivers = sample_driver_positions(&trips, n_drivers, &mut rng);
    let grid = Grid::nyc_16x16();
    let real_series = count_trips(&trips, &grid);
    Scenario {
        trips,
        drivers,
        grid,
        travel: ConstantSpeedModel::default(),
        real_series,
    }
}

fn run(s: &Scenario, policy: &mut dyn DispatchPolicy) -> SimResult {
    let sim = Simulator::new(SimConfig::default(), &s.travel, &s.grid);
    sim.run(&s.trips, &s.drivers, policy)
}

fn real_oracle(s: &Scenario) -> DemandOracle {
    DemandOracle::real(s.real_series.clone(), 0)
}

#[test]
fn all_policies_complete_a_day_and_conserve_riders() {
    let s = scenario(120);
    let policies: Vec<Box<dyn DispatchPolicy>> = vec![
        Box::new(QueueingPolicy::irg(
            DispatchConfig::default(),
            real_oracle(&s),
        )),
        Box::new(QueueingPolicy::ls(
            DispatchConfig::default(),
            real_oracle(&s),
        )),
        Box::new(QueueingPolicy::short(
            DispatchConfig::default(),
            real_oracle(&s),
        )),
        Box::new(Ltg::default()),
        Box::new(Near::default()),
        Box::new(Rand::new(5)),
        Box::new(Polar::new(
            PolarConfig::default(),
            &real_oracle(&s),
            &s.grid,
            120,
        )),
        Box::new(Upper),
    ];
    // Every policy's output digest on this day, pinned, so a change to
    // any policy's code that moves its outputs fails here. LS-R's equals
    // IRG-R's: its local search changes no assignment on this day (both
    // serve 4,025 riders).
    let pinned: [(&str, u64); 8] = [
        ("IRG-R", 0x99f8_e44b_e5a1_d247),
        ("LS-R", 0x99f8_e44b_e5a1_d247),
        ("SHORT-R", 0x9d9b_16d5_3ccf_c1ab),
        ("LTG", 0xac56_cbcb_ba8c_1b56),
        ("NEAR", 0x01c5_1f6c_1d88_a5cd),
        ("RAND", 0x6db7_03aa_fb1e_03ae),
        ("POLAR-R", 0x8d8d_fffb_1875_9f93),
        ("UPPER", 0x1e2f_6183_e901_b133),
    ];
    for (mut p, (name, digest)) in policies.into_iter().zip(pinned) {
        let res = run(&s, p.as_mut());
        assert_eq!(res.policy, name, "policy order");
        assert_eq!(
            res.digest(),
            digest,
            "{}: output digest {:#018x}, pinned {digest:#018x}",
            res.policy,
            res.digest()
        );
        assert_eq!(
            res.served + res.reneged + res.still_waiting,
            res.total_riders,
            "{}: rider conservation",
            res.policy
        );
        assert!(res.served > 0, "{}: should serve someone", res.policy);
        let sum: f64 = res.assignments.iter().map(|a| a.revenue).sum();
        assert!(
            (res.total_revenue - sum).abs() < 1e-6,
            "{}: revenue consistency",
            res.policy
        );
    }
}

#[test]
fn upper_dominates_every_real_policy() {
    let s = scenario(100);
    let upper = run(&s, &mut Upper);
    for mut p in [
        Box::new(QueueingPolicy::ls(
            DispatchConfig::default(),
            real_oracle(&s),
        )) as Box<dyn DispatchPolicy>,
        Box::new(Ltg::default()),
        Box::new(Near::default()),
        Box::new(Rand::new(5)),
    ] {
        let res = run(&s, p.as_mut());
        assert!(
            upper.total_revenue >= res.total_revenue,
            "UPPER {} < {} of {}",
            upper.total_revenue,
            res.total_revenue,
            res.policy
        );
    }
}

#[test]
fn queueing_policies_beat_ltg_and_hold_up_against_rand() {
    // The paper's headline ordering (LS ≥ IRG above the baselines) is
    // not yet measured at paper scale. ROADMAP item 11 plans that
    // measurement; its evidence so far has RAND ahead of IRG-R on the
    // benchmark's 70K-order `paper-irg` world on 6 of 6 seeds. At this
    // small CI-friendly scale the queueing policies must beat LTG and
    // stay within noise of RAND (whose random driver choice gains an
    // accidental rebalancing advantage in sparse regimes). 150 drivers
    // is the smallest fleet where the ordering is outside realization
    // noise; at 100 the margins are ±0.5% and flip with the RNG stream.
    let s = scenario(150);
    let irg = run(
        &s,
        &mut QueueingPolicy::irg(DispatchConfig::default(), real_oracle(&s)),
    );
    let ls = run(
        &s,
        &mut QueueingPolicy::ls(DispatchConfig::default(), real_oracle(&s)),
    );
    let ltg = run(&s, &mut Ltg::default());
    let rand = run(&s, &mut Rand::new(5));
    assert!(
        irg.total_revenue > ltg.total_revenue,
        "IRG {} vs LTG {}",
        irg.total_revenue,
        ltg.total_revenue
    );
    assert!(
        ls.total_revenue > ltg.total_revenue,
        "LS {} vs LTG {}",
        ls.total_revenue,
        ltg.total_revenue
    );
    assert!(
        irg.total_revenue > 0.97 * rand.total_revenue,
        "IRG {} vs RAND {}",
        irg.total_revenue,
        rand.total_revenue
    );
    assert!(
        ls.total_revenue > 0.97 * rand.total_revenue,
        "LS {} vs RAND {}",
        ls.total_revenue,
        rand.total_revenue
    );
}

#[test]
fn short_serves_at_least_as_many_orders_as_ltg() {
    // Appendix C: SHORT is the served-orders specialist; LTG chases
    // revenue with long trips and serves fewer orders. Like the ordering
    // test above, this needs enough fleet density to sit outside
    // realization noise (at 100 drivers SHORT and LTG tie ±1 rider).
    let s = scenario(150);
    let short = run(
        &s,
        &mut QueueingPolicy::short(DispatchConfig::default(), real_oracle(&s)),
    );
    let ltg = run(&s, &mut Ltg::default());
    assert!(
        short.served >= ltg.served,
        "SHORT {} vs LTG {}",
        short.served,
        ltg.served
    );
}

#[test]
fn more_drivers_mean_more_revenue() {
    // The Figure 7 trend.
    let small = scenario(60);
    let large = scenario(200);
    let r_small = run(
        &small,
        &mut QueueingPolicy::irg(DispatchConfig::default(), real_oracle(&small)),
    );
    let r_large = run(
        &large,
        &mut QueueingPolicy::irg(DispatchConfig::default(), real_oracle(&large)),
    );
    assert!(
        r_large.total_revenue > r_small.total_revenue,
        "200 drivers {} vs 60 drivers {}",
        r_large.total_revenue,
        r_small.total_revenue
    );
    assert!(r_large.served > r_small.served);
}

#[test]
fn idle_estimates_pair_up_for_the_queueing_policies() {
    let s = scenario(120);
    let res = run(
        &s,
        &mut QueueingPolicy::irg(DispatchConfig::default(), real_oracle(&s)),
    );
    let pairs = res.idle_estimate_pairs();
    assert!(
        pairs.len() > 50,
        "need a meaningful sample of (estimate, real) pairs, got {}",
        pairs.len()
    );
    assert!(pairs.iter().all(|&(e, r)| e >= 0.0 && r >= 0.0));
}

#[test]
fn idle_pairs_skip_a_driver_who_went_off_shift_in_between() {
    // One driver serves a trip at 0 s, is off shift from 1 200 s to
    // 2 400 s, and serves a second trip at 3 000 s. Its idle interval
    // restarted at the wake-up, so the realized idle after the first
    // dropoff is unknown and the pair is left out.
    let (p, q) = (Point::new(-73.98, 40.75), Point::new(-73.97, 40.76));
    let trip = |id, request_ms, pickup, dropoff| TripRecord {
        id,
        request_ms,
        pickup,
        dropoff,
    };
    let trips = vec![trip(0, 0, p, q), trip(1, 3_000_000, q, p)];
    let grid = Grid::nyc_16x16();
    let travel = ConstantSpeedModel::default();
    let oracle = DemandOracle::real(count_trips(&trips, &grid), 0);
    let schedule = DriverSchedule::new(vec![(0, 1), (1_200_000, 0), (2_400_000, 1)]);
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    let mut irg = QueueingPolicy::irg(DispatchConfig::default(), oracle);
    let res = sim.run_scheduled(&trips, &[p], &schedule, &mut irg);
    assert_eq!(res.served, 2);
    let (first, second) = (&res.assignments[0], &res.assignments[1]);
    assert!(first.estimated_idle_s.is_some(), "{first:?}");
    assert!(first.dropoff_ms < 1_200_000, "{first:?}");
    assert_eq!(second.batch_ms - second.driver_idle_ms, 2_400_000);
    assert_eq!(res.idle_estimate_pairs(), vec![]);
}

#[test]
fn predicted_oracle_end_to_end() {
    // Train HA on 8 history days of counts, then dispatch with IRG-P.
    let gen = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 6_000.0,
        seed: 9,
        ..NycLikeConfig::default()
    });
    let history = gen.generate_counts(9); // days 0..8 = history, day 8 replaced below
    let trips = gen.generate_day_trips(8);
    let grid = Grid::nyc_16x16();
    // Build the full series: history days 0..8 + the realized test day 8.
    let mut series = history;
    let realized = count_trips(&trips, &grid);
    for slot in 0..SLOTS_PER_DAY {
        for r in 0..grid.num_regions() {
            series.set(8, slot, r, realized.get(0, slot, r));
        }
    }
    let mut ha = HistoricalAverage;
    ha.fit(&series, 8);
    let oracle = DemandOracle::predicted(Box::new(ha), series, 8);
    let mut policy = QueueingPolicy::irg(DispatchConfig::default(), oracle);
    assert_eq!(policy.name(), "IRG-P");
    let mut rng = StdRng::seed_from_u64(3);
    let drivers = sample_driver_positions(&trips, 80, &mut rng);
    let travel = ConstantSpeedModel::default();
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    let res = sim.run(&trips, &drivers, &mut policy);
    assert!(res.served > 0);
    // IRG-P's output digest on this day, pinned like the real-oracle
    // policies' above, so a change to the predicted oracle's path that
    // moves its outputs fails here.
    let pinned = 0xf315_8631_81be_b173_u64;
    assert_eq!(
        res.digest(),
        pinned,
        "{}: output digest {:#018x}, pinned {pinned:#018x}",
        res.policy,
        res.digest()
    );
}
