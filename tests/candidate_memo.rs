//! Engine-level differential test of the candidate search's memory of
//! empty radius queries: at every batch the event engine executes, the
//! candidates a scratch carried across the whole run returns must equal
//! those of a fresh scratch, which runs every query. Random small worlds
//! cover shift changes and empty fleets; a driver-shortage day is the
//! regime where almost every query is skipped.

use mrvd::core::{valid_candidates, valid_candidates_with, CandidateScratch, CandidateStats};
use mrvd::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// IRG-R behind a check: before delegating each batch, compares the
/// candidates of its own persistent scratch with a fresh scratch's.
struct MemoCheck {
    inner: QueueingPolicy,
    scratch: CandidateScratch,
}

impl MemoCheck {
    fn new(series: &DemandSeries) -> Self {
        Self {
            inner: QueueingPolicy::irg(
                DispatchConfig::default(),
                DemandOracle::real(series.clone(), 0),
            ),
            scratch: CandidateScratch::new(),
        }
    }
}

impl DispatchPolicy for MemoCheck {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let max = DispatchConfig::default().max_candidates;
        let reused = valid_candidates_with(ctx, max, &mut self.scratch);
        let fresh = valid_candidates(ctx, max);
        assert_eq!(reused.pairs, fresh.pairs, "batch at {} ms", ctx.now_ms);
        self.inner.assign(ctx)
    }
}

/// Runs the checked policy over one world and returns the candidate
/// counters of its scratch and of the IRG inside it (which skips its
/// search on batches without drivers).
fn run_checked(
    trips: &[TripRecord],
    pool: &[Point],
    schedule: &DriverSchedule,
    config: SimConfig,
) -> (CandidateStats, CandidateStats) {
    let grid = Grid::nyc_16x16();
    let travel = ConstantSpeedModel::default();
    let series = count_trips(trips, &grid);
    let mut policy = MemoCheck::new(&series);
    let sim = Simulator::new(config, &travel, &grid);
    let checked = sim.run_scheduled(trips, pool, schedule, &mut policy);
    // The check does not change what IRG decides.
    let mut bare = QueueingPolicy::irg(DispatchConfig::default(), DemandOracle::real(series, 0));
    let plain = sim.run_scheduled(trips, pool, schedule, &mut bare);
    if let Some(diff) = checked.first_difference(&plain, RenegeMatch::Exact) {
        panic!("the checked run diverged from plain IRG at {diff}");
    }
    (policy.scratch.stats(), policy.inner.candidate_stats())
}

#[test]
fn remembered_empty_queries_match_fresh_ones_on_random_worlds() {
    const DELTA_MS: u64 = 3_000;
    const HORIZON_MS: u64 = 3_600_000;
    let mut total = CandidateStats::default();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = |rng: &mut StdRng| {
            Point::new(rng.gen_range(-74.02..-73.80), rng.gen_range(40.60..40.90))
        };
        let mut requests: Vec<u64> = (0..rng.gen_range(0usize..60))
            .map(|_| rng.gen_range(0..HORIZON_MS))
            .collect();
        requests.sort_unstable();
        let trips: Vec<TripRecord> = (0u64..)
            .zip(requests)
            .map(|(id, request_ms)| TripRecord {
                id,
                request_ms,
                pickup: pt(&mut rng),
                dropoff: pt(&mut rng),
            })
            .collect();
        let pool: Vec<Point> = (0..rng.gen_range(0usize..9))
            .map(|_| pt(&mut rng))
            .collect();
        // Up to three Δ-aligned shift phases, so drivers come and go.
        let mut phases = vec![(0u64, rng.gen_range(0..=pool.len()))];
        for _ in 0..rng.gen_range(0usize..3) {
            let from = rng.gen_range(1..HORIZON_MS / DELTA_MS) * DELTA_MS;
            if phases.iter().all(|&(f, _)| f != from) {
                phases.push((from, rng.gen_range(0..=pool.len())));
            }
        }
        phases.sort_unstable();
        let config = SimConfig {
            batch_interval_ms: DELTA_MS,
            horizon_ms: HORIZON_MS,
            seed,
            ..SimConfig::default()
        };
        let (stats, _) = run_checked(&trips, &pool, &DriverSchedule::new(phases), config);
        total.queries += stats.queries;
        total.skipped += stats.skipped;
    }
    assert!(total.skipped > 0, "no query was ever skipped: {total:?}");
    assert!(total.queries > 0, "{total:?}");
}

#[test]
fn remembered_empty_queries_match_fresh_ones_in_a_driver_shortage() {
    let trips = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 2_000.0,
        seed: 19,
        ..NycLikeConfig::default()
    })
    .generate_day_trips(0);
    let mut rng = StdRng::seed_from_u64(19);
    let pool = sample_driver_positions(&trips, 12, &mut rng);
    let schedule = DriverSchedule::new(vec![(0, pool.len())]);
    let config = SimConfig {
        batch_interval_ms: 1_000,
        ..SimConfig::default()
    };
    let (stats, irg) = run_checked(&trips, &pool, &schedule, config);
    // Most riders wait where no driver is: most queries are skipped, in
    // the check and in the policy.
    assert!(stats.skipped > stats.queries, "{stats:?}");
    assert!(irg.skipped > irg.queries, "{irg:?}");
}
