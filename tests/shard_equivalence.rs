//! Property-based shard-layout equivalence: the engine's sharded event
//! queue (`SimConfig::event_shards` ≠ 1 — per-region-band heaps under a
//! tournament head) must reproduce the single global heap
//! (`event_shards = 1`) bit-for-bit on random small worlds, for any
//! shard count — including every engine counter, the exact renege event
//! times, and worlds dense enough that same-timestamp event keys
//! interleave across shards within one event step.

use mrvd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const DELTA_MS: u64 = 3_000;
const HORIZON_MS: u64 = 3_600_000;

/// A random world drawn from one seed: trips sorted by request time
/// inside the horizon, a driver pool, and a Δ-aligned supply schedule
/// (same idiom as `tests/engine_equivalence.rs`, denser on trips so an
/// event step regularly has several due events at once).
fn random_world(seed: u64) -> (Vec<TripRecord>, Vec<Point>, DriverSchedule) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A7A);
    let n_trips = rng.gen_range(0usize..70);
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
    let pool: Vec<Point> = (0..rng.gen_range(0usize..12))
        .map(|_| pt(&mut rng))
        .collect();
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

/// Asserts that two shard layouts ran the same day: every simulated
/// output (exact renege records included — every layout charges reneges
/// at true deadlines) *and* every engine counter, since all layouts
/// apply the same events in the same order.
fn assert_same_run(single: &SimResult, sharded: &SimResult, what: &str) {
    if let Some(diff) = single.first_difference(sharded, RenegeMatch::Exact) {
        panic!("{what} diverged at {diff}");
    }
    let counters = |r: &SimResult| {
        [
            r.ticks_executed,
            r.events_processed,
            r.index_ops,
            r.index_regions_dirtied,
            r.counts_ops,
            r.counts_regions_dirtied,
            r.views_ops,
            r.views_entries_dirtied,
        ]
    };
    assert_eq!(
        counters(single),
        counters(sharded),
        "{what}: engine counters (ticks, events, index ops and dirtied, counts ops and dirtied, views ops and dirtied)"
    );
}

/// Runs one world under NEAR with the given shard layout.
fn run_with(
    world: &(Vec<TripRecord>, Vec<Point>, DriverSchedule),
    seed: u64,
    event_shards: usize,
) -> SimResult {
    let (trips, pool, schedule) = world;
    let grid = Grid::nyc_16x16();
    let travel = ConstantSpeedModel::default();
    let config = SimConfig {
        batch_interval_ms: DELTA_MS,
        horizon_ms: HORIZON_MS,
        seed,
        event_shards,
        ..SimConfig::default()
    };
    let sim = Simulator::new(config, &travel, &grid);
    let mut policy = Near::default();
    sim.run_scheduled(trips, pool, schedule, &mut policy)
}

proptest! {
    /// For random worlds × shard layouts (auto-sized and explicit
    /// counts), the sharded queue is bit-identical to the single heap —
    /// outputs and counters alike.
    #[test]
    fn shard_layouts_match_the_single_heap_on_random_worlds(
        seed in 0u64..40,
        shards in 0usize..9,
    ) {
        let world = random_world(seed);
        let single = run_with(&world, seed, 1);
        let sharded = run_with(&world, seed, shards);
        assert_same_run(&single, &sharded, &format!("seed {seed} shards {shards}"));
    }
}

/// Interleaved-key coverage: bursts of same-timestamp requests from
/// scattered pickup points put same-time deadline keys (and the dropoff
/// keys of whatever gets served) into *different* shards, so one event
/// step pops from several shards and the tournament must reproduce the
/// global `(time, priority, id)` order — ids are the only tiebreak.
/// Forced small fleet keeps plenty of reneges in play.
#[test]
fn interleaved_same_time_keys_across_shards_stay_ordered() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let pt =
        |rng: &mut StdRng| Point::new(rng.gen_range(-74.02..-73.80), rng.gen_range(40.60..40.90));
    let mut trips = Vec::new();
    for burst in 0..12u64 {
        let request_ms = burst * 240_000; // a burst every 4 minutes
        for _ in 0..8 {
            trips.push(TripRecord {
                id: trips.len() as u64,
                request_ms,
                pickup: pt(&mut rng),
                dropoff: pt(&mut rng),
            });
        }
    }
    let pool: Vec<Point> = (0..3).map(|_| pt(&mut rng)).collect();
    let world = (trips, pool, DriverSchedule::constant(3));
    let single = run_with(&world, 7, 1);
    assert!(
        single.reneged > 0 && single.served > 0,
        "burst world must exercise both deadline and dropoff keys"
    );
    for shards in [2, 4, 7] {
        let sharded = run_with(&world, 7, shards);
        assert_same_run(&single, &sharded, &format!("burst world, shards {shards}"));
    }
}
