//! Valid rider–driver pair generation (Definition 3).
//!
//! For every waiting rider, finds available drivers that can reach the
//! pickup before the deadline. When the travel model exposes a speed
//! bound, the deadline becomes a radius, answered by the batch's
//! availability index ([`BatchContext::avail_index`]) with a scan of only
//! the grid cells under a lon/lat box around the pickup (see
//! [`RegionIndex::within_radius_into`](mrvd_spatial::RegionIndex::within_radius_into));
//! otherwise it scans all drivers (road networks).
//!
//! Policies call this every batch. The index is the engine's live one —
//! kept in sync at true event times: assignment, dropoff, shift on/off —
//! or a [`mrvd_sim::BatchState`]'s from-scratch one, so candidate
//! generation builds no index of its own; hits map back to batch slots
//! through the views' id→slot map ([`BatchContext::views`]).
//!
//! Candidates are sorted by `(pickup travel time, driver id)` — a total
//! order on the drivers themselves, not their batch slots — so neither
//! bucket insertion order (which differs between the live index and a
//! from-scratch one) nor the driver view's slot order (the engine's live
//! views are not id-sorted) can leak into the output, and both paths
//! return identical [`CandidateSet`]s. The engine-equivalence batteries
//! pin this end to end.

use mrvd_sim::{BatchContext, DriverId};
use mrvd_spatial::Point;

/// Valid pairs per rider: `pairs[i]` lists `(driver_index, pickup_travel_ms)`
/// for rider `ctx.riders[i]`, sorted by pickup travel time and truncated
/// to the configured candidate budget. Indices refer to positions in
/// `ctx.riders` / `ctx.drivers`.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidate drivers per rider (see type-level docs).
    pub pairs: Vec<Vec<(usize, u64)>>,
}

impl CandidateSet {
    /// Total number of valid pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.iter().map(Vec::len).sum()
    }

    /// Inverts the mapping: for each driver, the riders it is a candidate
    /// for (with pickup travel time).
    pub fn by_driver(&self, num_drivers: usize) -> Vec<Vec<(usize, u64)>> {
        let mut out = vec![Vec::new(); num_drivers];
        for (rider_idx, cands) in self.pairs.iter().enumerate() {
            for &(driver_idx, t) in cands {
                out[driver_idx].push((rider_idx, t));
            }
        }
        out
    }
}

/// Reusable state for [`valid_candidates_with`], owned by the policy and
/// carried across batches: the radius queries' hit buffer.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    hits: Vec<(DriverId, Point)>,
}

impl CandidateScratch {
    /// An empty scratch; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Generates the valid candidate set for one batch.
///
/// Convenience wrapper over [`valid_candidates_with`] paying a fresh hit
/// buffer on every call; policies that run once per batch should hold a
/// [`CandidateScratch`] instead.
pub fn valid_candidates(ctx: &BatchContext<'_>, max_candidates: usize) -> CandidateSet {
    valid_candidates_with(ctx, max_candidates, &mut CandidateScratch::new())
}

/// Generates the valid candidate set for one batch, reusing
/// caller-held scratch across batches.
///
/// With a travel-speed bound, one radius query per rider against
/// [`BatchContext::avail_index`]; without one, a scan of all drivers.
/// Both return identical candidate sets.
pub fn valid_candidates_with(
    ctx: &BatchContext<'_>,
    max_candidates: usize,
    scratch: &mut CandidateScratch,
) -> CandidateSet {
    let speed_bound = ctx.travel.speed_bound_mps();
    let hits = &mut scratch.hits;
    let mut pairs = Vec::with_capacity(ctx.riders.len());
    for rider in ctx.riders {
        let mut cands: Vec<(usize, u64)> = match speed_bound {
            Some(v) => {
                let budget_ms = rider.deadline_ms.saturating_sub(ctx.now_ms);
                let radius_m = v * budget_ms as f64 / 1000.0;
                ctx.avail_index
                    .within_radius_into(rider.pickup, radius_m, hits);
                hits.iter()
                    .filter_map(|&(id, pos)| {
                        let t = ctx.travel.travel_time_ms(pos, rider.pickup);
                        (ctx.now_ms + t <= rider.deadline_ms).then(|| {
                            let slot = ctx
                                .views
                                .avail_slot(id)
                                .expect("availability index hit missing from the views");
                            (slot, t)
                        })
                    })
                    .collect()
            }
            None => ctx
                .drivers
                .iter()
                .enumerate()
                .filter_map(|(i, d)| {
                    let t = ctx.travel.travel_time_ms(d.pos, rider.pickup);
                    (ctx.now_ms + t <= rider.deadline_ms).then_some((i, t))
                })
                .collect(),
        };
        cands.sort_by_key(|&(i, t)| (t, ctx.drivers[i].id));
        cands.truncate(max_candidates);
        pairs.push(cands);
    }
    CandidateSet { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_sim::{AvailableDriver, BatchState, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, RegionIndex, TravelModel};

    struct NoBoundModel(ConstantSpeedModel);

    impl TravelModel for NoBoundModel {
        fn travel_time_ms(&self, a: Point, b: Point) -> u64 {
            self.0.travel_time_ms(a, b)
        }
        // speed_bound_mps stays None → forces the scan path.
    }

    fn rider(id: u32, p: Point, deadline_ms: u64) -> WaitingRider {
        WaitingRider {
            id: RiderId(id),
            pickup: p,
            dropoff: Point::new(p.lon + 0.01, p.lat),
            request_ms: 0,
            deadline_ms,
        }
    }

    fn drivers_line(n: usize) -> Vec<AvailableDriver> {
        // Drivers spaced ~170 m apart eastward from the rider.
        (0..n)
            .map(|i| AvailableDriver {
                id: DriverId(i as u32),
                pos: Point::new(-73.98 + 0.002 * i as f64, 40.75),
                available_since_ms: 0,
            })
            .collect()
    }

    /// Pairs keyed by driver id instead of batch slot, so sets built over
    /// differently ordered driver views compare equal.
    fn by_id(ctx: &BatchContext<'_>, c: &CandidateSet) -> Vec<Vec<(DriverId, u64)>> {
        c.pairs
            .iter()
            .map(|cands| cands.iter().map(|&(i, t)| (ctx.drivers[i].id, t)).collect())
            .collect()
    }

    #[test]
    fn ring_search_matches_full_scan() {
        let grid = Grid::nyc_16x16();
        let fast = ConstantSpeedModel::new(8.0);
        let slow = NoBoundModel(ConstantSpeedModel::new(8.0));
        let riders = [rider(0, Point::new(-73.98, 40.75), 240_000)];
        let state = BatchState::new(&grid, &riders, &drivers_line(40), &[]);
        let a = valid_candidates(&state.context(0, &fast), usize::MAX);
        let b = valid_candidates(&state.context(0, &slow), usize::MAX);
        assert_eq!(a.pairs, b.pairs);
        assert!(!a.pairs[0].is_empty());
    }

    #[test]
    fn deadline_excludes_far_drivers() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // 30 s budget at 8 m/s = 240 m: only the first two drivers
        // (0 m, ~169 m) qualify.
        let riders = [rider(0, Point::new(-73.98, 40.75), 30_000)];
        let state = BatchState::new(&grid, &riders, &drivers_line(10), &[]);
        let c = valid_candidates(&state.context(0, &travel), usize::MAX);
        assert_eq!(c.pairs[0].len(), 2, "{:?}", c.pairs[0]);
        // Sorted nearest-first.
        assert!(c.pairs[0][0].1 <= c.pairs[0][1].1);
    }

    #[test]
    fn candidate_budget_truncates() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(0, Point::new(-73.98, 40.75), 600_000)];
        let state = BatchState::new(&grid, &riders, &drivers_line(30), &[]);
        let c = valid_candidates(&state.context(0, &travel), 5);
        assert_eq!(c.pairs[0].len(), 5);
        // The 5 kept are the 5 nearest.
        for w in c.pairs[0].windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(c.pairs[0][0].1, 0);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_changing_batches() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let mut scratch = CandidateScratch::new();
        // Three "batches" with different driver sets, rider sets and
        // timestamps; the reused scratch must never leak state between
        // them.
        for (now_ms, n_drivers, deadline) in [
            (0u64, 40usize, 240_000u64),
            (3_000, 7, 30_000),
            (6_000, 25, 120_000),
        ] {
            let riders = [
                rider(0, Point::new(-73.98, 40.75), deadline),
                rider(1, Point::new(-73.92, 40.80), deadline),
            ];
            let state = BatchState::new(&grid, &riders, &drivers_line(n_drivers), &[]);
            let ctx = state.context(now_ms, &travel);
            let reused = valid_candidates_with(&ctx, 8, &mut scratch);
            let fresh = valid_candidates(&ctx, 8);
            assert_eq!(reused.pairs, fresh.pairs, "diverged at now={now_ms}");
        }
    }

    #[test]
    fn live_index_path_matches_rebuild_path_bit_for_bit() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let no_bound = NoBoundModel(ConstantSpeedModel::new(8.0));
        let riders = [
            rider(0, Point::new(-73.98, 40.75), 240_000),
            rider(1, Point::new(-73.92, 40.80), 90_000),
            rider(2, Point::new(-74.00, 40.70), 600_000),
        ];
        let drivers = drivers_line(25);
        // The same drivers in scrambled order: both the view slots and
        // the index's bucket order differ from the in-order build, and
        // the (travel time, driver id) sort must hide both.
        let mut scrambled = drivers.clone();
        scrambled.reverse();
        scrambled.swap(0, 10);
        let in_order = BatchState::new(&grid, &riders, &drivers, &[]);
        let shuffled = BatchState::new(&grid, &riders, &scrambled, &[]);
        // An index grown by incremental inserts in yet another order, as
        // the engine's live one is.
        let mut live: RegionIndex<DriverId> = RegionIndex::new(grid.clone());
        for d in drivers.iter().rev() {
            live.insert(d.id, d.pos);
        }
        for budget in [8, usize::MAX] {
            let ctx = in_order.context(3_000, &travel);
            let expect = by_id(&ctx, &valid_candidates(&ctx, budget));
            assert!(expect.iter().any(|c| !c.is_empty()));
            let ctx = shuffled.context(3_000, &travel);
            assert_eq!(by_id(&ctx, &valid_candidates(&ctx, budget)), expect);
            let ctx = BatchContext {
                avail_index: &live,
                ..in_order.context(3_000, &travel)
            };
            assert_eq!(by_id(&ctx, &valid_candidates(&ctx, budget)), expect);
            let ctx = shuffled.context(3_000, &no_bound);
            assert_eq!(by_id(&ctx, &valid_candidates(&ctx, budget)), expect);
        }
    }

    #[test]
    fn by_driver_inverts_the_mapping() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [
            rider(0, Point::new(-73.98, 40.75), 240_000),
            rider(1, Point::new(-73.979, 40.751), 240_000),
        ];
        let state = BatchState::new(&grid, &riders, &drivers_line(3), &[]);
        let c = valid_candidates(&state.context(0, &travel), usize::MAX);
        let inv = c.by_driver(3);
        for (rider_idx, cands) in c.pairs.iter().enumerate() {
            for &(driver_idx, t) in cands {
                assert!(inv[driver_idx].contains(&(rider_idx, t)));
            }
        }
    }
}
