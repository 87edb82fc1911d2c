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
//! The radius query is a filter, and the exact distance a refinement
//! (a k-nearest filter-and-refine search). The box scan returns every
//! driver it cannot rule out with a cheap lower bound `lb` of its
//! distance from the pickup, and no exact distance. A model that prices
//! distances
//! ([`TravelModel::travel_time_ms_at`](mrvd_spatial::TravelModel::travel_time_ms_at):
//! constant speed, and a slowdown over it) prices an exact distance into
//! the travel time; the haversine is symmetric bit for bit, so this is
//! exactly the driver → pickup `travel_time_ms`. A driver is a candidate
//! if its exact distance is within the radius and its travel time makes
//! the deadline; it becomes a `(travel ms, driver id)` key, and the
//! `max_candidates = k` smallest keys are kept (`select_nth_unstable`,
//! then a sort of the kept ones). Only the kept drivers are looked up in
//! the views, so a rider with 80 valid drivers and a budget of 32 pays 32
//! slot lookups, not 80, and no compare reads `ctx.drivers`.
//!
//! When the model prices distances and the scan returned more than `k`
//! drivers, most of them cannot make the budget, and their haversine is
//! skipped. The `k` drivers with the smallest bounds are priced first.
//! If all `k` give valid keys, with largest travel time `T`, a remaining
//! driver is priced only if `travel_time_ms_at(lb) <= T`: its exact time
//! is at least that, because a pricing model is non-decreasing in the
//! distance, so a driver with `travel_time_ms_at(lb) > T` has a key
//! larger than `k` valid ones. Ties at `T` are priced, because the
//! driver id then decides. If fewer than `k` of the first `k` are valid,
//! every driver is priced. So is every driver of a query with `k` or
//! fewer, of a model that does not price distances, or under a budget of
//! 0. [`CandidateStats::distances`] counts the exact distances; with
//! debug assertions on, every query also prices every driver and checks
//! that the pruned keys equal the exhaustive ones.
//!
//! Most radius queries find no driver at all (riders waiting where the
//! fleet is not), and they would find none again next batch. So the
//! caller's [`CandidateScratch`] remembers, per view slot, each query
//! that found nothing: the pickup, the radius, the index's instance id and
//! op count, and the cells it scanned. A later call skips the query for
//! the rider in that slot, and gives it no candidates, only when the
//! answer provably cannot change: the same index instance, a
//! bit-identical pickup, a radius no larger, and no insert into any of the
//! scanned cells since
//! ([`RegionIndex::inserted_since`](mrvd_spatial::RegionIndex::inserted_since)).
//! Every driver now in those cells was there before, farther than the old
//! radius; every driver in another cell lies outside the old radius's
//! box. The answer depends on nothing else — not on which rider asks, nor
//! on the deadline beyond its radius — and a query with any hit is not
//! remembered, so the travel-time filter never enters the argument. A
//! query is remembered only if no driver it priced lies within the
//! radius; that is still exact, because a query that skips drivers has
//! `k ≥ 1` valid keys, each a hit, and every driver the scan dropped lies
//! outside the radius.
//!
//! Candidates are sorted by `(pickup travel time, driver id)` — a total
//! order on the drivers themselves, not their batch slots — so neither
//! bucket insertion order (which differs between the live index and a
//! from-scratch one) nor the driver view's slot order (the engine's live
//! views are not id-sorted) can leak into the output, and both paths
//! return identical [`CandidateSet`]s. The key is unique per driver, so
//! which drivers the budget keeps is decided the same way. The
//! engine-equivalence batteries pin this end to end, and a property test
//! here checks the indexed path against the full scan under budgets 0, 1,
//! 3, 8, 32 and unbounded, with co-located drivers whose times tie, a
//! model that rounds to whole seconds, so that many drivers share the
//! `k`-th travel time, and a driver with one of the `k` smallest bounds
//! past the radius, which forces the price-every-driver fallback.

use mrvd_sim::{BatchContext, DriverId, WaitingRider};
use mrvd_spatial::{CellRange, Millis, Origin, Point};

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
}

/// Lifetime counters of one [`CandidateScratch`]: radius queries run
/// against the index, queries skipped because a remembered empty answer
/// still held, and the exact distances the queries computed (see module
/// docs). Scans without a speed bound count as none of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Radius queries run.
    pub queries: u64,
    /// Radius queries skipped.
    pub skipped: u64,
    /// Exact distances computed: one per driver a query priced.
    pub distances: u64,
}

/// A radius query that found no driver (see module docs).
#[derive(Debug, Clone, Copy)]
struct EmptyQuery {
    /// Query point `(lon, lat)` bits.
    at: (u64, u64),
    radius_m: f64,
    /// The index's op count right after the query.
    ops: u64,
    cells: CellRange,
}

impl EmptyQuery {
    /// Whether a query at `at` with `radius_m` would find no driver either.
    fn still_empty(&self, ctx: &BatchContext<'_>, at: (u64, u64), radius_m: f64) -> bool {
        self.at == at
            && radius_m <= self.radius_m
            && !ctx.avail_index.inserted_since(self.cells, self.ops)
    }
}

/// Reusable state for [`valid_candidates_with`], owned by the policy and
/// carried across batches: one query's buffers, and the queries that
/// found nothing (see module docs).
#[derive(Debug, Default)]
pub struct CandidateScratch {
    /// One query's scan: the drivers it could not rule out, each with a
    /// lower bound of its squared distance from the pickup.
    found: Vec<(DriverId, Point, f64)>,
    /// One rider's candidates as `(pickup travel ms, driver id)` keys.
    keys: Vec<(Millis, DriverId)>,
    /// [`RegionIndex::instance_id`](mrvd_spatial::RegionIndex::instance_id)
    /// of the index `empty` was recorded against.
    index_id: Option<u64>,
    /// `empty[i]`: the last query for view slot `i`, if it found nothing.
    /// One entry per slot, so the memory is that of the largest batch.
    empty: Vec<Option<EmptyQuery>>,
    stats: CandidateStats,
}

impl CandidateScratch {
    /// An empty scratch; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queries run and skipped, and exact distances computed, over this
    /// scratch's lifetime.
    pub fn stats(&self) -> CandidateStats {
        self.stats
    }
}

/// Generates the valid candidate set for one batch.
///
/// Convenience wrapper over [`valid_candidates_with`] paying a fresh
/// scratch on every call, so it runs every query; policies that run once
/// per batch should hold a [`CandidateScratch`] instead.
pub fn valid_candidates(ctx: &BatchContext<'_>, max_candidates: usize) -> CandidateSet {
    valid_candidates_with(ctx, max_candidates, &mut CandidateScratch::new())
}

/// Generates the valid candidate set for one batch, reusing
/// caller-held scratch across batches.
///
/// With a travel-speed bound, one radius query per rider against
/// [`BatchContext::avail_index`], skipped while a remembered empty answer
/// provably holds; without one, a scan of all drivers. Every path returns
/// the candidate set a fresh scratch would.
pub fn valid_candidates_with(
    ctx: &BatchContext<'_>,
    max_candidates: usize,
    scratch: &mut CandidateScratch,
) -> CandidateSet {
    if let Some(v) = ctx.travel.speed_bound_mps() {
        return CandidateSet {
            pairs: indexed_pairs(ctx, v, max_candidates, scratch),
        };
    }
    let pairs = ctx
        .riders
        .iter()
        .map(|rider| {
            let mut cands: Vec<(usize, u64)> = ctx
                .drivers
                .iter()
                .enumerate()
                .filter_map(|(i, d)| {
                    let t = ctx.travel.travel_time_ms(d.pos, rider.pickup);
                    (ctx.now_ms + t <= rider.deadline_ms).then_some((i, t))
                })
                .collect();
            cands.sort_by_key(|&(i, t)| (t, ctx.drivers[i].id));
            cands.truncate(max_candidates);
            cands
        })
        .collect();
    CandidateSet { pairs }
}

/// Valid pairs per rider from radius queries at speed bound `v`, each
/// list the `max_candidates` smallest `(travel time, driver id)` keys in
/// order (see [`rider_keys`]). Only the kept drivers are mapped to view
/// slots.
fn indexed_pairs(
    ctx: &BatchContext<'_>,
    v: f64,
    max_candidates: usize,
    scratch: &mut CandidateScratch,
) -> Vec<Vec<(usize, u64)>> {
    let index_id = ctx.avail_index.instance_id();
    if scratch.index_id != Some(index_id) {
        scratch.index_id = Some(index_id);
        scratch.empty.clear();
    }
    if scratch.empty.len() < ctx.riders.len() {
        scratch.empty.resize(ctx.riders.len(), None);
    }
    let cut = Cut {
        ctx,
        k: max_candidates,
        priced: ctx.travel.travel_time_ms_at(0.0).is_some(),
    };
    let CandidateScratch {
        found,
        keys,
        empty,
        stats,
        ..
    } = scratch;
    ctx.riders
        .iter()
        .zip(empty.iter_mut())
        .map(|(rider, empty)| {
            let budget_ms = rider.deadline_ms.saturating_sub(ctx.now_ms);
            let radius_m = v * budget_ms as f64 / 1000.0;
            let at = (rider.pickup.lon.to_bits(), rider.pickup.lat.to_bits());
            if empty.is_some_and(|q| q.still_empty(ctx, at, radius_m)) {
                stats.skipped += 1;
                return Vec::new();
            }
            stats.queries += 1;
            let cells = rider_keys(&cut, rider, radius_m, found, keys, &mut stats.distances);
            *empty = cells.map(|cells| EmptyQuery {
                at,
                radius_m,
                ops: ctx.avail_index.ops_applied(),
                cells,
            });
            keys.iter()
                .map(|&(t, id)| {
                    let slot = ctx
                        .views
                        .avail_slot(id)
                        .expect("availability index hit missing from the views");
                    (slot, t)
                })
                .collect()
        })
        .collect()
}

/// What every query of one [`indexed_pairs`] call shares.
struct Cut<'c, 'a> {
    ctx: &'c BatchContext<'a>,
    /// The candidate budget.
    k: usize,
    /// Whether the travel model prices a distance.
    priced: bool,
}

/// One rider's radius query and budget cut (see module docs): fills
/// `keys` with the `k` smallest valid `(travel time, driver id)` keys, in
/// order, and adds the exact distances it computes to `distances`.
/// Returns the cells scanned if no driver lies within the radius, so the
/// query can be remembered.
///
/// Kept out of line: inlined into the loop that checks remembered empty
/// queries (about 9.5 M checks a day on `shortage-irg`), it made that
/// day's simulation 8 % slower.
#[inline(never)]
fn rider_keys(
    cut: &Cut<'_, '_>,
    rider: &WaitingRider,
    radius_m: f64,
    found: &mut Vec<(DriverId, Point, f64)>,
    keys: &mut Vec<(Millis, DriverId)>,
    distances: &mut u64,
) -> Option<CellRange> {
    let (ctx, k) = (cut.ctx, cut.k);
    let from = Origin::new(rider.pickup);
    let cells = ctx.avail_index.within_radius_into(from, radius_m, found);
    // Whether a scanned driver is within the radius, and its key if it
    // also makes the deadline.
    let exact = |&(id, pos, _): &(DriverId, Point, f64)| {
        let d = from.distance_m(pos);
        let within = d <= radius_m;
        let key = within.then(|| {
            ctx.travel
                .travel_time_ms_at(d)
                .unwrap_or_else(|| ctx.travel.travel_time_ms(pos, rider.pickup))
        });
        let key = key
            .filter(|&t| ctx.now_ms + t <= rider.deadline_ms)
            .map(|t| (t, id));
        (within, key)
    };
    let mut hit = false;
    let mut price = |x: &(DriverId, Point, f64)| {
        *distances += 1;
        let (within, key) = exact(x);
        hit |= within;
        key
    };
    keys.clear();
    if cut.priced && k > 0 && found.len() > k {
        // The k smallest bounds first; the id makes the split, and so
        // the count of distances, independent of the bucket order.
        found.select_nth_unstable_by(k, |a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        let (nearest, rest) = found.split_at(k);
        keys.extend(nearest.iter().filter_map(&mut price));
        if keys.len() == k {
            let last = keys.iter().fold(0, |m, &(t, _)| m.max(t));
            let may_make_the_cut = |x: &&(DriverId, Point, f64)| {
                let fastest = ctx.travel.travel_time_ms_at(x.2.sqrt());
                fastest.is_none_or(|t| t <= last)
            };
            keys.extend(rest.iter().filter(may_make_the_cut).filter_map(&mut price));
        } else {
            keys.extend(rest.iter().filter_map(&mut price));
        }
    } else {
        keys.extend(found.iter().filter_map(&mut price));
    }
    keep_smallest(keys, k);
    if cfg!(debug_assertions) {
        let (mut all, mut any_within) = (Vec::new(), false);
        for x in found.iter() {
            let (within, key) = exact(x);
            any_within |= within;
            all.extend(key);
        }
        keep_smallest(&mut all, k);
        assert_eq!(*keys, all, "pruned candidates of rider {:?}", rider.id);
        assert_eq!(hit, any_within, "radius hit of rider {:?}", rider.id);
    }
    cells.filter(|_| !hit)
}

/// Keeps the `k` smallest keys, in order. Keys are unique per driver, so
/// the cut and the order are deterministic whatever the scan order.
fn keep_smallest(keys: &mut Vec<(Millis, DriverId)>, k: usize) {
    if keys.len() > k {
        keys.select_nth_unstable(k);
        keys.truncate(k);
    }
    keys.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_sim::{AvailableDriver, BatchState, RiderId};
    use mrvd_spatial::{ConstantSpeedModel, Grid, RegionIndex, TravelModel, NYC_EXTENT};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    struct NoBoundModel<M>(M);

    impl<M: TravelModel> TravelModel for NoBoundModel<M> {
        fn travel_time_ms(&self, a: Point, b: Point) -> u64 {
            self.0.travel_time_ms(a, b)
        }
        // speed_bound_mps stays None → forces the scan path.
    }

    /// A distance-priced model that rounds up to whole seconds, so that
    /// many drivers share a travel time and the driver id decides the
    /// cut. Rounding up keeps every valid pair within the radius.
    #[derive(Clone, Copy)]
    struct WholeSecondsModel(f64);

    impl TravelModel for WholeSecondsModel {
        fn travel_time_ms(&self, a: Point, b: Point) -> u64 {
            self.travel_time_ms_at(a.distance_m(&b))
                .expect("prices every distance")
        }

        fn travel_time_ms_at(&self, distance_m: f64) -> Option<u64> {
            Some((distance_m / self.0).ceil() as u64 * 1000)
        }

        fn speed_bound_mps(&self) -> Option<f64> {
            Some(self.0)
        }
    }

    /// A speed bound without distance pricing: the indexed path prices
    /// each hit through `travel_time_ms`.
    struct BoundOnlyModel(ConstantSpeedModel);

    impl TravelModel for BoundOnlyModel {
        fn travel_time_ms(&self, a: Point, b: Point) -> u64 {
            self.0.travel_time_ms(a, b)
        }

        fn speed_bound_mps(&self) -> Option<f64> {
            self.0.speed_bound_mps()
        }
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

    fn driver(id: u32, pos: Point) -> AvailableDriver {
        AvailableDriver {
            id: DriverId(id),
            pos,
            available_since_ms: 0,
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
    fn a_query_prices_only_the_drivers_that_can_make_the_budget() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // 700 s at 8 m/s: all 30 drivers, ~170 m apart, are within the
        // 5.6 km radius. The 5 nearest are priced; the 6th is ~840 m
        // away, so its bound prices it past the 5th's ~670 m.
        let riders = [rider(0, Point::new(-73.98, 40.75), 700_000)];
        let state = BatchState::new(&grid, &riders, &drivers_line(30), &[]);
        let mut scratch = CandidateScratch::new();
        let c = valid_candidates_with(&state.context(0, &travel), 5, &mut scratch);
        assert_eq!(
            c.pairs,
            valid_candidates(&state.context(0, &travel), 5).pairs
        );
        assert_eq!(scratch.stats().distances, 5);
        // Without distance pricing, or with a budget as large as the
        // scan, every driver is priced.
        let bound_only = BoundOnlyModel(travel);
        for (ctx, budget) in [
            (state.context(0, &bound_only), 5),
            (state.context(0, &travel), 30),
        ] {
            let mut scratch = CandidateScratch::new();
            valid_candidates_with(&ctx, budget, &mut scratch);
            assert_eq!(scratch.stats().distances, 30);
        }
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

    /// A pickup, a driver ~140 m from it, and drivers ~14 km away.
    const PICKUP: Point = Point::new(-73.98, 40.75);
    const NEAR: Point = Point::new(-73.981, 40.751);

    fn far_drivers(n: u32) -> Vec<AvailableDriver> {
        (0..n)
            .map(|i| driver(100 + i, Point::new(-73.85 + 0.001 * f64::from(i), 40.85)))
            .collect()
    }

    /// One batch through `scratch` and through a fresh scratch: the two
    /// must agree. Returns the number of pairs found.
    #[track_caller]
    fn check(ctx: &BatchContext<'_>, scratch: &mut CandidateScratch) -> usize {
        let reused = valid_candidates_with(ctx, 32, scratch);
        assert_eq!(reused.pairs, valid_candidates(ctx, 32).pairs);
        reused.num_pairs()
    }

    #[test]
    fn an_empty_query_is_skipped_and_a_hit_is_asked_again() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(0, PICKUP, 120_000)];
        let state = BatchState::new(&grid, &riders, &far_drivers(3), &[]);
        let mut scratch = CandidateScratch::new();
        for now_ms in [0, 1_000, 2_000] {
            assert_eq!(check(&state.context(now_ms, &travel), &mut scratch), 0);
        }
        let stats = scratch.stats();
        assert_eq!((stats.queries, stats.skipped), (1, 2));
        // A rider with a hit is asked again every batch.
        let state = BatchState::new(&grid, &riders, &[driver(0, NEAR)], &[]);
        let mut scratch = CandidateScratch::new();
        for now_ms in [0, 1_000] {
            assert_eq!(check(&state.context(now_ms, &travel), &mut scratch), 1);
        }
        assert_eq!(scratch.stats().skipped, 0);
    }

    #[test]
    fn reused_scratch_follows_a_switch_to_another_index_and_driver_set() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(0, PICKUP, 120_000)];
        let a = BatchState::new(&grid, &riders, &far_drivers(40), &[]);
        // Another index with a driver in the remembered cells, stamped
        // below `a`'s op count: only the instance id tells them apart.
        let mut b = BatchState::new(&grid, &riders, &[driver(0, NEAR)], &[]);
        let mut scratch = CandidateScratch::new();
        assert_eq!(check(&a.context(0, &travel), &mut scratch), 0);
        assert_eq!(check(&b.context(0, &travel), &mut scratch), 1);
        // Then other driver sets on `b`'s index.
        b.rebuild(riders, far_drivers(40), []);
        assert_eq!(check(&b.context(0, &travel), &mut scratch), 0);
        b.rebuild(riders, [driver(0, NEAR)], []);
        assert_eq!(check(&b.context(0, &travel), &mut scratch), 1);
    }

    #[test]
    fn reused_scratch_tells_a_changed_clone_from_its_original() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(0, PICKUP, 120_000)];
        let mut drivers = far_drivers(5);
        drivers.push(driver(0, NEAR));
        let original = BatchState::new(&grid, &riders, &drivers, &[]);
        // The clone drops the near driver; its rebuild takes its op count
        // past the near driver's stamp in the original.
        let mut clone = original.clone();
        clone.rebuild(riders, far_drivers(5), []);
        let mut scratch = CandidateScratch::new();
        assert_eq!(check(&clone.context(0, &travel), &mut scratch), 0);
        assert_eq!(check(&original.context(0, &travel), &mut scratch), 1);
    }

    #[test]
    fn reused_scratch_requeries_a_slot_whose_rider_moved() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let there = Point::new(-73.90, 40.80);
        let drivers = [driver(0, Point::new(-73.901, 40.801))];
        let mut state = BatchState::new(&grid, &[rider(0, PICKUP, 120_000)], &drivers, &[]);
        let mut scratch = CandidateScratch::new();
        assert_eq!(check(&state.context(0, &travel), &mut scratch), 0);
        // Same slot, rider id and radius; the driver near the new pickup
        // sits outside the remembered cells, so only the pickup check
        // catches the move.
        state.rebuild([rider(0, there, 120_000)], drivers, []);
        assert_eq!(check(&state.context(0, &travel), &mut scratch), 1);
    }

    #[test]
    fn reused_scratch_requeries_when_the_radius_grows() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let faster = ConstantSpeedModel::new(16.0);
        // One driver ~1.35 km east of the pickup.
        let drivers = [driver(0, Point::new(-73.964, 40.75))];
        let state = BatchState::new(&grid, &[rider(0, PICKUP, 300_000)], &drivers, &[]);
        let mut scratch = CandidateScratch::new();
        // 100 s at 8 m/s: 800 m, nobody.
        assert_eq!(check(&state.context(200_000, &travel), &mut scratch), 0);
        // An earlier batch time: 200 s, 1.6 km.
        assert_eq!(check(&state.context(100_000, &travel), &mut scratch), 1);
        assert_eq!(check(&state.context(200_000, &travel), &mut scratch), 0);
        // A faster model: 100 s at 16 m/s, 1.6 km.
        assert_eq!(check(&state.context(200_000, &faster), &mut scratch), 1);
    }

    #[test]
    fn reused_scratch_requeries_after_an_insert_move_or_rebuild_in_a_remembered_cell() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(0, PICKUP, 120_000)];
        let far = far_drivers(2);
        let mut drivers = far.clone();
        drivers.push(driver(0, NEAR));
        // The views hold every driver the hand-kept index ever does.
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let mut live: RegionIndex<DriverId> = RegionIndex::new(grid.clone());
        for d in &far {
            live.insert(d.id, d.pos);
        }
        let mut scratch = CandidateScratch::new();
        let mut run = |live: &RegionIndex<DriverId>| {
            let ctx = BatchContext {
                avail_index: live,
                ..state.context(0, &travel)
            };
            check(&ctx, &mut scratch)
        };
        assert_eq!(run(&live), 0);
        live.insert(DriverId(0), NEAR);
        assert_eq!(run(&live), 1);
        live.remove_at(DriverId(0), NEAR);
        assert_eq!(run(&live), 0);
        assert!(live.move_item(far[0].id, far[0].pos, NEAR));
        assert_eq!(run(&live), 1);
        live.rebuild_reference(far.iter().map(|d| (d.id, d.pos)));
        assert_eq!(run(&live), 0);
        live.rebuild_reference(drivers.iter().map(|d| (d.id, d.pos)));
        assert_eq!(run(&live), 1);
    }

    #[test]
    fn an_insert_the_smaller_box_misses_still_voids_the_remembered_range() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // Mid-cell, so a 100 m box stays inside the pickup's cell.
        let pickup = Point::new(-73.973, 40.76);
        let riders = [rider(0, pickup, 375_000)];
        // ~1.9 km east, one column over: inside the 3 km range, outside
        // both the 100 m radius and its box.
        let east = driver(0, Point::new(-73.95, 40.76));
        let state = BatchState::new(&grid, &riders, &[east], &[]);
        let mut live: RegionIndex<DriverId> = RegionIndex::new(grid.clone());
        let mut scratch = CandidateScratch::new();
        let mut run = |live: &RegionIndex<DriverId>, now_ms| {
            let ctx = BatchContext {
                avail_index: live,
                ..state.context(now_ms, &travel)
            };
            check(&ctx, &mut scratch);
            scratch.stats()
        };
        // 375 s at 8 m/s: a 3 km radius over an empty index.
        assert_eq!(run(&live, 0).queries, 1);
        live.insert(east.id, east.pos);
        // 12.5 s left: 100 m. The remembered range, not the new box,
        // decides, so the query runs again (and still finds nothing).
        assert_eq!(
            run(&live, 362_500),
            CandidateStats {
                queries: 2,
                skipped: 0,
                distances: 0
            }
        );
        assert_eq!(
            run(&live, 362_500),
            CandidateStats {
                queries: 2,
                skipped: 1,
                distances: 0
            }
        );
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

    /// A rider a whole number of seconds from its deadline, 120 to 240,
    /// at 8 m/s (radius `r` of 960 to 1,920 m), away from the
    /// proptest's cluster, with two drivers its radius query returns:
    /// `past`, 1 cm beyond the radius due east or west (past the 4 mm
    /// that rounding to the millisecond still prices within the budget,
    /// which the radius query never returns), and `inside`, 2 cm within
    /// it due north or south.
    /// East–west the bound is looser (its `cos φ` term), so `past` has
    /// the smaller bound: under a budget of 1, the nearest bound misses
    /// the deadline and every driver must be priced.
    fn past_and_inside(
        rng: &mut StdRng,
        id: u32,
        ids: (u32, u32),
    ) -> (WaitingRider, [AvailableDriver; 2]) {
        use mrvd_spatial::geo::EARTH_RADIUS_M;
        let p = Point::new(rng.gen_range(-73.95..-73.90), rng.gen_range(40.80..40.85));
        let budget_ms = 1000 * rng.gen_range(120..240);
        let radius = budget_ms as f64 / 125.0;
        let sign = |rng: &mut StdRng| [-1.0, 1.0][rng.gen_range(0..2)];
        // Along a parallel, `d = 2R·asin(cos φ·sin(Δλ/2))`.
        let half_dlon = ((radius + 0.01) / (2.0 * EARTH_RADIUS_M)).sin() / p.lat.to_radians().cos();
        let past = Point::new(
            p.lon + sign(rng) * (2.0 * half_dlon.asin()).to_degrees(),
            p.lat,
        );
        // Along a meridian, `d = R·|Δφ|`.
        let dlat = ((radius - 0.02) / EARTH_RADIUS_M).to_degrees();
        let inside = Point::new(p.lon, p.lat + sign(rng) * dlat);
        assert!(p.distance_m(&past) > radius && p.distance_m(&inside) <= radius);
        let drivers = [driver(ids.0, past), driver(ids.1, inside)];
        (rider(id, p, budget_ms), drivers)
    }

    proptest! {
        /// The indexed path equals the scan, also where the budget binds:
        /// random riders over a few km² holding up to 150 drivers, a
        /// third of them parked on another driver's spot (and some riders
        /// on a driver's spot), so travel times tie and the driver id
        /// decides. Ids are shuffled against the view slots. Budget 0 is
        /// reachable through the policies' public `max_candidates`, and 8
        /// cuts inside the clusters. Three models take the indexed path:
        /// the constant speed, one that rounds up to whole seconds (many
        /// drivers then share the `k`-th time, and ties at it are priced),
        /// and one with a speed bound but no distance pricing, which
        /// prices every driver by its endpoints. One more rider, away
        /// from the cluster, has a driver just past its radius with the
        /// smallest bound, which forces the price-every-driver fallback
        /// under a budget of 1.
        #[test]
        fn indexed_candidates_equal_the_scan_under_every_budget(
            seed in 0u64..1_000_000,
            n_drivers in 0usize..150,
            n_riders in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let side = if seed % 2 == 0 { 16 } else { 64 };
            let grid = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, side, side);
            let spot = |rng: &mut StdRng| {
                Point::new(rng.gen_range(-74.00..-73.97), rng.gen_range(40.74..40.76))
            };
            let mut ids: Vec<u32> = (0..n_drivers as u32).map(|i| 3 * i + 1).collect();
            ids.shuffle(&mut rng);
            let mut positions: Vec<Point> = Vec::new();
            for _ in 0..n_drivers {
                let p = match positions.choose(&mut rng) {
                    Some(&q) if rng.gen_range(0u32..3) == 0 => q,
                    _ => spot(&mut rng),
                };
                positions.push(p);
            }
            let mut drivers: Vec<AvailableDriver> = ids
                .iter()
                .zip(&positions)
                .map(|(&id, &pos)| driver(id, pos))
                .collect();
            let mut riders: Vec<WaitingRider> = (0..n_riders as u32)
                .map(|i| {
                    let p = match positions.choose(&mut rng) {
                        Some(&q) if i % 3 == 0 => q,
                        _ => spot(&mut rng),
                    };
                    rider(i, p, rng.gen_range(0..300_000))
                })
                .collect();
            // Ids `3i + 2` are free.
            let (alone, pair) = past_and_inside(&mut rng, n_riders as u32, (2, 5));
            let slot = rng.gen_range(0..=drivers.len());
            drivers.splice(slot..slot, pair);
            riders.push(alone);
            let state = BatchState::new(&grid, &riders, &drivers, &[]);
            // The fallback's premise: the driver past the radius has the
            // smaller bound.
            let mut found = Vec::new();
            state
                .context(0, &ConstantSpeedModel::new(8.0))
                .avail_index
                .within_radius_into(Origin::new(alone.pickup), alone.deadline_ms as f64 / 125.0, &mut found);
            found.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
            let order: Vec<DriverId> = found.iter().map(|x| x.0).collect();
            prop_assert_eq!(order, vec![pair[0].id, pair[1].id]);
            let travel = ConstantSpeedModel::new(8.0);
            let seconds = WholeSecondsModel(8.0);
            let bound_only = BoundOnlyModel(travel);
            for budget in [0, 1, 3, 8, 32, usize::MAX] {
                let scanned = valid_candidates(&state.context(0, &NoBoundModel(travel)), budget);
                let indexed = valid_candidates(&state.context(0, &travel), budget);
                prop_assert_eq!(&indexed.pairs, &scanned.pairs, "budget {}", budget);
                let unpriced = valid_candidates(&state.context(0, &bound_only), budget);
                prop_assert_eq!(&unpriced.pairs, &scanned.pairs, "budget {}", budget);
                let whole = valid_candidates(&state.context(0, &seconds), budget);
                let whole_scanned = valid_candidates(&state.context(0, &NoBoundModel(seconds)), budget);
                prop_assert_eq!(&whole.pairs, &whole_scanned.pairs, "budget {}", budget);
                prop_assert_eq!(indexed.pairs.len(), n_riders + 1);
                prop_assert!(indexed.pairs.iter().all(|c| c.len() <= budget));
                prop_assert_eq!(indexed.pairs[n_riders].len(), budget.min(1));
                prop_assert_eq!(whole.pairs[n_riders].len(), budget.min(1));
            }
        }
    }
}
