//! Valid rider–driver pair generation (Definition 3).
//!
//! For every waiting rider, finds available drivers that can reach the
//! pickup before the deadline. When the travel model exposes a speed
//! bound, the deadline becomes a radius and a spatial index answers it by
//! scanning only the grid cells under a lon/lat box around the pickup
//! (see [`RegionIndex::within_radius_into`]); otherwise it scans all
//! drivers (small instances, road networks).
//!
//! Policies call this every batch. When the engine supplies its live,
//! incrementally maintained availability index
//! ([`BatchContext::avail_index`] — kept in sync at true event times:
//! assignment, dropoff, shift on/off), candidate generation is a thin
//! view over that index and no per-batch rebuild happens at all. Without
//! one (hand-built contexts, the legacy reference loop), a
//! [`CandidateScratch`] owned by the caller keeps a private index whose
//! bucket allocations (and the radius query's hit buffers) survive across
//! batches, so steady state pays only driver re-insertion — no `Grid`
//! clone, no fresh `Vec` per region per batch.
//!
//! Both paths produce *identical* [`CandidateSet`]s: candidates are
//! sorted by `(pickup travel time, driver id)` — a total order on the
//! drivers themselves, not their batch slots — so neither bucket
//! insertion order (which differs between a live index and a rebuild)
//! nor the driver view's slot order (the engine's live views are not
//! id-sorted) can leak into the output. The engine-equivalence
//! batteries pin this end to end.

use mrvd_sim::{BatchContext, DriverId};
use mrvd_spatial::{Point, RegionIndex};

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
/// carried across batches: the fallback per-region driver index (buckets
/// are cleared, never reallocated, while the grid stays the same) used
/// when no live engine index is available, and the radius queries' hit
/// buffers. With a live index the scratch is a thin view: only the hit
/// buffer is touched.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    index: Option<RegionIndex<usize>>,
    hits: Vec<(usize, Point)>,
    id_hits: Vec<(DriverId, Point)>,
    /// Driver id → batch slot, rebuilt per live-index batch when the
    /// context carries no live views (one `u32` write per available
    /// driver — far cheaper than re-bucketing them). With live views the
    /// engine's own id→slot map answers directly and this table is not
    /// touched. Grow-only; stale entries are never read because the live
    /// index only yields ids present in the current batch.
    slot_of_id: Vec<u32>,
}

impl CandidateScratch {
    /// An empty scratch; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Generates the valid candidate set for one batch.
///
/// Convenience wrapper over [`valid_candidates_with`] paying a fresh
/// scratch (grid clone + per-region buckets) on every call; policies
/// that run once per batch should hold a [`CandidateScratch`] instead.
pub fn valid_candidates(ctx: &BatchContext<'_>, max_candidates: usize) -> CandidateSet {
    valid_candidates_with(ctx, max_candidates, &mut CandidateScratch::new())
}

/// Generates the valid candidate set for one batch, reusing
/// caller-held scratch across batches.
///
/// Prefers the engine's live availability index
/// ([`BatchContext::avail_index`]) when one is present, built over the
/// batch's grid and consistent in size with the driver view — zero
/// per-batch index maintenance for the policy. Otherwise rebuilds the
/// scratch-held index in place (or, without a travel-speed bound, scans
/// all drivers). All paths return identical candidate sets.
pub fn valid_candidates_with(
    ctx: &BatchContext<'_>,
    max_candidates: usize,
    scratch: &mut CandidateScratch,
) -> CandidateSet {
    let speed_bound = ctx.travel.speed_bound_mps();
    if let (Some(ix), Some(v)) = (ctx.avail_index, speed_bound) {
        // The live path requires an index consistent with the batch's
        // driver view; a mismatched grid or length (possible only for
        // hand-built contexts — the engine maintains both invariants)
        // falls through to the rebuild, never to a wrong answer.
        if ix.grid() == ctx.grid && ix.len() == ctx.drivers.len() {
            return candidates_from_live_index(ctx, max_candidates, ix, v, scratch);
        }
    }
    let mut pairs = Vec::with_capacity(ctx.riders.len());
    // Fallback: spatial index of available drivers (by driver *slot*),
    // rebuilt in place — positions change every batch, allocations do
    // not. This is the reference rebuild the live path is differentially
    // tested against.
    let CandidateScratch { index, hits, .. } = scratch;
    let index = speed_bound.map(|_| {
        let ix = match index {
            Some(ix) => {
                ix.retarget(ctx.grid);
                ix
            }
            None => index.insert(RegionIndex::new(ctx.grid.clone())),
        };
        for (i, d) in ctx.drivers.iter().enumerate() {
            ix.insert(i, d.pos);
        }
        ix
    });
    for rider in ctx.riders {
        let budget_ms = rider.deadline_ms.saturating_sub(ctx.now_ms);
        let mut cands: Vec<(usize, u64)> = match (&index, speed_bound) {
            (Some(ix), Some(v)) => {
                let radius_m = v * budget_ms as f64 / 1000.0;
                ix.within_radius_into(rider.pickup, radius_m, hits);
                hits.iter()
                    .filter_map(|&(i, pos)| {
                        let t = ctx.travel.travel_time_ms(pos, rider.pickup);
                        (ctx.now_ms + t <= rider.deadline_ms).then_some((i, t))
                    })
                    .collect()
            }
            _ => ctx
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

/// The live-index path: radius queries against the engine-maintained
/// availability index, with hits translated from [`DriverId`]s back to
/// batch slots — through the live views' own id→slot map when the
/// context carries one (zero per-batch table work), else through a
/// scratch-held direct-lookup table. The `(travel time, driver id)`
/// sort makes the output independent of bucket order and view order, so
/// this is byte-identical to the rebuild path.
fn candidates_from_live_index(
    ctx: &BatchContext<'_>,
    max_candidates: usize,
    ix: &RegionIndex<DriverId>,
    speed_bound_mps: f64,
    scratch: &mut CandidateScratch,
) -> CandidateSet {
    let CandidateScratch {
        id_hits,
        slot_of_id,
        ..
    } = scratch;
    // Refresh the id → slot table for this batch's driver view — only
    // when no live views are present (the engine's map already answers
    // in O(1)). Stale entries from earlier batches are harmless: the
    // live index is consistent with `ctx.drivers`, so only ids written
    // here are read.
    if ctx.views.is_none() {
        if let Some(max_id) = ctx.drivers.iter().map(|d| d.id.idx()).max() {
            if slot_of_id.len() <= max_id {
                slot_of_id.resize(max_id + 1, u32::MAX);
            }
            for (slot, d) in ctx.drivers.iter().enumerate() {
                slot_of_id[d.id.idx()] = slot as u32;
            }
        }
    }
    let slot_of = |id: DriverId| -> usize {
        match ctx.views {
            Some(v) => v
                .avail_slot(id)
                .expect("live index hit missing from the live views"),
            None => slot_of_id[id.idx()] as usize,
        }
    };
    let mut pairs = Vec::with_capacity(ctx.riders.len());
    for rider in ctx.riders {
        let budget_ms = rider.deadline_ms.saturating_sub(ctx.now_ms);
        let radius_m = speed_bound_mps * budget_ms as f64 / 1000.0;
        ix.within_radius_into(rider.pickup, radius_m, id_hits);
        let mut cands: Vec<(usize, u64)> = id_hits
            .iter()
            .filter_map(|&(id, pos)| {
                let t = ctx.travel.travel_time_ms(pos, rider.pickup);
                (ctx.now_ms + t <= rider.deadline_ms).then(|| (slot_of(id), t))
            })
            .collect();
        cands.sort_by_key(|&(i, t)| (t, ctx.drivers[i].id));
        cands.truncate(max_candidates);
        pairs.push(cands);
    }
    CandidateSet { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_sim::{AvailableDriver, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, Point, TravelModel};

    struct NoBoundModel(ConstantSpeedModel);

    impl TravelModel for NoBoundModel {
        fn travel_time_ms(&self, a: Point, b: Point) -> u64 {
            self.0.travel_time_ms(a, b)
        }
        // speed_bound_mps stays None → forces the scan path.
    }

    fn rider(p: Point, deadline_ms: u64) -> WaitingRider {
        WaitingRider {
            id: RiderId(0),
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

    #[test]
    fn ring_search_matches_full_scan() {
        let grid = Grid::nyc_16x16();
        let fast = ConstantSpeedModel::new(8.0);
        let slow = NoBoundModel(ConstantSpeedModel::new(8.0));
        let riders = [rider(Point::new(-73.98, 40.75), 240_000)];
        let drivers = drivers_line(40);
        let ctx_fast = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &fast,
            grid: &grid,
            avail_index: None,
            region_counts: None,
            views: None,
        };
        let ctx_slow = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &slow,
            grid: &grid,
            avail_index: None,
            region_counts: None,
            views: None,
        };
        let a = valid_candidates(&ctx_fast, usize::MAX);
        let b = valid_candidates(&ctx_slow, usize::MAX);
        assert_eq!(a.pairs, b.pairs);
        assert!(!a.pairs[0].is_empty());
    }

    #[test]
    fn deadline_excludes_far_drivers() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // 30 s budget at 8 m/s = 240 m: only the first two drivers
        // (0 m, ~169 m) qualify.
        let riders = [rider(Point::new(-73.98, 40.75), 30_000)];
        let drivers = drivers_line(10);
        let ctx = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &travel,
            grid: &grid,
            avail_index: None,
            region_counts: None,
            views: None,
        };
        let c = valid_candidates(&ctx, usize::MAX);
        assert_eq!(c.pairs[0].len(), 2, "{:?}", c.pairs[0]);
        // Sorted nearest-first.
        assert!(c.pairs[0][0].1 <= c.pairs[0][1].1);
    }

    #[test]
    fn candidate_budget_truncates() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(Point::new(-73.98, 40.75), 600_000)];
        let drivers = drivers_line(30);
        let ctx = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &travel,
            grid: &grid,
            avail_index: None,
            region_counts: None,
            views: None,
        };
        let c = valid_candidates(&ctx, 5);
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
                rider(Point::new(-73.98, 40.75), deadline),
                rider(Point::new(-73.92, 40.80), deadline),
            ];
            let drivers = drivers_line(n_drivers);
            let ctx = BatchContext {
                now_ms,
                riders: &riders,
                drivers: &drivers,
                busy: &[],
                travel: &travel,
                grid: &grid,
                avail_index: None,
                region_counts: None,
                views: None,
            };
            let reused = valid_candidates_with(&ctx, 8, &mut scratch);
            let fresh = valid_candidates(&ctx, 8);
            assert_eq!(reused.pairs, fresh.pairs, "diverged at now={now_ms}");
        }
    }

    #[test]
    fn live_index_path_matches_rebuild_path_bit_for_bit() {
        use mrvd_spatial::RegionIndex;
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [
            rider(Point::new(-73.98, 40.75), 240_000),
            rider(Point::new(-73.92, 40.80), 90_000),
            rider(Point::new(-74.00, 40.70), 600_000),
        ];
        let drivers = drivers_line(25);
        // A live index over the same drivers, inserted in scrambled order
        // so bucket order differs from the rebuild path's slot order —
        // the (travel time, slot) sort must hide that.
        let mut live: RegionIndex<DriverId> = RegionIndex::new(grid.clone());
        let mut order: Vec<usize> = (0..drivers.len()).collect();
        order.reverse();
        order.swap(0, 10);
        for i in order {
            live.insert(drivers[i].id, drivers[i].pos);
        }
        let mk_ctx = |avail_index| BatchContext {
            now_ms: 3_000,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &travel,
            grid: &grid,
            avail_index,
            region_counts: None,
            views: None,
        };
        let with_live = valid_candidates(&mk_ctx(Some(&live)), 8);
        let rebuilt = valid_candidates(&mk_ctx(None), 8);
        assert_eq!(with_live.pairs, rebuilt.pairs);
        assert!(with_live.num_pairs() > 0);
        // Unbudgeted variant too.
        let a = valid_candidates(&mk_ctx(Some(&live)), usize::MAX);
        let b = valid_candidates(&mk_ctx(None), usize::MAX);
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn inconsistent_live_index_falls_back_to_rebuild() {
        use mrvd_spatial::RegionIndex;
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(Point::new(-73.98, 40.75), 240_000)];
        let drivers = drivers_line(10);
        // An index missing one driver (length mismatch): the live path
        // must not be trusted — the rebuild still sees all 10.
        let mut live: RegionIndex<DriverId> = RegionIndex::new(grid.clone());
        for d in &drivers[..9] {
            live.insert(d.id, d.pos);
        }
        let ctx = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &travel,
            grid: &grid,
            avail_index: Some(&live),
            region_counts: None,
            views: None,
        };
        let got = valid_candidates(&ctx, usize::MAX);
        assert_eq!(got.pairs[0].len(), 10);
    }

    #[test]
    fn live_index_over_a_different_grid_falls_back_to_rebuild() {
        use mrvd_spatial::RegionIndex;
        let grid = Grid::nyc_16x16();
        let other = Grid::new(Point::new(-74.03, 40.58), Point::new(-73.77, 40.92), 4, 4);
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [rider(Point::new(-73.98, 40.75), 240_000)];
        let drivers = drivers_line(10);
        let mut live: RegionIndex<DriverId> = RegionIndex::new(other);
        for d in &drivers {
            live.insert(d.id, d.pos);
        }
        let ctx = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &travel,
            grid: &grid,
            avail_index: Some(&live),
            region_counts: None,
            views: None,
        };
        let got = valid_candidates(&ctx, usize::MAX);
        let expect = valid_candidates(
            &BatchContext {
                avail_index: None,
                region_counts: None,
                ..ctx
            },
            usize::MAX,
        );
        assert_eq!(got.pairs, expect.pairs);
    }

    #[test]
    fn by_driver_inverts_the_mapping() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = [
            rider(Point::new(-73.98, 40.75), 240_000),
            rider(Point::new(-73.979, 40.751), 240_000),
        ];
        let drivers = drivers_line(3);
        let ctx = BatchContext {
            now_ms: 0,
            riders: &riders,
            drivers: &drivers,
            busy: &[],
            travel: &travel,
            grid: &grid,
            avail_index: None,
            region_counts: None,
            views: None,
        };
        let c = valid_candidates(&ctx, usize::MAX);
        let inv = c.by_driver(3);
        for (rider_idx, cands) in c.pairs.iter().enumerate() {
            for &(driver_idx, t) in cands {
                assert!(inv[driver_idx].contains(&(rider_idx, t)));
            }
        }
    }
}
