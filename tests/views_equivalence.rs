//! Property-based equivalence for the engine's live batch state: under
//! random event sequences — admissions, reneges, assignments, dropoffs,
//! and the shift-change traffic of drivers appearing, parking, retiring
//! and having a retirement cancelled — a [`BatchState`] driven through its
//! transitions must hold exactly what one built from scratch holds. Its
//! [`BatchViews`] must have the memberships a scan rebuild produces, with
//! every id→slot map entry pointing at its own record; its index the same
//! driver ids in every region's bucket; its counts the same per-region
//! tallies, rejoin windows and totals. Order is *not* part of the
//! contract (swap-removes permute the slot vectors, and buckets keep
//! insertion order); the policies are permutation-invariant by their id
//! tie-breaks, which the engine batteries pin separately.

use mrvd::sim::{
    AvailableDriver, BatchContext, BatchState, BatchViews, BusyDriver, DriverId, RiderId,
    WaitingRider,
};
use mrvd::spatial::{ConstantSpeedModel, Grid, Point, RegionId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The naive model: plain id-keyed sets of the three memberships, plus
/// the busy drivers marked to retire (out of upcoming supply).
#[derive(Default)]
struct Model {
    waiting: Vec<WaitingRider>,
    available: Vec<AvailableDriver>,
    busy: Vec<BusyDriver>,
    retiring: Vec<BusyDriver>,
}

/// A point in one of six regions of the 16×16 grid (three columns by
/// two rows), picked by `k`.
fn spot(k: u64) -> Point {
    Point::new(
        -73.99 + (k % 3) as f64 * 0.02,
        40.72 + (k / 3 % 2) as f64 * 0.03,
    )
}

fn rider(id: u32, t: u64) -> WaitingRider {
    WaitingRider {
        id: RiderId(id),
        pickup: spot(id.into()),
        dropoff: spot(u64::from(id) + 2),
        request_ms: t,
        deadline_ms: t + 120_000,
    }
}

fn avail(id: u32, t: u64) -> AvailableDriver {
    AvailableDriver {
        id: DriverId(id),
        pos: spot(u64::from(id) + t / 1_000),
        available_since_ms: t,
    }
}

/// Dropoff times repeat over three consecutive steps, so rejoin buckets
/// hold duplicates.
fn busy(id: u32, t: u64) -> BusyDriver {
    BusyDriver {
        id: DriverId(id),
        dropoff_ms: 600_000 + t / 3_000 * 3_000,
        dropoff_pos: spot(u64::from(id) + t / 3_000),
    }
}

/// Checks the live views against a scan rebuild of the model: identical
/// memberships (as id sets, with matching payload timestamps) and every
/// slot map entry pointing at its own record.
fn assert_matches_rebuild(views: &BatchViews, model: &Model) {
    let mut reference = BatchViews::new();
    reference.rebuild_reference(
        model.waiting.iter().copied(),
        model.available.iter().copied(),
        model.busy.iter().copied(),
    );
    let key_w = |v: &BatchViews| {
        let mut k: Vec<(u32, u64)> = v.waiting().iter().map(|r| (r.id.0, r.request_ms)).collect();
        k.sort_unstable();
        k
    };
    let key_a = |v: &BatchViews| {
        let mut k: Vec<(u32, u64)> = v
            .available()
            .iter()
            .map(|d| (d.id.0, d.available_since_ms))
            .collect();
        k.sort_unstable();
        k
    };
    let key_b = |v: &BatchViews| {
        let mut k: Vec<(u32, u64)> = v.busy().iter().map(|d| (d.id.0, d.dropoff_ms)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(key_w(views), key_w(&reference), "waiting membership");
    assert_eq!(key_a(views), key_a(&reference), "available membership");
    assert_eq!(key_b(views), key_b(&reference), "busy membership");
    for (slot, r) in views.waiting().iter().enumerate() {
        assert_eq!(views.waiting_slot(r.id), Some(slot), "waiting slot map");
    }
    for (slot, d) in views.available().iter().enumerate() {
        assert_eq!(views.avail_slot(d.id), Some(slot), "available slot map");
    }
    for (slot, d) in views.busy().iter().enumerate() {
        assert_eq!(views.busy_slot(d.id), Some(slot), "busy slot map");
    }
}

/// Checks a live batch state against [`BatchState::new`] built from the
/// model: the views as [`assert_matches_rebuild`] does, the index's driver
/// ids per region and its length, and the counts' per-region tallies,
/// rejoin windows and totals.
fn assert_state_matches_new(state: &BatchState, model: &Model, grid: &Grid) {
    let travel = ConstantSpeedModel::default();
    let built = BatchState::new(grid, &model.waiting, &model.available, &model.busy);
    let (live, built) = (state.context(0, &travel), built.context(0, &travel));
    assert_matches_rebuild(live.views, model);
    assert_eq!(live.avail_index.len(), built.avail_index.len(), "index len");
    let (lc, bc) = (live.region_counts, built.region_counts);
    assert_eq!(lc.waiting(), bc.waiting(), "waiting counts");
    assert_eq!(lc.available(), bc.available(), "available counts");
    assert_eq!(lc.totals(), bc.totals(), "count totals");
    for k in 0..grid.num_regions() {
        let r = RegionId(k as u32);
        let ids = |ctx: &BatchContext<'_>| {
            let mut ids: Vec<u32> = ctx
                .avail_index
                .in_region(r)
                .iter()
                .map(|(d, _)| d.0)
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(&live), ids(&built), "index bucket of region {k}");
        for (after, before) in [(0, u64::MAX), (600_000, 615_000), (609_000, 630_000)] {
            assert_eq!(
                lc.rejoining_between(r, after, before),
                bc.rejoining_between(r, after, before),
                "rejoining in region {k} within ({after}, {before})"
            );
        }
    }
}

proptest! {
    /// Random event sequences — each step applies one of the engine's
    /// real transitions (admission, renege, assignment, dropoff, a
    /// driver waking on shift, parking off shift, retiring straight out
    /// of a trip, or having that retirement cancelled) — and the live
    /// state stays equal to one built from scratch at every checkpoint.
    #[test]
    fn live_views_match_scan_rebuild_on_random_event_sequences(seed in 0u64..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = Grid::nyc_16x16();
        let mut state = BatchState::new(&grid, &[], &[], &[]);
        let mut model = Model::default();
        let mut next_rider = 0u32;
        let mut offline: Vec<u32> = (0..rng.gen_range(1u32..12)).collect();
        let n_steps = rng.gen_range(30usize..160);
        for step in 0..n_steps {
            let t = step as u64 * 1_000;
            match rng.gen_range(0u8..8) {
                // Admission: a new rider starts waiting.
                0 => {
                    let r = rider(next_rider, t);
                    next_rider += 1;
                    model.waiting.push(r);
                    state.enter_waiting(r);
                }
                // Renege: a waiting rider leaves unserved.
                1 if !model.waiting.is_empty() => {
                    let i = rng.gen_range(0..model.waiting.len());
                    let r = model.waiting.swap_remove(i);
                    prop_assert_eq!(state.leave_waiting(r.id).request_ms, r.request_ms);
                }
                // Assignment: a waiting rider pairs with an available
                // driver, who goes busy.
                2 if !model.waiting.is_empty() && !model.available.is_empty() => {
                    let i = rng.gen_range(0..model.waiting.len());
                    let r = model.waiting.swap_remove(i);
                    state.leave_waiting(r.id);
                    let j = rng.gen_range(0..model.available.len());
                    let d = model.available.swap_remove(j);
                    let left = state.leave_available(d.id);
                    prop_assert_eq!(left.available_since_ms, d.available_since_ms);
                    let b = busy(d.id.0, t);
                    model.busy.push(b);
                    state.enter_upcoming(b);
                }
                // Dropoff: a busy driver rejoins the available pool.
                3 if !model.busy.is_empty() => {
                    let i = rng.gen_range(0..model.busy.len());
                    let b = model.busy.swap_remove(i);
                    prop_assert_eq!(state.leave_upcoming(b.id).dropoff_ms, b.dropoff_ms);
                    let d = avail(b.id.0, t);
                    model.available.push(d);
                    state.enter_available(d);
                }
                // Shift on: an offline driver wakes up available.
                4 if !offline.is_empty() => {
                    let i = rng.gen_range(0..offline.len());
                    let id = offline.swap_remove(i);
                    let d = avail(id + 1_000, t);
                    model.available.push(d);
                    state.enter_available(d);
                }
                // Shift off: an idle driver parks immediately.
                5 if !model.available.is_empty() => {
                    let j = rng.gen_range(0..model.available.len());
                    let d = model.available.swap_remove(j);
                    state.leave_available(d.id);
                }
                // Retire mid-trip: a ramped-down busy driver will leave
                // the fleet at dropoff instead of rejoining.
                6 if !model.busy.is_empty() => {
                    let i = rng.gen_range(0..model.busy.len());
                    let b = model.busy.swap_remove(i);
                    state.leave_upcoming(b.id);
                    model.retiring.push(b);
                }
                // A ramp-up cancels a retirement: the driver, still on
                // the same ride, is upcoming supply again.
                7 if !model.retiring.is_empty() => {
                    let i = rng.gen_range(0..model.retiring.len());
                    let b = model.retiring.swap_remove(i);
                    model.busy.push(b);
                    state.enter_upcoming(b);
                }
                _ => {}
            }
            // Batch boundary every few events: check equality, then settle
            // the batch exactly as the engine does.
            if step % 5 == 4 {
                assert_state_matches_new(&state, &model, &grid);
                state.settle_batch();
                let m = state.maintenance();
                let travel = ConstantSpeedModel::default();
                let ctx = state.context(0, &travel);
                prop_assert_eq!(m.index_ops as u64, ctx.avail_index.ops_applied());
                prop_assert_eq!(m.counts_ops as u64, ctx.region_counts.ops_applied());
                prop_assert_eq!(m.views_ops as u64, ctx.views.ops_applied());
            }
        }
        assert_state_matches_new(&state, &model, &grid);
    }

    /// A scan rebuild mid-sequence resets the structure to a consistent
    /// state the incremental path can keep extending.
    #[test]
    fn incremental_path_continues_cleanly_after_a_rebuild(seed in 0u64..16) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut views = BatchViews::new();
        let mut model = Model::default();
        for i in 0..rng.gen_range(1u32..20) {
            let r = rider(i, 0);
            model.waiting.push(r);
            views.add_waiting(r);
            let d = avail(i, 0);
            model.available.push(d);
            views.add_available(d);
        }
        // Rebuild from the model (as the reference loop would): the scan
        // replaces all state but counts no ops.
        let ops = views.ops_applied();
        views.rebuild_reference(
            model.waiting.iter().copied(),
            model.available.iter().copied(),
            model.busy.iter().copied(),
        );
        prop_assert_eq!(views.ops_applied(), ops, "rebuild counts no live ops");
        // …then keep mutating incrementally.
        let r = model.waiting.swap_remove(0);
        views.remove_waiting(r.id);
        let d = model.available.swap_remove(0);
        views.remove_available(d.id);
        let b = busy(d.id.0, 1_000);
        model.busy.push(b);
        views.add_busy(b);
        assert_matches_rebuild(&views, &model);
    }
}
