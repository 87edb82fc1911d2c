//! Batch state built from scratch, for batches the event engine does not
//! run.
//!
//! The engine hands every policy three live structures it maintains at
//! true event times: the batch views, the availability index and the
//! per-region counts. A [`BatchState`] owns the same three, filled from
//! rider / driver / busy lists by full scans ([`BatchViews::rebuild_reference`],
//! [`RegionIndex::rebuild_reference`] and the [`RegionCounts`] `add_*`
//! calls). The legacy reference loop rebuilds one every batch, so the
//! equivalence batteries compare incremental maintenance against
//! from-scratch construction end to end; tests and benches use it to
//! build a [`BatchContext`] by hand.

use mrvd_spatial::{Grid, RegionIndex, TravelModel};

use crate::counts::RegionCounts;
use crate::policy::{AvailableDriver, BatchContext, BusyDriver, WaitingRider};
use crate::types::{DriverId, Millis};
use crate::views::BatchViews;

/// The views, availability index and region counts of one batch, built
/// from scratch (see module docs).
#[derive(Debug, Clone)]
pub struct BatchState {
    views: BatchViews,
    index: RegionIndex<DriverId>,
    counts: RegionCounts,
}

impl BatchState {
    /// The state of one batch over `grid`: the given riders, available
    /// drivers and busy drivers, in that order.
    ///
    /// # Panics
    /// Panics if a rider id appears twice, or a driver id appears twice
    /// across `drivers` and `busy`.
    pub fn new(
        grid: &Grid,
        riders: &[WaitingRider],
        drivers: &[AvailableDriver],
        busy: &[BusyDriver],
    ) -> Self {
        let mut state = Self {
            views: BatchViews::new(),
            index: RegionIndex::new(grid.clone()),
            counts: RegionCounts::new(grid.num_regions()),
        };
        state.rebuild(
            riders.iter().copied(),
            drivers.iter().copied(),
            busy.iter().copied(),
        );
        state
    }

    /// Discards the state and rebuilds it from the given entries over the
    /// same grid, reusing the view and index allocations.
    ///
    /// # Panics
    /// Panics on a duplicate id, like [`BatchState::new`].
    pub fn rebuild<W, A, B>(&mut self, waiting: W, available: A, busy: B)
    where
        W: IntoIterator<Item = WaitingRider>,
        A: IntoIterator<Item = AvailableDriver>,
        B: IntoIterator<Item = BusyDriver>,
    {
        self.views.rebuild_reference(waiting, available, busy);
        self.index
            .rebuild_reference(self.views.available().iter().map(|d| (d.id, d.pos)));
        let grid = self.index.grid();
        self.counts = RegionCounts::new(grid.num_regions());
        for r in self.views.waiting() {
            self.counts.add_waiting(grid.region_of(r.pickup));
        }
        for d in self.views.available() {
            self.counts.add_available(grid.region_of(d.pos));
        }
        for b in self.views.busy() {
            self.counts
                .add_rejoining(grid.region_of(b.dropoff_pos), b.dropoff_ms);
        }
    }

    /// A policy context over this state at batch time `now_ms`: its
    /// `riders` / `drivers` / `busy` slices are the state's own views.
    pub fn context<'a>(&'a self, now_ms: Millis, travel: &'a dyn TravelModel) -> BatchContext<'a> {
        BatchContext {
            now_ms,
            riders: self.views.waiting(),
            drivers: self.views.available(),
            busy: self.views.busy(),
            travel,
            grid: self.index.grid(),
            avail_index: &self.index,
            region_counts: &self.counts,
            views: &self.views,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RiderId;
    use mrvd_spatial::{ConstantSpeedModel, Point};

    const P: Point = Point::new(-73.98, 40.75);
    const Q: Point = Point::new(-73.90, 40.80);

    fn rider(id: u32) -> WaitingRider {
        WaitingRider {
            id: RiderId(id),
            pickup: P,
            dropoff: Q,
            request_ms: 0,
            deadline_ms: 60_000,
        }
    }

    fn driver(id: u32, pos: Point) -> AvailableDriver {
        AvailableDriver {
            id: DriverId(id),
            pos,
            available_since_ms: 0,
        }
    }

    fn busy(id: u32) -> BusyDriver {
        BusyDriver {
            id: DriverId(id),
            dropoff_ms: 30_000,
            dropoff_pos: Q,
        }
    }

    #[test]
    fn context_mirrors_the_given_entries() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let riders = [rider(4), rider(1)];
        let drivers = [driver(7, P), driver(2, Q)];
        let state = BatchState::new(&grid, &riders, &drivers, &[busy(5)]);
        let ctx = state.context(1_000, &travel);
        assert_eq!(ctx.now_ms, 1_000);
        let ids: Vec<DriverId> = ctx.drivers.iter().map(|d| d.id).collect();
        assert_eq!(ids, [DriverId(7), DriverId(2)], "input order is kept");
        assert_eq!(ctx.riders.len(), 2);
        assert_eq!(ctx.views.avail_slot(DriverId(2)), Some(1));
        assert_eq!(ctx.avail_index.len(), 2);
        assert_eq!(
            ctx.avail_index.in_region(grid.region_of(P)),
            &[(DriverId(7), P)]
        );
        assert_eq!(ctx.region_counts.totals(), (2, 2, 1));
        assert_eq!(ctx.region_counts.waiting()[grid.region_of(P).idx()], 2);
        assert_eq!(
            ctx.region_counts
                .rejoining_between(grid.region_of(Q), 0, 60_000),
            1
        );
    }

    #[test]
    fn rebuild_replaces_every_structure() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let mut state = BatchState::new(&grid, &[rider(0)], &[driver(0, P)], &[busy(1)]);
        state.rebuild([rider(3)], [driver(1, Q)], []);
        let ctx = state.context(0, &travel);
        assert_eq!(ctx.riders[0].id, RiderId(3));
        assert_eq!(ctx.views.avail_slot(DriverId(0)), None);
        assert!(ctx.busy.is_empty());
        assert!(ctx.avail_index.in_region(grid.region_of(P)).is_empty());
        assert_eq!(ctx.region_counts.totals(), (1, 1, 0));
        assert_eq!(ctx.region_counts.available()[grid.region_of(Q).idx()], 1);
    }

    #[test]
    #[should_panic(expected = "rider r3 appears twice")]
    fn rejects_a_duplicate_rider_id() {
        let grid = Grid::nyc_16x16();
        BatchState::new(&grid, &[rider(3), rider(1), rider(3)], &[], &[]);
    }

    #[test]
    #[should_panic(expected = "driver d5 appears twice")]
    fn rejects_a_driver_id_listed_twice() {
        let grid = Grid::nyc_16x16();
        BatchState::new(&grid, &[], &[driver(5, P)], &[busy(5)]);
    }
}
