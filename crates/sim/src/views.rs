//! Live policy-facing batch views, maintained by the event engine.
//!
//! Every executed batch hands the policy three views: waiting riders,
//! available drivers, and busy drivers with rejoin info. Rebuilding them
//! by scanning the full rider table and fleet costs `O(|R| + fleet)` per
//! executed batch — at sub-second Δ, where almost every slot is skipped
//! and the executed ones carry a handful of changes, that scan dominates
//! the engine-side cost. [`BatchViews`] instead maintains the three
//! views *incrementally* at true event times (admission, renege,
//! assignment, dropoff, shift on/off), so an executed batch touches only
//! the entries that actually changed.
//!
//! Each view is a slot-stable vector with an id → slot map: adds append,
//! removes `swap_remove` and patch the one moved entry's slot — both
//! `O(1)`. The price is that view order is *not* id order once a removal
//! has happened; every policy in the workspace is order-insensitive by
//! construction (all tie-breaks are on rider/driver ids, a total order
//! that does not depend on slot positions), and the engine-equivalence
//! batteries pin the resulting `SimResult`s byte-identical to the
//! scan-built id-ordered views of the legacy reference loop.
//!
//! Mirroring [`crate::RegionCounts`] and `mrvd_spatial::RegionIndex`,
//! the struct counts every mutation ([`BatchViews::ops_applied`]) and
//! the entries it touched since the last [`BatchViews::clear_dirty`]
//! ([`BatchViews::entries_dirtied`]), and keeps the from-scratch scan
//! construction alive as [`BatchViews::rebuild_reference`] for
//! differential testing.

use crate::policy::{AvailableDriver, BusyDriver, WaitingRider};
use crate::types::{DriverId, RiderId};

/// Absent-entry sentinel in the id → slot maps.
const NONE: u32 = u32::MAX;

/// Grows `map` on demand and records `slot` for `id`.
fn map_set(map: &mut Vec<u32>, id: u32, slot: u32) {
    if map.len() <= id as usize {
        map.resize(id as usize + 1, NONE);
    }
    map[id as usize] = slot;
}

/// Looks up `id` in `map`, treating out-of-range as absent.
fn map_get(map: &[u32], id: u32) -> Option<usize> {
    match map.get(id as usize) {
        Some(&slot) if slot != NONE => Some(slot as usize),
        _ => None,
    }
}

/// The three live policy-facing views (see module docs).
///
/// Invariants the engine maintains: the waiting view holds exactly the
/// admitted, unassigned, un-reneged riders; the available view exactly
/// the on-shift idle drivers; the busy view exactly the non-retiring
/// in-ride drivers (a retiring driver will not rejoin, so it is not
/// upcoming supply). Each membership mutation is `O(1)`.
#[derive(Debug, Clone, Default)]
pub struct BatchViews {
    waiting: Vec<WaitingRider>,
    avail: Vec<AvailableDriver>,
    busy: Vec<BusyDriver>,
    waiting_slot: Vec<u32>,
    avail_slot: Vec<u32>,
    busy_slot: Vec<u32>,
    ops: u64,
    dirty_entries: usize,
}

impl BatchViews {
    /// Empty views.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one mutation that touched `entries` view entries (the
    /// target, plus the filler an interior `swap_remove` relocated).
    fn touch(&mut self, entries: usize) {
        self.ops += 1;
        self.dirty_entries += entries;
    }

    /// The waiting riders (arbitrary order; see module docs).
    pub fn waiting(&self) -> &[WaitingRider] {
        &self.waiting
    }

    /// The available drivers (arbitrary order).
    pub fn available(&self) -> &[AvailableDriver] {
        &self.avail
    }

    /// The busy, non-retiring drivers (arbitrary order).
    pub fn busy(&self) -> &[BusyDriver] {
        &self.busy
    }

    /// Slot of rider `id` in [`BatchViews::waiting`], `None` if absent.
    pub fn waiting_slot(&self, id: RiderId) -> Option<usize> {
        map_get(&self.waiting_slot, id.0)
    }

    /// Slot of driver `id` in [`BatchViews::available`], `None` if absent.
    pub fn avail_slot(&self, id: DriverId) -> Option<usize> {
        map_get(&self.avail_slot, id.0)
    }

    /// Slot of driver `id` in [`BatchViews::busy`], `None` if absent.
    pub fn busy_slot(&self, id: DriverId) -> Option<usize> {
        map_get(&self.busy_slot, id.0)
    }

    /// A rider starts waiting.
    ///
    /// # Panics
    /// Panics if the rider is already in the waiting view — the engine
    /// admits each rider exactly once, so a duplicate is a state-machine
    /// bug.
    pub fn add_waiting(&mut self, r: WaitingRider) {
        assert!(
            self.waiting_slot(r.id).is_none(),
            "rider {} is already waiting",
            r.id
        );
        map_set(&mut self.waiting_slot, r.id.0, self.waiting.len() as u32);
        self.waiting.push(r);
        self.touch(1);
    }

    /// A rider stops waiting (assigned or reneged), returning the entry.
    ///
    /// # Panics
    /// Panics if the rider is not in the waiting view.
    pub fn remove_waiting(&mut self, id: RiderId) -> WaitingRider {
        let slot = self
            .waiting_slot(id)
            .unwrap_or_else(|| panic!("rider {id} is not waiting"));
        self.waiting_slot[id.0 as usize] = NONE;
        let r = self.waiting.swap_remove(slot);
        let mut entries = 1;
        if let Some(moved) = self.waiting.get(slot) {
            self.waiting_slot[moved.id.0 as usize] = slot as u32;
            entries = 2;
        }
        self.touch(entries);
        r
    }

    /// A driver becomes available.
    ///
    /// # Panics
    /// Panics if the driver is already in the available view.
    pub fn add_available(&mut self, d: AvailableDriver) {
        assert!(
            self.avail_slot(d.id).is_none(),
            "driver {} is already available",
            d.id
        );
        map_set(&mut self.avail_slot, d.id.0, self.avail.len() as u32);
        self.avail.push(d);
        self.touch(1);
    }

    /// A driver stops being available (assigned or parked off shift),
    /// returning the entry.
    ///
    /// # Panics
    /// Panics if the driver is not in the available view.
    pub fn remove_available(&mut self, id: DriverId) -> AvailableDriver {
        let slot = self
            .avail_slot(id)
            .unwrap_or_else(|| panic!("driver {id} is not available"));
        self.avail_slot[id.0 as usize] = NONE;
        let d = self.avail.swap_remove(slot);
        let mut entries = 1;
        if let Some(moved) = self.avail.get(slot) {
            self.avail_slot[moved.id.0 as usize] = slot as u32;
            entries = 2;
        }
        self.touch(entries);
        d
    }

    /// A driver starts a ride (or a pending retirement is cancelled,
    /// putting the still-in-flight driver back into upcoming supply).
    ///
    /// # Panics
    /// Panics if the driver is already in the busy view.
    pub fn add_busy(&mut self, b: BusyDriver) {
        assert!(
            self.busy_slot(b.id).is_none(),
            "driver {} is already busy",
            b.id
        );
        map_set(&mut self.busy_slot, b.id.0, self.busy.len() as u32);
        self.busy.push(b);
        self.touch(1);
    }

    /// A driver leaves the busy view (dropped off, or marked to retire
    /// at its dropoff), returning the entry.
    ///
    /// # Panics
    /// Panics if the driver is not in the busy view.
    pub fn remove_busy(&mut self, id: DriverId) -> BusyDriver {
        let slot = self
            .busy_slot(id)
            .unwrap_or_else(|| panic!("driver {id} is not busy"));
        self.busy_slot[id.0 as usize] = NONE;
        let b = self.busy.swap_remove(slot);
        let mut entries = 1;
        if let Some(moved) = self.busy.get(slot) {
            self.busy_slot[moved.id.0 as usize] = slot as u32;
            entries = 2;
        }
        self.touch(entries);
        b
    }

    /// Total mutations applied over the views' lifetime.
    pub fn ops_applied(&self) -> u64 {
        self.ops
    }

    /// View entries touched since the last [`BatchViews::clear_dirty`]:
    /// one per add, one or two per remove (the removed entry, plus the
    /// relocated filler when the removal was interior).
    pub fn entries_dirtied(&self) -> usize {
        self.dirty_entries
    }

    /// Resets the dirtied-entries counter.
    pub fn clear_dirty(&mut self) {
        self.dirty_entries = 0;
    }

    /// The from-scratch scan construction the incremental path replaced,
    /// kept for differential testing: discards all state and rebuilds
    /// the three views (in the given order) and their slot maps from
    /// full iterations. Counts neither ops nor dirtied entries — it is
    /// the reference, not a maintenance event.
    ///
    /// # Panics
    /// Panics if a rider id appears twice, or a driver id appears twice
    /// across `available` and `busy`.
    pub fn rebuild_reference<W, A, B>(&mut self, waiting: W, available: A, busy: B)
    where
        W: IntoIterator<Item = WaitingRider>,
        A: IntoIterator<Item = AvailableDriver>,
        B: IntoIterator<Item = BusyDriver>,
    {
        self.waiting.clear();
        self.avail.clear();
        self.busy.clear();
        self.waiting_slot.clear();
        self.avail_slot.clear();
        self.busy_slot.clear();
        for r in waiting {
            assert!(
                self.waiting_slot(r.id).is_none(),
                "rider {} appears twice",
                r.id
            );
            map_set(&mut self.waiting_slot, r.id.0, self.waiting.len() as u32);
            self.waiting.push(r);
        }
        for d in available {
            assert!(
                self.avail_slot(d.id).is_none(),
                "driver {} appears twice",
                d.id
            );
            map_set(&mut self.avail_slot, d.id.0, self.avail.len() as u32);
            self.avail.push(d);
        }
        for b in busy {
            assert!(
                self.avail_slot(b.id).is_none() && self.busy_slot(b.id).is_none(),
                "driver {} appears twice",
                b.id
            );
            map_set(&mut self.busy_slot, b.id.0, self.busy.len() as u32);
            self.busy.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_spatial::Point;

    const P: Point = Point::new(-73.98, 40.75);

    fn rider(id: u32) -> WaitingRider {
        WaitingRider {
            id: RiderId(id),
            pickup: P,
            dropoff: Point::new(-73.95, 40.78),
            request_ms: 1_000 * id as u64,
            deadline_ms: 200_000 + 1_000 * id as u64,
        }
    }

    fn avail(id: u32) -> AvailableDriver {
        AvailableDriver {
            id: DriverId(id),
            pos: P,
            available_since_ms: 10 * id as u64,
        }
    }

    fn busy(id: u32) -> BusyDriver {
        BusyDriver {
            id: DriverId(id),
            dropoff_ms: 60_000 + 100 * id as u64,
            dropoff_pos: P,
        }
    }

    #[test]
    fn membership_follows_mutations() {
        let mut v = BatchViews::new();
        v.add_waiting(rider(3));
        v.add_waiting(rider(0));
        v.add_available(avail(5));
        v.add_busy(busy(1));
        assert_eq!(v.waiting().len(), 2);
        assert_eq!(v.waiting_slot(RiderId(3)), Some(0));
        assert_eq!(v.waiting_slot(RiderId(0)), Some(1));
        assert_eq!(v.waiting_slot(RiderId(7)), None);
        assert_eq!(v.avail_slot(DriverId(5)), Some(0));
        assert_eq!(v.busy_slot(DriverId(1)), Some(0));
        let removed = v.remove_waiting(RiderId(3));
        assert_eq!(removed.id, RiderId(3));
        // The swap filled slot 0 with rider 0; its map entry moved too.
        assert_eq!(v.waiting_slot(RiderId(0)), Some(0));
        assert_eq!(v.waiting_slot(RiderId(3)), None);
        assert_eq!(v.ops_applied(), 5);
    }

    #[test]
    fn interior_removal_dirties_the_relocated_filler_too() {
        let mut v = BatchViews::new();
        for id in 0..3 {
            v.add_available(avail(id));
        }
        assert_eq!(v.entries_dirtied(), 3);
        v.clear_dirty();
        // Removing the middle entry relocates the tail entry: 2 dirtied.
        v.remove_available(DriverId(1));
        assert_eq!(v.entries_dirtied(), 2);
        v.clear_dirty();
        // Removing the last entry relocates nothing: 1 dirtied.
        v.remove_available(DriverId(2));
        assert_eq!(v.entries_dirtied(), 1);
        assert_eq!(v.avail_slot(DriverId(0)), Some(0));
        assert_eq!(v.available().len(), 1);
    }

    #[test]
    fn reentry_after_removal_works() {
        let mut v = BatchViews::new();
        v.add_busy(busy(2));
        v.remove_busy(DriverId(2));
        v.add_available(avail(2));
        let d = v.remove_available(DriverId(2));
        assert_eq!(d.id, DriverId(2));
        v.add_busy(busy(2));
        assert_eq!(v.busy_slot(DriverId(2)), Some(0));
    }

    #[test]
    fn rebuild_reference_resets_state_and_counts_nothing() {
        let mut v = BatchViews::new();
        v.add_waiting(rider(9));
        v.add_available(avail(9));
        let ops = v.ops_applied();
        v.clear_dirty();
        v.rebuild_reference(
            (0..4).map(rider),
            (0..2).map(avail),
            std::iter::once(busy(7)),
        );
        assert_eq!(v.waiting().len(), 4);
        assert_eq!(v.available().len(), 2);
        assert_eq!(v.busy().len(), 1);
        assert_eq!(v.waiting_slot(RiderId(9)), None, "old state discarded");
        assert_eq!(v.avail_slot(DriverId(9)), None);
        assert_eq!(v.waiting_slot(RiderId(2)), Some(2));
        assert_eq!(v.busy_slot(DriverId(7)), Some(0));
        assert_eq!(v.ops_applied(), ops, "the reference scan is not an op");
        assert_eq!(v.entries_dirtied(), 0);
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn duplicate_admission_panics() {
        let mut v = BatchViews::new();
        v.add_waiting(rider(1));
        v.add_waiting(rider(1));
    }

    #[test]
    #[should_panic(expected = "is not available")]
    fn removing_an_absent_driver_panics() {
        let mut v = BatchViews::new();
        v.remove_available(DriverId(0));
    }

    #[test]
    #[should_panic(expected = "is not busy")]
    fn removing_an_absent_busy_driver_panics() {
        let mut v = BatchViews::new();
        v.add_available(avail(0));
        v.remove_busy(DriverId(0));
    }
}
