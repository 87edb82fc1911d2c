//! Live per-region batch-state counts, maintained by the event engine.
//!
//! The queueing policies' rate estimators (Eqs. 18–19 of the paper) need
//! three per-region quantities at every batch: waiting riders `|R_k|`,
//! available drivers `|D_k|`, and busy drivers rejoining inside the
//! scheduling window `|D̂_k|`. Recomputing them from full rider / driver /
//! busy scans costs `O(|R| + |D| + |B|)` per executed batch — the dominant
//! rate-estimation cost once candidate generation runs off the live
//! [`mrvd_spatial::RegionIndex`]. Between consecutive batches almost
//! nothing changes, so the engine maintains these counts *incrementally*
//! at true event times (admission, renege, assignment, dropoff, shift
//! on/off) and hands them to policies through
//! [`crate::BatchContext::region_counts`].
//!
//! The rejoining count depends on the policy's scheduling window
//! `[now, now + t_c)`, which the engine does not know; instead of a count
//! the engine keeps each region's **sorted multiset of rejoin (dropoff)
//! times** for the non-retiring busy fleet, and
//! [`RegionCounts::rejoining_between`] answers the window query with two
//! binary searches over a (typically tiny) per-region bucket.
//!
//! Mirroring the live candidate index, a dirty-region set records which
//! regions changed since the last [`RegionCounts::clear_dirty`] and
//! [`RegionCounts::ops_applied`] counts every mutation, so callers can
//! observe how sparse the batch-to-batch change really is
//! ([`crate::SimResult::counts_ops`] /
//! [`crate::SimResult::counts_regions_dirtied`]).

use mrvd_spatial::RegionId;

use crate::types::Millis;

/// Live per-region counts of the batch state (see module docs).
///
/// Invariants the engine maintains: `waiting` mirrors the waiting-rider
/// view by pickup region, `available` mirrors the available-driver view
/// by position region, and the rejoin-time multisets mirror the busy
/// (non-retiring) view by dropoff region — all updated at the same event
/// times as the views themselves.
#[derive(Debug, Clone)]
pub struct RegionCounts {
    waiting: Vec<u32>,
    available: Vec<u32>,
    /// Per-region rejoin (dropoff) timestamps of non-retiring busy
    /// drivers, each bucket sorted ascending.
    rejoin_times: Vec<Vec<Millis>>,
    total_waiting: usize,
    total_available: usize,
    total_rejoining: usize,
    /// Regions whose counts changed since the last
    /// [`RegionCounts::clear_dirty`], deduplicated via `dirty_flag`.
    dirty: Vec<RegionId>,
    dirty_flag: Vec<bool>,
    /// Superset of the regions with any nonzero count (see
    /// [`RegionCounts::occupied_regions`]), deduplicated via `listed`.
    occupied: Vec<RegionId>,
    listed: Vec<bool>,
    /// Amortized-compaction threshold for `occupied`.
    occupied_watermark: usize,
    ops: u64,
}

/// Floor of the occupied-list compaction watermark: lists shorter than
/// this are never compacted, so tiny grids skip the machinery entirely.
const OCCUPIED_WATERMARK_FLOOR: usize = 64;

impl RegionCounts {
    /// Zeroed counts over `num_regions` regions.
    pub fn new(num_regions: usize) -> Self {
        Self {
            waiting: vec![0; num_regions],
            available: vec![0; num_regions],
            rejoin_times: vec![Vec::new(); num_regions],
            total_waiting: 0,
            total_available: 0,
            total_rejoining: 0,
            dirty: Vec::new(),
            dirty_flag: vec![false; num_regions],
            occupied: Vec::new(),
            listed: vec![false; num_regions],
            occupied_watermark: OCCUPIED_WATERMARK_FLOOR,
            ops: 0,
        }
    }

    /// Number of regions tracked.
    pub fn num_regions(&self) -> usize {
        self.waiting.len()
    }

    fn touch(&mut self, r: RegionId) {
        self.ops += 1;
        if !self.dirty_flag[r.idx()] {
            self.dirty_flag[r.idx()] = true;
            self.dirty.push(r);
        }
    }

    /// Enters `r` into the occupied list; called on every `add_*`.
    /// Removals leave the list alone (a stale listing is harmless — all
    /// its counts read zero), and an amortized compaction sweep keeps
    /// the list proportional to the truly occupied set.
    fn list(&mut self, r: RegionId) {
        if !self.listed[r.idx()] {
            self.listed[r.idx()] = true;
            self.occupied.push(r);
            if self.occupied.len() > self.occupied_watermark {
                self.compact_occupied();
            }
        }
    }

    /// Drops listings whose region has no count left, then doubles the
    /// watermark relative to the survivors so compaction stays O(1)
    /// amortized per `add_*`.
    fn compact_occupied(&mut self) {
        let (waiting, available, rejoin_times, listed) = (
            &self.waiting,
            &self.available,
            &self.rejoin_times,
            &mut self.listed,
        );
        self.occupied.retain(|&r| {
            let k = r.idx();
            let live = waiting[k] > 0 || available[k] > 0 || !rejoin_times[k].is_empty();
            if !live {
                listed[k] = false;
            }
            live
        });
        self.occupied_watermark = OCCUPIED_WATERMARK_FLOOR.max(2 * self.occupied.len());
    }

    /// A rider starts waiting in region `r`.
    pub fn add_waiting(&mut self, r: RegionId) {
        self.waiting[r.idx()] += 1;
        self.total_waiting += 1;
        self.touch(r);
        self.list(r);
    }

    /// A rider leaves region `r`'s waiting set (assigned or reneged).
    pub fn remove_waiting(&mut self, r: RegionId) {
        assert!(self.waiting[r.idx()] > 0, "no waiting rider in region {r}");
        self.waiting[r.idx()] -= 1;
        self.total_waiting -= 1;
        self.touch(r);
    }

    /// A driver becomes available in region `r`.
    pub fn add_available(&mut self, r: RegionId) {
        self.available[r.idx()] += 1;
        self.total_available += 1;
        self.touch(r);
        self.list(r);
    }

    /// A driver stops being available in region `r` (assigned or parked).
    pub fn remove_available(&mut self, r: RegionId) {
        assert!(
            self.available[r.idx()] > 0,
            "no available driver in region {r}"
        );
        self.available[r.idx()] -= 1;
        self.total_available -= 1;
        self.touch(r);
    }

    /// A busy driver will rejoin region `r` at `dropoff_ms`.
    pub fn add_rejoining(&mut self, r: RegionId, dropoff_ms: Millis) {
        let bucket = &mut self.rejoin_times[r.idx()];
        let i = bucket.partition_point(|&t| t <= dropoff_ms);
        bucket.insert(i, dropoff_ms);
        self.total_rejoining += 1;
        self.touch(r);
        self.list(r);
    }

    /// Removes one rejoin entry of region `r` at exactly `dropoff_ms`
    /// (the driver dropped off, or was marked to retire there).
    ///
    /// # Panics
    /// Panics if no such entry exists — the engine's event bookkeeping
    /// guarantees one, so a miss is a state-machine bug.
    pub fn remove_rejoining(&mut self, r: RegionId, dropoff_ms: Millis) {
        let bucket = &mut self.rejoin_times[r.idx()];
        let i = bucket.partition_point(|&t| t < dropoff_ms);
        assert!(
            i < bucket.len() && bucket[i] == dropoff_ms,
            "no rejoin entry at {dropoff_ms} in region {r}"
        );
        bucket.remove(i);
        self.total_rejoining -= 1;
        self.touch(r);
    }

    /// Waiting riders per region, `|R_k|`.
    pub fn waiting(&self) -> &[u32] {
        &self.waiting
    }

    /// Available drivers per region, `|D_k|`.
    pub fn available(&self) -> &[u32] {
        &self.available
    }

    /// Busy drivers rejoining region `r` strictly inside the open window
    /// `(after_ms, before_ms)` — the `|D̂_k|` of Algorithm 1 with the
    /// half-open-consistent boundary: a driver dropping off exactly at
    /// `after_ms` (the batch timestamp) is already available, and one at
    /// `before_ms` rejoins only when the window has closed.
    pub fn rejoining_between(&self, r: RegionId, after_ms: Millis, before_ms: Millis) -> u32 {
        let bucket = &self.rejoin_times[r.idx()];
        let lo = bucket.partition_point(|&t| t <= after_ms);
        let hi = bucket.partition_point(|&t| t < before_ms);
        // A degenerate window (before ≤ after) can put `lo` past `hi`
        // when entries sit exactly at `after_ms`; it contains nothing.
        hi.saturating_sub(lo) as u32
    }

    /// Totals `(waiting, available, rejoining)` across all regions —
    /// they equal the batch views' lengths whenever the counts describe
    /// the batch (the engine debug-asserts this every executed batch).
    pub fn totals(&self) -> (usize, usize, usize) {
        (
            self.total_waiting,
            self.total_available,
            self.total_rejoining,
        )
    }

    /// A superset of the regions with any nonzero count: every region
    /// outside this list has `waiting == 0`, `available == 0` and an
    /// empty rejoin bucket. Listings go stale lazily when a region's
    /// last count drains (compaction reclaims them), so consumers must
    /// treat the list as "possibly occupied" — exactly what a sparse
    /// rate estimator needs, since writing a zero entry is idempotent.
    /// Order is event-history-dependent and carries no meaning.
    pub fn occupied_regions(&self) -> &[RegionId] {
        &self.occupied
    }

    /// Regions whose counts changed since the last
    /// [`RegionCounts::clear_dirty`], in first-dirtied order.
    pub fn dirty_regions(&self) -> &[RegionId] {
        &self.dirty
    }

    /// Resets the dirty-region set.
    pub fn clear_dirty(&mut self) {
        for r in self.dirty.drain(..) {
            self.dirty_flag[r.idx()] = false;
        }
    }

    /// Total mutations applied over the counts' lifetime.
    pub fn ops_applied(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: RegionId = RegionId(0);
    const R1: RegionId = RegionId(1);

    #[test]
    fn counts_follow_mutations_and_totals() {
        let mut c = RegionCounts::new(4);
        c.add_waiting(R0);
        c.add_waiting(R0);
        c.add_available(R1);
        c.add_rejoining(R1, 5_000);
        assert_eq!(c.waiting(), &[2, 0, 0, 0]);
        assert_eq!(c.available(), &[0, 1, 0, 0]);
        assert_eq!(c.totals(), (2, 1, 1));
        c.remove_waiting(R0);
        c.remove_available(R1);
        c.remove_rejoining(R1, 5_000);
        assert_eq!(c.totals(), (1, 0, 0));
        assert_eq!(c.ops_applied(), 7);
    }

    #[test]
    fn rejoining_window_is_open_on_both_ends() {
        let mut c = RegionCounts::new(2);
        for t in [1_000, 3_000, 3_000, 6_000, 9_000] {
            c.add_rejoining(R0, t);
        }
        // (3 000, 9 000): the duplicate 3 000s and the 9 000 boundary are
        // excluded, 6 000 is inside.
        assert_eq!(c.rejoining_between(R0, 3_000, 9_000), 1);
        // (0, 10 000): everything.
        assert_eq!(c.rejoining_between(R0, 0, 10_000), 5);
        // A dropoff exactly at the window start is already available.
        assert_eq!(c.rejoining_between(R0, 1_000, 2_000), 0);
        assert_eq!(c.rejoining_between(R1, 0, 10_000), 0);
        // Degenerate windows (before ≤ after) contain nothing, even with
        // an entry exactly at the start (the scan path also yields 0).
        assert_eq!(c.rejoining_between(R0, 3_000, 3_000), 0);
        assert_eq!(c.rejoining_between(R0, 6_000, 1_000), 0);
    }

    #[test]
    fn remove_rejoining_removes_exactly_one_copy() {
        let mut c = RegionCounts::new(1);
        c.add_rejoining(R0, 2_000);
        c.add_rejoining(R0, 2_000);
        c.remove_rejoining(R0, 2_000);
        assert_eq!(c.rejoining_between(R0, 0, 10_000), 1);
        c.remove_rejoining(R0, 2_000);
        assert_eq!(c.totals(), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "no rejoin entry")]
    fn removing_an_absent_rejoin_entry_panics() {
        let mut c = RegionCounts::new(1);
        c.add_rejoining(R0, 2_000);
        c.remove_rejoining(R0, 3_000);
    }

    #[test]
    fn occupied_list_covers_every_nonzero_region() {
        let mut c = RegionCounts::new(8);
        c.add_waiting(R0);
        c.add_available(R1);
        c.add_rejoining(RegionId(5), 1_000);
        let occupied: Vec<_> = c.occupied_regions().to_vec();
        assert!(occupied.contains(&R0));
        assert!(occupied.contains(&R1));
        assert!(occupied.contains(&RegionId(5)));
        // Removals leave stale listings (lazy), but the guarantee is
        // one-directional: unlisted regions are all-zero.
        c.remove_waiting(R0);
        for k in 0..8 {
            let r = RegionId(k);
            if !c.occupied_regions().contains(&r) {
                assert_eq!(c.waiting()[k as usize], 0);
                assert_eq!(c.available()[k as usize], 0);
                assert_eq!(c.rejoining_between(r, 0, Millis::MAX), 0);
            }
        }
    }

    #[test]
    fn occupied_list_deduplicates_and_compacts() {
        let mut c = RegionCounts::new(512);
        c.add_waiting(R0);
        c.add_waiting(R0);
        c.add_available(R0);
        assert_eq!(c.occupied_regions(), &[R0], "one listing per region");
        // Drain R0, then churn enough distinct regions to trip the
        // watermark: the stale R0 listing must be reclaimed and the
        // list must stay bounded by the live set.
        c.remove_waiting(R0);
        c.remove_waiting(R0);
        c.remove_available(R0);
        for k in 1..=OCCUPIED_WATERMARK_FLOOR as u32 + 4 {
            c.add_waiting(RegionId(k));
            c.remove_waiting(RegionId(k));
        }
        assert!(
            c.occupied_regions().len() <= OCCUPIED_WATERMARK_FLOOR + 4,
            "compaction keeps the list near the live set, got {}",
            c.occupied_regions().len()
        );
        assert!(!c.occupied_regions().contains(&R0));
        // A region re-listed after compaction shows up again.
        c.add_available(R0);
        assert!(c.occupied_regions().contains(&R0));
    }

    #[test]
    fn dirty_set_deduplicates_and_clears() {
        let mut c = RegionCounts::new(4);
        c.add_waiting(R0);
        c.add_available(R0);
        c.add_waiting(R1);
        assert_eq!(c.dirty_regions(), &[R0, R1]);
        c.clear_dirty();
        assert!(c.dirty_regions().is_empty());
        c.remove_waiting(R1);
        assert_eq!(c.dirty_regions(), &[R1]);
    }
}
