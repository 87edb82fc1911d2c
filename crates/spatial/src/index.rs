//! Per-region bucket index for candidate queries, with incremental
//! maintenance.
//!
//! The dispatcher repeatedly asks "which available drivers could reach this
//! rider before the deadline?". A full scan per rider is O(riders × drivers)
//! per batch. Bucketing items by region lets a radius query
//! ([`RegionIndex::within_radius_into`]) scan only the buckets under a
//! lon/lat box that provably holds the radius, rejecting most items by
//! four compares against the box before the exact distance test. Each
//! hit comes back with the distance that test measured, bit for bit
//! [`Point::distance_m`] from the query point, so a caller that prices a
//! hit by its distance (candidate search under a constant speed) runs no
//! second haversine.
//!
//! Between consecutive batch timestamps almost nothing moves: drivers only
//! change position at dropoffs, and only change availability at
//! assignments, dropoffs and shift changes. The index therefore supports
//! *incremental* maintenance — [`RegionIndex::insert`],
//! [`RegionIndex::remove`]/[`RegionIndex::remove_at`] and
//! [`RegionIndex::move_item`] applied at true event times — alongside the
//! from-scratch [`RegionIndex::rebuild_reference`] path kept for
//! differential testing. A dirty-region set ([`RegionIndex::dirty_regions`])
//! records which buckets changed since the last
//! [`RegionIndex::clear_dirty`], and [`RegionIndex::ops_applied`] counts
//! every applied mutation, so callers can observe how sparse the
//! batch-to-batch state change really is.
//!
//! The same sparsity lets a caller remember a radius query that found
//! nothing. Every insert stamps its bucket with the op counter, a removal
//! stamps nothing, and [`RegionIndex::within_radius_into`] reports the
//! cells it scanned. So if [`RegionIndex::inserted_since`] is false for
//! those cells and the op count read after the query, every item now in
//! them was already there, and already outside the radius: the same query,
//! or one with a smaller radius, still finds nothing. Each index has an
//! [`RegionIndex::instance_id`] of its own (a clone gets a fresh one), so
//! a remembered answer is never checked against another index's stamps.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::geo::{haversine_from, radius_box, Point};
use crate::grid::{Grid, RegionId};

/// The next [`RegionIndex::instance_id`]: every index built or cloned in
/// this process takes one, so no two indexes share an id.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(0);

fn next_instance_id() -> u64 {
    // The id publishes no other data; the atomic add alone makes it
    // unique, so no ordering is needed.
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The grid cells one radius query scanned (see
/// [`RegionIndex::within_radius_into`]), to hand back to
/// [`RegionIndex::inserted_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// First and last column.
    cols: (u32, u32),
    /// First and last row.
    rows: (u32, u32),
}

/// An index of items bucketed by their grid region.
///
/// `T` is typically a driver id. Items carry their exact position, and
/// radius-query hits their distance from the query point, so that
/// callers can apply precise travel-time filters after the query.
///
/// # Example
///
/// ```
/// use mrvd_spatial::{Grid, Point, RegionIndex};
///
/// let mut ix = RegionIndex::new(Grid::nyc_16x16());
/// let midtown = Point::new(-73.98, 40.75);
/// let harlem = Point::new(-73.94, 40.81);
/// ix.insert(1u32, midtown);
/// ix.insert(2u32, harlem);
///
/// // Radius query: only the midtown driver is within 2 km.
/// let near: Vec<u32> = ix
///     .within_radius(midtown, 2_000.0)
///     .into_iter()
///     .map(|(id, _, _)| id)
///     .collect();
/// assert_eq!(near, vec![1]);
///
/// // Incremental maintenance: the driver drops off in Harlem and the
/// // index follows without a rebuild.
/// assert!(ix.move_item(1u32, midtown, harlem));
/// assert_eq!(ix.within_radius(midtown, 2_000.0).len(), 0);
/// assert_eq!(ix.within_radius(harlem, 2_000.0).len(), 2);
/// ```
#[derive(Debug)]
pub struct RegionIndex<T> {
    grid: Grid,
    buckets: Vec<Vec<(T, Point)>>,
    len: usize,
    /// Regions whose bucket contents changed since the last
    /// [`RegionIndex::clear_dirty`], deduplicated via `dirty_flag`.
    dirty: Vec<RegionId>,
    dirty_flag: Vec<bool>,
    ops: u64,
    /// Per bucket, the op count right after its latest insert (0 if none).
    insert_stamp: Vec<u64>,
    instance_id: u64,
}

/// A clone is a new index: it takes a fresh [`RegionIndex::instance_id`],
/// because the two op counters can reach the same value by different
/// mutations once either changes.
impl<T: Clone> Clone for RegionIndex<T> {
    fn clone(&self) -> Self {
        Self {
            grid: self.grid.clone(),
            buckets: self.buckets.clone(),
            len: self.len,
            dirty: self.dirty.clone(),
            dirty_flag: self.dirty_flag.clone(),
            ops: self.ops,
            insert_stamp: self.insert_stamp.clone(),
            instance_id: next_instance_id(),
        }
    }
}

impl<T: Copy> RegionIndex<T> {
    /// An empty index over `grid`.
    pub fn new(grid: Grid) -> Self {
        let buckets = vec![Vec::new(); grid.num_regions()];
        let dirty_flag = vec![false; grid.num_regions()];
        let insert_stamp = vec![0; grid.num_regions()];
        Self {
            grid,
            buckets,
            len: 0,
            dirty: Vec::new(),
            dirty_flag,
            ops: 0,
            insert_stamp,
            instance_id: next_instance_id(),
        }
    }

    fn mark_dirty(&mut self, r: RegionId) {
        if !self.dirty_flag[r.idx()] {
            self.dirty_flag[r.idx()] = true;
            self.dirty.push(r);
        }
    }

    /// Inserts `item` at position `p`, stamping its bucket with the new
    /// op count.
    pub fn insert(&mut self, item: T, p: Point) {
        let r = self.grid.region_of(p);
        self.buckets[r.idx()].push((item, p));
        self.len += 1;
        self.ops += 1;
        self.insert_stamp[r.idx()] = self.ops;
        self.mark_dirty(r);
    }

    /// Removes every copy of `item` from region `r`'s bucket; returns how
    /// many were removed. (Items are few per bucket, so a linear sweep is
    /// cheaper than a secondary map.)
    pub fn remove(&mut self, item: T, r: RegionId) -> usize
    where
        T: PartialEq,
    {
        let bucket = &mut self.buckets[r.idx()];
        let before = bucket.len();
        bucket.retain(|(x, _)| *x != item);
        let removed = before - bucket.len();
        self.len -= removed;
        if removed > 0 {
            self.ops += removed as u64;
            self.mark_dirty(r);
        }
        removed
    }

    /// Removes every copy of `item` from the bucket of the region
    /// containing `p` (the caller's record of where the item was
    /// inserted); returns how many were removed.
    pub fn remove_at(&mut self, item: T, p: Point) -> usize
    where
        T: PartialEq,
    {
        let r = self.grid.region_of(p);
        self.remove(item, r)
    }

    /// Moves `item` from its recorded position `from` to `to`: removes it
    /// from `from`'s region and re-inserts it at `to`. Returns whether the
    /// item was found at `from` (if not, nothing is inserted — the index
    /// never invents items).
    pub fn move_item(&mut self, item: T, from: Point, to: Point) -> bool
    where
        T: PartialEq,
    {
        if self.remove_at(item, from) == 0 {
            return false;
        }
        self.insert(item, to);
        true
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears all buckets, keeping capacity. Non-empty regions are marked
    /// dirty (their contents changed to nothing); like any removal, a
    /// clear stamps nothing.
    pub fn clear(&mut self) {
        for i in 0..self.buckets.len() {
            if !self.buckets[i].is_empty() {
                self.buckets[i].clear();
                let id = u32::try_from(i).expect("bucket count bounded by u32 region ids");
                self.mark_dirty(RegionId(id));
            }
        }
        self.len = 0;
    }

    /// Clears and refills the index from `items` — the from-scratch path
    /// the per-batch rebuild used before incremental maintenance existed,
    /// kept as the differential-testing reference: after any sequence of
    /// [`RegionIndex::insert`] / [`RegionIndex::remove`] /
    /// [`RegionIndex::move_item`] calls, the incrementally maintained
    /// index must hold exactly the items a `rebuild_reference` over the
    /// ground-truth set would produce (bucket *order* may differ; bucket
    /// *contents* may not). Each refill is an [`RegionIndex::insert`], so
    /// a rebuild restamps every bucket it leaves non-empty.
    pub fn rebuild_reference<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (T, Point)>,
    {
        self.clear();
        for (item, p) in items {
            self.insert(item, p);
        }
    }

    /// Regions whose contents changed since the last
    /// [`RegionIndex::clear_dirty`], in first-dirtied order.
    pub fn dirty_regions(&self) -> &[RegionId] {
        &self.dirty
    }

    /// Resets the dirty-region set (typically after a consumer has
    /// refreshed whatever it derives from the dirtied buckets).
    pub fn clear_dirty(&mut self) {
        for r in self.dirty.drain(..) {
            self.dirty_flag[r.idx()] = false;
        }
    }

    /// Total mutations applied over the index's lifetime: one per insert,
    /// one per removed copy, two per successful move (its remove + its
    /// insert). Rebuilds count their constituent operations.
    pub fn ops_applied(&self) -> u64 {
        self.ops
    }

    /// This index's id, unique in the process: [`RegionIndex::new`] and
    /// `clone` each take a fresh one, and mutations keep it.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Whether any bucket in `cells` has had an insert since
    /// [`RegionIndex::ops_applied`] read `ops` — the insert half of a
    /// move and every insert of a rebuild included; removals do not
    /// count.
    pub fn inserted_since(&self, cells: CellRange, ops: u64) -> bool {
        let cols = self.grid.cols();
        (cells.rows.0..=cells.rows.1).any(|row| {
            let first = RegionId(row * cols + cells.cols.0).idx();
            let last = RegionId(row * cols + cells.cols.1).idx();
            self.insert_stamp[first..=last].iter().any(|&s| s > ops)
        })
    }

    /// Items in one region.
    pub fn in_region(&self, r: RegionId) -> &[(T, Point)] {
        &self.buckets[r.idx()]
    }

    /// The grid this index is built over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Collects every item whose straight-line distance to `p` is at most
    /// `radius_m`, as `(item, position, distance)` with the distance
    /// `p.distance_m(&position)` in meters. The result is not sorted;
    /// callers order by their own criterion (travel time, cost…).
    pub fn within_radius(&self, p: Point, radius_m: f64) -> Vec<(T, Point, f64)> {
        let mut out = Vec::new();
        self.within_radius_into(p, radius_m, &mut out);
        out
    }

    /// Like [`RegionIndex::within_radius`], appending into a caller-held
    /// buffer so per-query allocations amortize away. `out` is cleared
    /// first. Returns the cells scanned, or `None` for a NaN or negative
    /// radius, which scans nothing.
    ///
    /// One pass over the buckets of a lon/lat box that holds the whole
    /// radius, allocating nothing. The box corners map to a cell range
    /// through `Grid::coords_of`, the arithmetic that assigns items to
    /// buckets, so every item inside the box sits in a scanned bucket —
    /// out-of-extent items clamped into border cells included. Four
    /// compares against the box drop most non-hits before the haversine,
    /// which stays the only membership test: the hits are exactly those
    /// of a linear scan, for latitudes in [−90°, 90°] and longitudes that
    /// do not wrap across the antimeridian. An item in a cell outside the
    /// returned range is therefore farther than `radius_m` from `p`.
    ///
    /// Each hit carries the distance its membership test computed, so a
    /// caller pricing the hit by distance needs no second haversine. The
    /// query point's `cos φ` is computed once per query; the rest of
    /// [`haversine_m`](crate::haversine_m) runs per item, so the distance
    /// equals `p.distance_m(&q)` bit for bit.
    pub fn within_radius_into(
        &self,
        p: Point,
        radius_m: f64,
        out: &mut Vec<(T, Point, f64)>,
    ) -> Option<CellRange> {
        out.clear();
        if radius_m.is_nan() || radius_m < 0.0 {
            // No distance qualifies (and the box would be inside out).
            return None;
        }
        let (lo, hi) = radius_box(p, radius_m);
        let (c0, r0) = self.grid.coords_of(lo);
        let (c1, r1) = self.grid.coords_of(hi);
        let cols = self.grid.cols();
        let cos_p = p.lat.to_radians().cos();
        for row in r0..=r1 {
            let first = RegionId(row * cols + c0).idx();
            let last = RegionId(row * cols + c1).idx();
            for bucket in &self.buckets[first..=last] {
                for &(item, q) in bucket {
                    // An unbounded axis has infinite corners, and NaN
                    // compares false, so neither rejects anything here.
                    if q.lon < lo.lon || q.lon > hi.lon || q.lat < lo.lat || q.lat > hi.lat {
                        continue;
                    }
                    let d = haversine_from(p, cos_p, q);
                    if d <= radius_m {
                        out.push((item, q, d));
                    }
                }
            }
        }
        Some(CellRange {
            cols: (c0, c1),
            rows: (r0, r1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid, NYC_EXTENT};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid() -> Grid {
        Grid::nyc_16x16()
    }

    /// Order-normalized bucket contents: `(region, [(item, pos bits)])`.
    type Canonical<T> = Vec<(u32, Vec<(T, (u64, u64))>)>;

    /// Bucket contents per region, order-normalized — the canonical form
    /// the incremental-vs-rebuild equivalence compares.
    fn canonical<T: Copy + Ord>(ix: &RegionIndex<T>) -> Canonical<T> {
        (0..ix.grid().num_regions() as u32)
            .map(|r| {
                let mut items: Vec<(T, (u64, u64))> = ix
                    .in_region(RegionId(r))
                    .iter()
                    .map(|&(t, p)| (t, (p.lon.to_bits(), p.lat.to_bits())))
                    .collect();
                items.sort_unstable();
                (r, items)
            })
            .filter(|(_, items)| !items.is_empty())
            .collect()
    }

    #[test]
    fn insert_and_query_region() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        ix.insert(7u32, p);
        let r = ix.grid().region_of(p);
        assert_eq!(ix.in_region(r), &[(7, p)]);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn remove_deletes_only_target() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        ix.insert(1u32, p);
        ix.insert(2u32, p);
        let r = ix.grid().region_of(p);
        assert_eq!(ix.remove(1, r), 1);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.in_region(r), &[(2, p)]);
        assert_eq!(ix.remove(99, r), 0);
    }

    #[test]
    fn remove_at_uses_the_position_region() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        let q = Point::new(-73.8, 40.85);
        ix.insert(1u32, p);
        ix.insert(1u32, q);
        assert_eq!(ix.remove_at(1, p), 1);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.in_region(ix.grid().region_of(q)), &[(1, q)]);
    }

    #[test]
    fn move_item_relocates_and_reports_missing() {
        let mut ix = RegionIndex::new(grid());
        let from = Point::new(-73.9, 40.75);
        let to = Point::new(-73.8, 40.85);
        ix.insert(5u32, from);
        assert!(ix.move_item(5, from, to));
        assert_eq!(ix.len(), 1);
        assert!(ix.in_region(ix.grid().region_of(from)).is_empty());
        assert_eq!(ix.in_region(ix.grid().region_of(to)), &[(5, to)]);
        // Unknown item: no-op, and nothing is invented at `to`.
        assert!(!ix.move_item(6, from, to));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn dirty_set_tracks_touched_regions_without_duplicates() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        let q = Point::new(-73.8, 40.85);
        assert!(ix.dirty_regions().is_empty());
        ix.insert(1u32, p);
        ix.insert(2u32, p); // same region → still one dirty entry
        ix.insert(3u32, q);
        let rp = ix.grid().region_of(p);
        let rq = ix.grid().region_of(q);
        assert_eq!(ix.dirty_regions(), &[rp, rq]);
        ix.clear_dirty();
        assert!(ix.dirty_regions().is_empty());
        // A failed remove dirties nothing; a successful one does.
        ix.remove(99, rp);
        assert!(ix.dirty_regions().is_empty());
        ix.remove(1, rp);
        assert_eq!(ix.dirty_regions(), &[rp]);
        // A move dirties both endpoints.
        ix.clear_dirty();
        ix.move_item(3, q, p);
        assert_eq!(ix.dirty_regions(), &[rq, rp]);
    }

    #[test]
    fn ops_count_every_applied_mutation() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        let q = Point::new(-73.8, 40.85);
        assert_eq!(ix.ops_applied(), 0);
        ix.insert(1u32, p); // 1
        ix.insert(2u32, p); // 2
        ix.remove(99, ix.grid().region_of(p)); // miss: still 2
        assert_eq!(ix.ops_applied(), 2);
        ix.remove_at(1, p); // 3
        ix.move_item(2, p, q); // remove + insert: 5
        assert_eq!(ix.ops_applied(), 5);
    }

    /// The one cell holding `p`, as a scanned range.
    fn cell_of(ix: &RegionIndex<u32>, p: Point) -> CellRange {
        let (col, row) = ix.grid().coords(ix.grid().region_of(p));
        CellRange {
            cols: (col, col),
            rows: (row, row),
        }
    }

    #[test]
    fn inserts_stamp_their_bucket_and_removals_do_not() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        let q = Point::new(-73.8, 40.85);
        let (cp, cq) = (cell_of(&ix, p), cell_of(&ix, q));
        assert!(!ix.inserted_since(cp, 0));
        ix.insert(1u32, p); // op 1
        assert!(ix.inserted_since(cp, 0));
        assert!(!ix.inserted_since(cp, 1));
        assert!(!ix.inserted_since(cq, 0));
        ix.remove_at(1, p); // op 2, no stamp
        assert!(!ix.inserted_since(cp, 1));
        ix.insert(2, p); // op 3
        ix.move_item(2, p, q); // ops 4 (remove) and 5 (insert at q)
        assert!(ix.inserted_since(cq, 3));
        assert!(!ix.inserted_since(cp, 3));
        // A rebuild restamps every bucket it fills, not the ones it
        // empties.
        ix.rebuild_reference([(3u32, p)]); // op 6
        assert!(ix.inserted_since(cp, 5));
        assert!(!ix.inserted_since(cq, 5));
        // A range reports an insert in any of its cells.
        let both = CellRange {
            cols: (cp.cols.0.min(cq.cols.0), cp.cols.0.max(cq.cols.0)),
            rows: (cp.rows.0.min(cq.rows.0), cp.rows.0.max(cq.rows.0)),
        };
        assert!(ix.inserted_since(both, 5));
        assert!(ix.inserted_since(both, 4));
        assert!(!ix.inserted_since(both, 6));
    }

    #[test]
    fn every_new_and_clone_gets_a_fresh_instance_id() {
        let p = Point::new(-73.9, 40.75);
        let mut a: RegionIndex<u32> = RegionIndex::new(grid());
        a.insert(1, p);
        let b: RegionIndex<u32> = RegionIndex::new(grid());
        let c = a.clone();
        let d = c.clone();
        let mut ids = vec![
            a.instance_id(),
            b.instance_id(),
            c.instance_id(),
            d.instance_id(),
        ];
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "{ids:?}");
        // A clone copies contents, op count and stamps; only the id is new.
        assert_eq!(canonical(&c), canonical(&a));
        assert_eq!(c.ops_applied(), a.ops_applied());
        assert!(c.inserted_since(cell_of(&c, p), 0));
        // Mutations keep the id.
        let id = a.instance_id();
        a.insert(2, p);
        a.remove_at(1, p);
        a.rebuild_reference([(3, p)]);
        assert_eq!(a.instance_id(), id);
    }

    #[test]
    fn rebuild_reference_replaces_contents() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        let q = Point::new(-73.8, 40.85);
        ix.insert(1u32, p);
        ix.rebuild_reference([(2u32, q), (3u32, q)]);
        assert_eq!(ix.len(), 2);
        assert!(ix.in_region(ix.grid().region_of(p)).is_empty());
        assert_eq!(ix.in_region(ix.grid().region_of(q)), &[(2, q), (3, q)]);
    }

    #[test]
    fn within_radius_finds_all_and_only_nearby() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = grid();
        let mut ix = RegionIndex::new(g.clone());
        let mut pts = Vec::new();
        for i in 0..500u32 {
            let p = Point::new(rng.gen_range(-74.03..-73.77), rng.gen_range(40.58..40.92));
            ix.insert(i, p);
            pts.push(p);
        }
        let q = Point::new(-73.9, 40.75);
        let radius = 3_000.0;
        let got: std::collections::HashSet<u32> = ix
            .within_radius(q, radius)
            .into_iter()
            .map(|(i, _, _)| i)
            .collect();
        let expect: std::collections::HashSet<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.distance_m(p) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn within_radius_into_reuses_buffer_and_matches_alloc_variant() {
        let mut ix = RegionIndex::new(grid());
        let p = Point::new(-73.9, 40.75);
        for i in 0..20u32 {
            ix.insert(i, p);
        }
        let mut buf = vec![(99u32, p, 0.0)]; // stale content must be cleared
        let cells = ix.within_radius_into(p, 100.0, &mut buf);
        assert_eq!(buf.len(), 20);
        assert_eq!(ix.within_radius(p, 100.0), buf);
        // The query's own cell is in its scanned range; a radius no
        // distance can meet scans nothing.
        let own = cell_of(&ix, p);
        let cells = cells.expect("cells scanned");
        assert!(cells.cols.0 <= own.cols.0 && own.cols.1 <= cells.cols.1);
        assert!(cells.rows.0 <= own.rows.0 && own.rows.1 <= cells.rows.1);
        for radius in [-1.0, f64::NAN] {
            assert_eq!(ix.within_radius_into(p, radius, &mut buf), None);
            assert!(buf.is_empty());
        }
    }

    /// Ids of the items a linear scan finds within `radius` of `q`.
    fn linear_scan(pts: &[Point], q: Point, radius: f64) -> Vec<u32> {
        (0u32..)
            .zip(pts)
            .filter(|(_, p)| q.distance_m(p) <= radius)
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids of the items the index finds within `radius` of `q`, sorted,
    /// after checking that each hit carries `q.distance_m` of its
    /// position, bit for bit.
    fn indexed(ix: &RegionIndex<u32>, q: Point, radius: f64) -> Vec<u32> {
        let mut ids: Vec<u32> = ix
            .within_radius(q, radius)
            .into_iter()
            .map(|(i, p, d)| {
                assert_eq!(d.to_bits(), q.distance_m(&p).to_bits(), "{i} at {p:?}");
                i
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn unbounded_longitude_branches_match_linear_scan() {
        use crate::geo::radius_box;
        let mut rng = StdRng::seed_from_u64(11);
        // A polar cap, every longitude: a query ~220 m from the pole gets
        // a box past 90° (the φmax branch), so hits come from all columns.
        let polar = Grid::new(Point::new(-180.0, 85.0), Point::new(180.0, 90.0), 36, 5);
        let mut ix = RegionIndex::new(polar);
        let pts: Vec<Point> = (0..1_000)
            .map(|_| Point::new(rng.gen_range(-180.0..180.0), rng.gen_range(89.9..90.0)))
            .collect();
        for (i, &p) in (0u32..).zip(&pts) {
            ix.insert(i, p);
        }
        let q = Point::new(0.0, 89.998);
        let (lo, hi) = radius_box(q, 2_000.0);
        assert!(lo.lon.is_infinite() && hi.lon.is_infinite() && hi.lat < 90.02);
        let hits = indexed(&ix, q, 2_000.0);
        assert!(hits.len() > 10, "{} hits", hits.len());
        assert_eq!(hits, linear_scan(&pts, q, 2_000.0));
        // At 80° N an 800 km radius stays short of the pole but needs an
        // asin argument above 1: the longitude is unbounded again.
        let arctic = Grid::new(Point::new(-180.0, 60.0), Point::new(180.0, 90.0), 72, 30);
        let mut ix = RegionIndex::new(arctic);
        let pts: Vec<Point> = (0..2_000)
            .map(|_| Point::new(rng.gen_range(-180.0..180.0), rng.gen_range(60.0..90.0)))
            .collect();
        for (i, &p) in (0u32..).zip(&pts) {
            ix.insert(i, p);
        }
        let q = Point::new(0.0, 80.0);
        let (lo, hi) = radius_box(q, 800_000.0);
        assert!(lo.lon.is_infinite() && hi.lon.is_infinite() && hi.lat < 90.0);
        let hits = indexed(&ix, q, 800_000.0);
        assert!(hits.len() > 50, "{} hits", hits.len());
        assert_eq!(hits, linear_scan(&pts, q, 800_000.0));
    }

    #[test]
    fn degenerate_queries_and_positions_match_linear_scan() {
        // Non-finite query points, radii and item positions must neither
        // panic nor change the answer a linear scan gives. (A NaN
        // position is πR from everything under `distance_m`, so a
        // radius past πR takes it in.)
        let mut ix = RegionIndex::new(grid());
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut pts = vec![Point::new(-73.9, 40.75), Point::new(-73.9001, 40.7501)];
        for &x in &specials {
            pts.push(Point::new(x, 40.75));
            pts.push(Point::new(-73.9, x));
        }
        for (i, &p) in (0u32..).zip(&pts) {
            ix.insert(i, p);
        }
        let mut queries = vec![Point::new(-73.9, 40.75), Point::new(-75.0, 39.0)];
        for &x in &specials {
            queries.push(Point::new(x, 40.75));
            queries.push(Point::new(-73.9, x));
        }
        for q in queries {
            for radius in [0.0, 50.0, -1.0, f64::NAN, 3e7, f64::INFINITY] {
                assert_eq!(
                    indexed(&ix, q, radius),
                    linear_scan(&pts, q, radius),
                    "query {q:?} radius {radius}"
                );
            }
        }
    }

    proptest! {
        /// The box scan finds exactly what a linear scan finds: random
        /// grid shapes (1×N, N×1, non-square cells, up to 200×200) over
        /// the NYC extent or a box near 60° N, points up to one grid
        /// width outside the extent (clamped into border buckets), some
        /// coincident, and radii from 0 to past the grid diagonal,
        /// including radii that put an item exactly on the boundary.
        #[test]
        fn radius_query_matches_linear_scan(
            seed in 0u64..1_000_000,
            shape in 0u32..3,
            cols in 1u32..=200,
            rows in 1u32..=200,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (cols, rows) = match shape {
                0 => (1, rows),
                1 => (cols, 1),
                _ => (cols, rows),
            };
            let (min, max) = if seed % 2 == 0 {
                NYC_EXTENT
            } else {
                (Point::new(10.0, 59.5), Point::new(11.2, 60.3))
            };
            let mut ix = RegionIndex::new(Grid::new(min, max, cols, rows));
            let (w, h) = (max.lon - min.lon, max.lat - min.lat);
            let pt = |rng: &mut StdRng| Point::new(
                rng.gen_range(min.lon - w..max.lon + w),
                rng.gen_range(min.lat - h..max.lat + h),
            );
            let mut pts: Vec<Point> = (0..150).map(|_| pt(&mut rng)).collect();
            // Coincident items: copies of earlier positions.
            for k in 0..10 {
                pts.push(pts[k * 7]);
            }
            for (i, &p) in (0u32..).zip(&pts) {
                ix.insert(i, p);
            }
            let diagonal = min.distance_m(&max);
            for k in 0..10 {
                // Every other query sits exactly on an item.
                let q = if k % 2 == 0 { pts[rng.gen_range(0..pts.len())] } else { pt(&mut rng) };
                let radius = match k % 5 {
                    0 => 0.0,
                    1 => rng.gen_range(0.0..2_000.0),
                    2 => rng.gen_range(0.0..diagonal),
                    3 => rng.gen_range(diagonal..3.0 * diagonal),
                    _ => q.distance_m(&pts[rng.gen_range(0..pts.len())]),
                };
                prop_assert_eq!(indexed(&ix, q, radius), linear_scan(&pts, q, radius));
                // Every item outside the scanned cells is beyond the
                // radius: what remembering an empty answer relies on.
                let cells = ix.within_radius_into(q, radius, &mut Vec::new());
                let cells = cells.expect("a radius >= 0 scans cells");
                for p in &pts {
                    let (col, row) = ix.grid().coords(ix.grid().region_of(*p));
                    let inside = (cells.cols.0..=cells.cols.1).contains(&col)
                        && (cells.rows.0..=cells.rows.1).contains(&row);
                    prop_assert!(inside || q.distance_m(p) > radius);
                }
            }
        }

        /// The tentpole equivalence: an incrementally maintained index
        /// must stay equal to a from-scratch rebuild of its ground truth
        /// under random insert/remove/move sequences — same per-region
        /// contents, same length, and a dirty set that covers every
        /// region whose bucket changed.
        #[test]
        fn incremental_ops_match_rebuild_reference(seed in 0u64..40, n_ops in 10usize..120) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1E7);
            let g = grid();
            let mut inc: RegionIndex<u32> = RegionIndex::new(g.clone());
            let mut truth: Vec<(u32, Point)> = Vec::new();
            let pt = |rng: &mut StdRng| Point::new(
                rng.gen_range(-74.03..-73.77),
                rng.gen_range(40.58..40.92),
            );
            let mut next_id = 0u32;
            for _ in 0..n_ops {
                inc.clear_dirty();
                let before = canonical(&inc);
                match rng.gen_range(0u32..4) {
                    // Insert a fresh item.
                    0 | 1 => {
                        let p = pt(&mut rng);
                        truth.push((next_id, p));
                        inc.insert(next_id, p);
                        next_id += 1;
                    }
                    // Remove a (possibly absent) item.
                    2 => {
                        if truth.is_empty() {
                            // Removing from an empty ground truth is a
                            // no-op by construction.
                            inc.remove_at(9999, pt(&mut rng));
                        } else {
                            let k = rng.gen_range(0..truth.len());
                            let (id, p) = truth.swap_remove(k);
                            prop_assert_eq!(inc.remove_at(id, p), 1);
                        }
                    }
                    // Move an item (a driver dropping off elsewhere).
                    _ => {
                        if !truth.is_empty() {
                            let k = rng.gen_range(0..truth.len());
                            let to = pt(&mut rng);
                            let (id, from) = truth[k];
                            prop_assert!(inc.move_item(id, from, to));
                            truth[k] = (id, to);
                        }
                    }
                }
                // The incremental index equals a fresh rebuild of the
                // ground truth…
                let mut rebuilt: RegionIndex<u32> = RegionIndex::new(g.clone());
                rebuilt.rebuild_reference(truth.iter().copied());
                prop_assert_eq!(canonical(&inc), canonical(&rebuilt));
                prop_assert_eq!(inc.len(), truth.len());
                // …and every region whose canonical contents changed this
                // step is in the dirty set.
                let after = canonical(&inc);
                let changed: Vec<u32> = {
                    let get = |c: &Canonical<u32>, r: u32|
                        c.iter().find(|(k, _)| *k == r).map(|(_, v)| v.clone());
                    let mut regions: Vec<u32> =
                        before.iter().chain(after.iter()).map(|(r, _)| *r).collect();
                    regions.sort_unstable();
                    regions.dedup();
                    regions
                        .into_iter()
                        .filter(|&r| get(&before, r) != get(&after, r))
                        .collect()
                };
                for r in changed {
                    prop_assert!(
                        inc.dirty_regions().contains(&RegionId(r)),
                        "region {} changed but was not dirtied", r
                    );
                }
            }
        }
    }
}
