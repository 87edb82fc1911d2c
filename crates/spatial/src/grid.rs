//! Rectangular region partition ("regions/grids" in the paper's §2).
//!
//! The paper divides the NYC extent (−74.03°..−73.77° lon,
//! 40.58°..40.92° lat) evenly into 16×16 grids; each grid cell is one
//! region `a_k` with its own double-sided queue.

use crate::geo::Point;

/// Identifier of a region (a cell of the [`Grid`]).
///
/// Regions are numbered row-major: `id = row * cols + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The raw index as a `usize`, for indexing per-region tables.
    #[inline]
    pub fn idx(self) -> usize {
        // lint:allow(D005): u32 → usize widens on every supported target
        self.0 as usize
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The paper's experimental extent of New York City:
/// longitude −74.03°..−73.77°, latitude 40.58°..40.92°.
pub const NYC_EXTENT: (Point, Point) = (Point::new(-74.03, 40.58), Point::new(-73.77, 40.92));

/// An even rectangular partition of a lon/lat bounding box into
/// `cols × rows` regions.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    min: Point,
    max: Point,
    cols: u32,
    rows: u32,
}

impl Grid {
    /// Creates a grid over `[min, max]` with the given cell counts.
    ///
    /// # Panics
    /// Panics if the box is degenerate, a cell count is zero, or the
    /// region count `rows × cols` does not fit a `u32` (region ids are
    /// `u32`, so `row * cols + col` must never overflow).
    pub fn new(min: Point, max: Point, cols: u32, rows: u32) -> Self {
        assert!(
            max.lon > min.lon && max.lat > min.lat,
            "Grid: degenerate box"
        );
        assert!(cols > 0 && rows > 0, "Grid: cols and rows must be positive");
        assert!(
            (cols as u64) * (rows as u64) <= u32::MAX as u64,
            "Grid: region count {cols}×{rows} overflows u32 region ids"
        );
        Self {
            min,
            max,
            cols,
            rows,
        }
    }

    /// The paper's default grid: 16×16 over the NYC extent.
    pub fn nyc_16x16() -> Self {
        Self::new(NYC_EXTENT.0, NYC_EXTENT.1, 16, 16)
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of regions.
    pub fn num_regions(&self) -> usize {
        // The constructor guarantees cols × rows ≤ u32::MAX, but widen
        // before multiplying so the arithmetic itself cannot overflow.
        // lint:allow(D005): u32 → usize widens on every supported target
        self.cols as usize * self.rows as usize
    }

    /// Bounding box minimum corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Bounding box maximum corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Maps a point to its region, clamping points outside the box into the
    /// nearest edge cell (trips slightly out of extent still belong to a
    /// border region, as in the paper's preprocessing).
    pub fn region_of(&self, p: Point) -> RegionId {
        let (col, row) = self.coords_of(p);
        RegionId(row * self.cols + col)
    }

    /// `(col, row)` of the cell [`Grid::region_of`] assigns `p` to, with
    /// the same clamping. Every step (subtract, divide, scale, truncate,
    /// clamp) is monotone non-decreasing in each coordinate, so a point
    /// inside a lon/lat box always lands between the cells of the box's
    /// corners; range queries rely on this to scan exactly the cells a
    /// box can touch. NaN maps to the first column/row.
    pub(crate) fn coords_of(&self, p: Point) -> (u32, u32) {
        let fx = (p.lon - self.min.lon) / (self.max.lon - self.min.lon);
        let fy = (p.lat - self.min.lat) / (self.max.lat - self.min.lat);
        let col = ((fx * self.cols as f64) as i64).clamp(0, self.cols as i64 - 1);
        let row = ((fy * self.rows as f64) as i64).clamp(0, self.rows as i64 - 1);
        let col = u32::try_from(col).expect("clamped into grid bounds");
        let row = u32::try_from(row).expect("clamped into grid bounds");
        (col, row)
    }

    /// `(col, row)` coordinates of a region.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn coords(&self, id: RegionId) -> (u32, u32) {
        assert!(id.idx() < self.num_regions(), "Grid: region out of range");
        (id.0 % self.cols, id.0 / self.cols)
    }

    /// Region id at `(col, row)`; `None` when outside the grid.
    pub fn at(&self, col: i64, row: i64) -> Option<RegionId> {
        if col < 0 || row < 0 || col >= self.cols as i64 || row >= self.rows as i64 {
            None
        } else {
            let col = u32::try_from(col).expect("bounds-checked above");
            let row = u32::try_from(row).expect("bounds-checked above");
            Some(RegionId(row * self.cols + col))
        }
    }

    /// Geographic center of a region.
    pub fn center(&self, id: RegionId) -> Point {
        let (c, r) = self.coords(id);
        let w = (self.max.lon - self.min.lon) / self.cols as f64;
        let h = (self.max.lat - self.min.lat) / self.rows as f64;
        Point::new(
            self.min.lon + (c as f64 + 0.5) * w,
            self.min.lat + (r as f64 + 0.5) * h,
        )
    }

    /// Geographic bounding box `[min, max)` of a region.
    pub fn cell_box(&self, id: RegionId) -> (Point, Point) {
        let (c, r) = self.coords(id);
        let w = (self.max.lon - self.min.lon) / self.cols as f64;
        let h = (self.max.lat - self.min.lat) / self.rows as f64;
        (
            Point::new(self.min.lon + c as f64 * w, self.min.lat + r as f64 * h),
            Point::new(
                self.min.lon + (c as f64 + 1.0) * w,
                self.min.lat + (r as f64 + 1.0) * h,
            ),
        )
    }

    /// All region ids, in row-major order.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        let n = u32::try_from(self.num_regions()).expect("constructor bounds regions to u32");
        (0..n).map(RegionId)
    }

    /// Regions at exactly Chebyshev distance `ring` from `id`
    /// (`ring == 0` yields `id` itself).
    pub fn ring(&self, id: RegionId, ring: u32) -> Vec<RegionId> {
        let (c, r) = self.coords(id);
        let (c, r) = (c as i64, r as i64);
        let d = ring as i64;
        if d == 0 {
            return vec![id];
        }
        let mut out = Vec::new();
        for col in (c - d)..=(c + d) {
            for &row in &[r - d, r + d] {
                if let Some(x) = self.at(col, row) {
                    out.push(x);
                }
            }
        }
        for row in (r - d + 1)..=(r + d - 1) {
            for &col in &[c - d, c + d] {
                if let Some(x) = self.at(col, row) {
                    out.push(x);
                }
            }
        }
        out
    }

    /// The 8-neighbourhood (plus fewer at borders) of a region.
    pub fn neighbors(&self, id: RegionId) -> Vec<RegionId> {
        self.ring(id, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nyc() -> Grid {
        Grid::nyc_16x16()
    }

    #[test]
    fn paper_grid_has_256_regions() {
        assert_eq!(nyc().num_regions(), 256);
    }

    #[test]
    fn region_center_round_trips() {
        let g = nyc();
        for id in g.regions() {
            assert_eq!(g.region_of(g.center(id)), id);
        }
    }

    #[test]
    fn out_of_extent_points_clamp_to_border() {
        let g = nyc();
        assert_eq!(g.region_of(Point::new(-75.0, 40.0)), RegionId(0));
        let far = g.region_of(Point::new(-70.0, 41.5));
        assert_eq!(far, RegionId(255));
    }

    #[test]
    fn coords_and_at_are_inverses() {
        let g = Grid::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 5, 7);
        for id in g.regions() {
            let (c, r) = g.coords(id);
            assert_eq!(g.at(c as i64, r as i64), Some(id));
        }
        assert_eq!(g.at(-1, 0), None);
        assert_eq!(g.at(5, 0), None);
        assert_eq!(g.at(0, 7), None);
    }

    #[test]
    fn ring_sizes_match_chebyshev_geometry() {
        let g = nyc();
        let center = g.at(8, 8).unwrap();
        assert_eq!(g.ring(center, 0), vec![center]);
        assert_eq!(g.ring(center, 1).len(), 8);
        assert_eq!(g.ring(center, 2).len(), 16);
        // A corner cell sees a truncated ring.
        let corner = g.at(0, 0).unwrap();
        assert_eq!(g.ring(corner, 1).len(), 3);
    }

    #[test]
    fn rings_partition_the_grid() {
        let g = Grid::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 9, 9);
        let center = g.at(4, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        // The largest Chebyshev distance between two cells of a 9×9 grid.
        for ring in 0..=8 {
            for id in g.ring(center, ring) {
                assert!(seen.insert(id), "{id} appeared in two rings");
            }
        }
        assert_eq!(seen.len(), g.num_regions());
    }

    #[test]
    #[should_panic(expected = "overflows u32 region ids")]
    fn constructor_rejects_region_count_overflow() {
        Grid::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 1 << 17, 1 << 16);
    }

    #[test]
    fn largest_admissible_grid_constructs() {
        // 65535 × 65535 = 4 294 836 225 ≤ u32::MAX: the constructor bound
        // is exactly the id-arithmetic bound, not something tighter.
        let g = Grid::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 65_535, 65_535);
        assert_eq!(g.num_regions(), 65_535usize * 65_535);
        let last = RegionId((g.num_regions() - 1) as u32);
        assert_eq!(g.coords(last), (65_534, 65_534));
    }

    #[test]
    fn center_round_trips_on_a_200x200_grid() {
        // City-scale audit: every region's center maps back to it and
        // coords/at stay inverses — 40 000 regions, u32 id arithmetic.
        let g = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, 200, 200);
        for id in g.regions() {
            assert_eq!(g.region_of(g.center(id)), id);
            let (c, r) = g.coords(id);
            assert_eq!(g.at(c as i64, r as i64), Some(id));
        }
    }

    #[test]
    fn region_of_is_total_for_degenerate_points_on_a_city_scale_grid() {
        // NaN casts to 0 and clamps to the first cell; infinities and
        // extreme magnitudes saturate and clamp to a border cell. None
        // may panic or produce an out-of-range id.
        let g = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, 200, 200);
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
        ];
        for &lon in &specials {
            for &lat in &specials {
                let id = g.region_of(Point::new(lon, lat));
                assert!(id.idx() < g.num_regions(), "({lon}, {lat}) → {id}");
            }
        }
        // NaN-adjacent boundary nudges: one ulp either side of interior
        // cell boundaries must land in one of the two adjacent cells.
        let (lo, _) = g.cell_box(g.at(100, 100).unwrap());
        for (lon, lat) in [
            (f64::from_bits(lo.lon.to_bits() - 1), lo.lat),
            (f64::from_bits(lo.lon.to_bits() + 1), lo.lat),
            (lo.lon, f64::from_bits(lo.lat.to_bits() - 1)),
            (lo.lon, f64::from_bits(lo.lat.to_bits() + 1)),
        ] {
            let id = g.region_of(Point::new(lon, lat));
            let (c, r) = g.coords(id);
            assert!((99..=100).contains(&c), "col {c}");
            assert!((99..=100).contains(&r), "row {r}");
        }
    }

    proptest! {
        #[test]
        fn region_of_is_total(lon in -80.0f64..-70.0, lat in 38.0f64..43.0) {
            let g = nyc();
            let id = g.region_of(Point::new(lon, lat));
            prop_assert!(id.idx() < g.num_regions());
        }

        /// City-scale grids: centers round-trip through `region_of`, and
        /// `coords`/`at` stay inverses, for arbitrary grid shapes beyond
        /// the paper's 16×16 (up to 256×256 here; the dedicated 200×200
        /// test covers the full sweep deterministically).
        #[test]
        fn city_scale_center_round_trips(
            cols in 64u32..=256,
            rows in 64u32..=256,
            raw in 0u32..1_000_000,
        ) {
            let g = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, cols, rows);
            let id = RegionId(raw % g.num_regions() as u32);
            prop_assert_eq!(g.region_of(g.center(id)), id);
            let (c, r) = g.coords(id);
            prop_assert_eq!(g.at(c as i64, r as i64), Some(id));
        }

        /// Out-of-box points clamp to a border cell on city-scale grids.
        #[test]
        fn city_scale_out_of_box_clamps_to_border(
            cols in 64u32..=256,
            rows in 64u32..=256,
            lon in -180.0f64..180.0,
            lat in -89.0f64..89.0,
        ) {
            let g = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, cols, rows);
            let id = g.region_of(Point::new(lon, lat));
            prop_assert!(id.idx() < g.num_regions());
            let (c, r) = g.coords(id);
            if lon < g.min().lon {
                prop_assert_eq!(c, 0);
            }
            if lon > g.max().lon {
                prop_assert_eq!(c, cols - 1);
            }
            if lat < g.min().lat {
                prop_assert_eq!(r, 0);
            }
            if lat > g.max().lat {
                prop_assert_eq!(r, rows - 1);
            }
        }

        #[test]
        fn points_in_cell_box_map_back(id in 0u32..256) {
            let g = nyc();
            let rid = RegionId(id);
            let (lo, hi) = g.cell_box(rid);
            // Strictly inside the box.
            let p = Point::new(0.5 * (lo.lon + hi.lon), 0.5 * (lo.lat + hi.lat));
            prop_assert_eq!(g.region_of(p), rid);
        }
    }
}
