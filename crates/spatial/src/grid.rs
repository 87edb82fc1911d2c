//! Rectangular region partition ("regions/grids" in the paper's §2).
//!
//! The paper divides the NYC extent (−74.03°..−73.77° lon,
//! 40.58°..40.92° lat) evenly into 16×16 grids; each grid cell is one
//! region `a_k` with its own double-sided queue.

use crate::geo::{arc_m, half_angle_term, Point};

/// Identifier of a region (a cell of the [`Grid`]).
///
/// Regions are numbered row-major: `id = row * cols + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The raw index as a `usize`, for indexing per-region tables.
    #[inline]
    pub fn idx(self) -> usize {
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
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float → i64 `as` saturates (NaN gives 0), and the clamp just after bounds it to the grid"
    )]
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
        Point::new(self.center_lon(c), self.center_lat(r))
    }

    /// Longitude of the centres of column `c`.
    fn center_lon(&self, c: u32) -> f64 {
        let w = (self.max.lon - self.min.lon) / self.cols as f64;
        self.min.lon + (c as f64 + 0.5) * w
    }

    /// Latitude of the centres of row `r`.
    fn center_lat(&self, r: u32) -> f64 {
        let h = (self.max.lat - self.min.lat) / self.rows as f64;
        self.min.lat + (r as f64 + 0.5) * h
    }

    /// Tables `f(center(o).distance_m(&center(j)))` for every pair of
    /// regions `(o, j)`, where `f` sees each distance bit for bit.
    ///
    /// The haversine of two centres, `hav(Δφ) + cos φo · cos φj ·
    /// hav(Δλ)`, takes its latitudes from the two rows and `Δλ` from the
    /// two columns. So the table computes `hav(Δλ)` once per column pair
    /// and keeps its `D` distinct values, the longitude classes; `D` is
    /// 16, 121 and 368 on the 16×16, 64×64 and 200×200 NYC grids. It
    /// then computes `hav(Δφ)` and `cos φa · cos φb` once per row pair
    /// `a ≤ b`, and `f(arc)` once per row pair and class. One stored
    /// pair serves both row orders: swapping the rows negates `Δφ`
    /// exactly, `sin` is odd so `hav` is even, and the cosine product
    /// commutes. Every value comes from the same IEEE operations on the
    /// same operands, in the same order, as [`crate::haversine_m`].
    ///
    /// The table holds `cols²` `u32` classes and `rows·(rows+1)/2 · D`
    /// values: 17 KB on the 16×16 grid, 2.0 MB on 64×64 and 59 MB on
    /// 200×200.
    ///
    /// # Panics
    /// Panics if the value count overflows `usize`.
    pub fn center_table(&self, mut f: impl FnMut(f64) -> f64) -> CenterTable {
        let cols = usize::try_from(self.cols).expect("u32 fits usize");
        let rows = usize::try_from(self.rows).expect("u32 fits usize");
        let lon_bits: Vec<u64> = (0..self.cols)
            .flat_map(|co| {
                let lon_o = self.center_lon(co);
                (0..self.cols).map(move |c| half_angle_term(self.center_lon(c) - lon_o).to_bits())
            })
            .collect();
        let mut lon_terms = lon_bits.clone();
        lon_terms.sort_unstable();
        lon_terms.dedup();
        let class_of = lon_bits
            .iter()
            .map(|bits| {
                let k = lon_terms
                    .binary_search(bits)
                    .expect("every term has a class");
                u32::try_from(k).expect("fewer than 2³² longitude classes")
            })
            .collect();
        let classes = lon_terms.len();
        let len = rows
            .checked_mul(rows + 1)
            .and_then(|twice_pairs| (twice_pairs / 2).checked_mul(classes))
            .expect("CenterTable: value count overflows usize");
        let cos_lat: Vec<f64> = (0..self.rows)
            .map(|r| self.center_lat(r).to_radians().cos())
            .collect();
        // Pair `(a, b)`, `a ≤ b`, starts at `(b·(b+1)/2 + a) · D`: the
        // loops below visit the pairs in exactly that order.
        let mut values = Vec::with_capacity(len);
        for (b, &cos_b) in (0..self.rows).zip(&cos_lat) {
            for (a, &cos_a) in (0..=b).zip(&cos_lat) {
                let lat_term = half_angle_term(self.center_lat(b) - self.center_lat(a));
                let cos_product = cos_a * cos_b;
                values.extend(
                    lon_terms.iter().map(|&lon_term| {
                        f(arc_m(lat_term + cos_product * f64::from_bits(lon_term)))
                    }),
                );
            }
        }
        debug_assert_eq!(values.len(), len);
        CenterTable {
            cols,
            rows,
            classes,
            class_of,
            values,
        }
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

/// A function of the distance between every two region centres of a
/// [`Grid`], built by [`Grid::center_table`] and read one origin's row
/// at a time.
#[derive(Debug)]
pub struct CenterTable {
    cols: usize,
    rows: usize,
    /// `D`, the number of distinct longitude terms.
    classes: usize,
    /// `class_of[c_o · cols + c]`: the longitude class from column `c_o`
    /// to column `c`.
    class_of: Vec<u32>,
    /// `D` values per row pair `a ≤ b`, the pair at `b·(b+1)/2 + a`.
    values: Vec<f64>,
}

impl CenterTable {
    /// Fills `out[j]` with the tabled `f(center(origin).distance_m(&center(j)))`
    /// for every region `j`, in row-major order.
    ///
    /// # Panics
    /// Panics if `origin` is out of range.
    pub fn row_into(&self, origin: RegionId, out: &mut Vec<f64>) {
        let (row_o, class_row) = self.origin(origin);
        out.clear();
        out.reserve(self.rows * self.cols);
        for r in 0..self.rows {
            let values = self.pair(row_o, r);
            out.extend(class_row.iter().map(|&k| values[class_idx(k)]));
        }
    }

    /// Fills `out[j]` with `weights[j] · v_j`, where `v_j` is the tabled
    /// value of `(origin, j)`, and returns their sum, folded in index
    /// order from `-0.0` as `Iterator::sum` folds it. So the result is
    /// bit for bit that of mapping the row of values, then summing it.
    ///
    /// # Panics
    /// Panics if `origin` is out of range or `weights` does not hold one
    /// weight per region.
    pub fn weighted_row_into(&self, origin: RegionId, weights: &[f64], out: &mut Vec<f64>) -> f64 {
        let (row_o, class_row) = self.origin(origin);
        assert_eq!(
            weights.len(),
            self.rows * self.cols,
            "CenterTable: one weight per region"
        );
        out.clear();
        out.resize(weights.len(), 0.0);
        let mut total = -0.0;
        let rows = out
            .chunks_exact_mut(self.cols)
            .zip(weights.chunks_exact(self.cols));
        for (r, (out_row, weight_row)) in rows.enumerate() {
            let values = self.pair(row_o, r);
            for ((x, &k), &w) in out_row.iter_mut().zip(class_row).zip(weight_row) {
                *x = w * values[class_idx(k)];
                total += *x;
            }
        }
        total
    }

    /// The row of `origin` and the longitude classes from its column.
    fn origin(&self, origin: RegionId) -> (usize, &[u32]) {
        let o = origin.idx();
        assert!(
            o < self.rows * self.cols,
            "CenterTable: region out of range"
        );
        let col = o % self.cols;
        (
            o / self.cols,
            &self.class_of[col * self.cols..(col + 1) * self.cols],
        )
    }

    /// The `D` values of rows `r1` and `r2`, in either order.
    fn pair(&self, r1: usize, r2: usize) -> &[f64] {
        let (a, b) = (r1.min(r2), r1.max(r2));
        let start = (b * (b + 1) / 2 + a) * self.classes;
        &self.values[start..start + self.classes]
    }
}

/// A longitude class as an index.
#[inline]
fn class_idx(k: u32) -> usize {
    usize::try_from(k).expect("u32 fits usize")
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
        let mut seen = std::collections::BTreeSet::new();
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

    #[test]
    fn center_table_keeps_few_longitude_classes_on_the_nyc_grids() {
        for (side, classes) in [(16, 16), (64, 121), (200, 368)] {
            let g = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, side, side);
            assert_eq!(g.center_table(|d| d).classes, classes, "{side}x{side}");
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

        /// The tabled centre distances are `distance_m`, bit for bit, on
        /// non-square grids from 1 to 64 cells a side over extents from
        /// ~1e-4 of the range to all of it. Each case reads a random
        /// origin and one in the last row, whose destinations all sit
        /// in lower rows, so both row orders of the shared pairs are
        /// read.
        #[test]
        fn center_distances_match_distance_m_bit_for_bit(
            cols in 1u32..=64,
            rows in 1u32..=64,
            lon_lo in -179.0f64..178.0,
            lon_log_frac in -4.0f64..0.0,
            lat_lo in -80.0f64..79.0,
            lat_log_frac in -4.0f64..0.0,
            raw in 0u32..u32::MAX,
            last_col in 0u32..64,
        ) {
            let lon_hi = lon_lo + 10f64.powf(lon_log_frac) * (179.0 - lon_lo);
            let lat_hi = lat_lo + 10f64.powf(lat_log_frac) * (80.0 - lat_lo);
            let g = Grid::new(Point::new(lon_lo, lat_lo), Point::new(lon_hi, lat_hi), cols, rows);
            let table = g.center_table(|d| d);
            prop_assert!(table.classes <= 8 * cols as usize, "{} classes", table.classes);
            let mut out = Vec::new();
            for origin in [raw % (cols * rows), (rows - 1) * cols + last_col % cols].map(RegionId) {
                table.row_into(origin, &mut out);
                prop_assert_eq!(out.len(), g.num_regions());
                let oc = g.center(origin);
                for (j, &d) in g.regions().zip(&out) {
                    let want = oc.distance_m(&g.center(j));
                    prop_assert_eq!(d.to_bits(), want.to_bits(), "{g:?} {origin}→{j}: {d} != {want}");
                }
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
