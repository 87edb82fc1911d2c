//! Geographic points and great-circle distances.

/// A geographic location in degrees (WGS-84 lon/lat, like the NYC TLC data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Longitude in degrees, increasing eastward.
    pub lon: f64,
    /// Latitude in degrees, increasing northward.
    pub lat: f64,
}

impl Point {
    /// Creates a point from longitude and latitude in degrees.
    pub const fn new(lon: f64, lat: f64) -> Self {
        Self { lon, lat }
    }

    /// Great-circle distance to `other` in meters.
    pub fn distance_m(&self, other: &Point) -> f64 {
        haversine_m(*self, *other)
    }
}

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Haversine great-circle distance between two points, in meters.
///
/// Accurate to ~0.5% (the sphericity error), which is far below the noise
/// of urban travel times; the paper's grid spans ~30 km so planar error
/// would also be acceptable, but haversine keeps the crate generally
/// usable.
///
/// The formula is `h = hav(Δφ) + cos φa · cos φb · hav(Δλ)`, then the arc
/// `2R · asin(min(√h, 1))`; `hav` and the arc are crate-private helpers
/// that [`crate::Grid::center_distances_from`] shares. Between grid
/// centres, `hav(Δφ)` and `cos φa · cos φb` depend only on the two rows
/// and `hav(Δλ)` only on the two columns, so that method computes them
/// once per row or column and still reproduces this function bit for
/// bit: it runs the same IEEE operations on the same operands in the
/// same order, and Rust never fuses `a + p·b` into an FMA.
pub fn haversine_m(a: Point, b: Point) -> f64 {
    let h = half_angle_term(b.lat - a.lat)
        + a.lat.to_radians().cos() * b.lat.to_radians().cos() * half_angle_term(b.lon - a.lon);
    arc_m(h)
}

/// `sin²((Δ · π/180) / 2)` of an angle difference `Δ` in degrees: the
/// haversine of `Δ`.
pub(crate) fn half_angle_term(delta_deg: f64) -> f64 {
    (delta_deg.to_radians() / 2.0).sin().powi(2)
}

/// The great-circle arc, in meters, of the haversine term `h`:
/// `2R · asin(min(√h, 1))`. The `min` absorbs rounding that pushes `h`
/// past 1 for near-antipodal points.
pub(crate) fn arc_m(h: f64) -> f64 {
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

/// Corners `(lo, hi)` of a lon/lat box around `p` that holds every point
/// `q` with `p.distance_m(&q) <= radius_m`; an axis without a bound gets
/// infinite corners. `radius_m` must be `>= 0`.
///
/// Both half-widths come from the haversine term `h` of [`haversine_m`],
/// for latitudes in [−90°, 90°]:
/// - `√h ≥ |sin(Δφ/2)|`, so the distance is at least `R·|Δφ|` and
///   `|Δφ| ≤ r/R`;
/// - `√h ≥ cos φmax·|sin(Δλ/2)|` where `φmax = |p.lat| + Δlat` bounds both
///   latitudes, so `|Δλ| ≤ 2·asin(sin(r/2R) / cos φmax)`.
///
/// Each bound is widened by a relative and an absolute slack that dwarf
/// the float rounding of `haversine_m` (and its underflow to 0 for
/// near-coincident points). Past the poles (`φmax ≥ 90°`) or once the
/// `asin` argument reaches 1 the longitude is unbounded; once `Δlat`
/// spans 180° both are. Longitude differences are taken as they are, not
/// wrapped: a point 360° away is outside the box.
pub(crate) fn radius_box(p: Point, radius_m: f64) -> (Point, Point) {
    const SLACK_REL: f64 = 1e-9;
    const SLACK_ABS: f64 = 1e-9;
    let widen = |x: f64| x * (1.0 + SLACK_REL) + SLACK_ABS;
    let span = |center: f64, half: Option<f64>| match half {
        Some(h) => (center - h, center + h),
        None => (f64::NEG_INFINITY, f64::INFINITY),
    };
    let dlat = Some(widen((radius_m / EARTH_RADIUS_M).to_degrees())).filter(|&d| d < 180.0);
    let dlon = dlat.and_then(|dlat| {
        let phi_max = p.lat.abs() + dlat;
        let arg = widen((radius_m / (2.0 * EARTH_RADIUS_M)).sin() / phi_max.to_radians().cos());
        // NaN fails both tests, so it leaves the axis unbounded too.
        (phi_max < 90.0 && arg < 1.0).then(|| widen((2.0 * arg.asin()).to_degrees()))
    });
    let (lon_lo, lon_hi) = span(p.lon, dlon);
    let (lat_lo, lat_hi) = span(p.lat, dlat);
    (Point::new(lon_lo, lat_lo), Point::new(lon_hi, lat_hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = Point::new(-73.98, 40.75);
        assert_eq!(haversine_m(p, p), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = Point::new(-73.98, 40.75);
        let b = Point::new(-73.90, 40.70);
        assert!((haversine_m(a, b) - haversine_m(b, a)).abs() < 1e-9);
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.0, 1.0);
        let d = haversine_m(a, b);
        assert!((d - 111_195.0).abs() < 200.0, "got {d}");
    }

    #[test]
    fn longitude_shrinks_with_latitude() {
        // One degree of longitude at 40.7°N is ~cos(40.7°)·111 km ≈ 84 km.
        let a = Point::new(-74.0, 40.7);
        let b = Point::new(-73.0, 40.7);
        let d = haversine_m(a, b);
        assert!((d - 84_300.0).abs() < 500.0, "got {d}");
    }

    #[test]
    fn nyc_box_diagonal_is_plausible() {
        // The paper's box: (−74.03..−73.77, 40.58..40.92): diagonal ≈ 43 km.
        let a = Point::new(-74.03, 40.58);
        let b = Point::new(-73.77, 40.92);
        let d = haversine_m(a, b);
        assert!((30_000.0..60_000.0).contains(&d), "got {d}");
    }

    #[test]
    fn radius_box_bounds_each_axis_and_opens_past_the_poles() {
        // 1 km at 40.75° N: ~0.009° of latitude, ~0.0119° of longitude.
        let p = Point::new(-73.98, 40.75);
        let (lo, hi) = radius_box(p, 1_000.0);
        assert!((hi.lat - p.lat - 0.008_993).abs() < 1e-5, "{hi:?}");
        assert!((hi.lon - p.lon - 0.011_877).abs() < 1e-4, "{hi:?}");
        assert!((p.lat - lo.lat - (hi.lat - p.lat)).abs() < 1e-12);
        // Each side of the box is just outside the radius.
        for q in [Point::new(lo.lon, p.lat), Point::new(hi.lon, p.lat)] {
            assert!(p.distance_m(&q) > 1_000.0);
        }
        for q in [Point::new(p.lon, lo.lat), Point::new(p.lon, hi.lat)] {
            assert!(p.distance_m(&q) > 1_000.0);
        }
        // A box reaching a pole bounds latitude only; a radius spanning
        // every latitude bounds nothing.
        let (lo, hi) = radius_box(Point::new(0.0, 89.99), 2_000.0);
        assert_eq!((lo.lon, hi.lon), (f64::NEG_INFINITY, f64::INFINITY));
        assert!(lo.lat.is_finite() && hi.lat.is_finite());
        let (lo, hi) = radius_box(p, 2.1e7);
        assert_eq!((lo.lon, hi.lon), (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!((lo.lat, hi.lat), (f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn triangle_inequality_on_sample_points() {
        let pts = [
            Point::new(-74.0, 40.6),
            Point::new(-73.9, 40.8),
            Point::new(-73.8, 40.7),
        ];
        let ab = haversine_m(pts[0], pts[1]);
        let bc = haversine_m(pts[1], pts[2]);
        let ac = haversine_m(pts[0], pts[2]);
        assert!(ac <= ab + bc + 1e-6);
    }
}
