//! Travel-cost models.
//!
//! The paper treats travel cost as travel time ("when we know the travel
//! speed of vehicles, we can convert one to another", §2) and evaluates on
//! grid distances. [`TravelModel`] abstracts the cost oracle so the
//! dispatcher works identically over the constant-speed haversine model
//! (the evaluation setting) and a road network (the §2 formalism).

use crate::geo::Point;
use crate::road::RoadNetwork;

/// Milliseconds of simulated time; the whole stack uses integer
/// milliseconds to keep event ordering exact.
pub type Millis = u64;

/// A travel-cost oracle: time to drive between two points.
///
/// A model whose time depends on the straight-line distance alone
/// (constant speed, and decorators that rescale it) also prices a
/// distance directly through [`TravelModel::travel_time_ms_at`]. Candidate
/// search uses that twice: it prices the exact distance it measured from
/// the pickup, without a second haversine from the driver, and it prices
/// a lower bound of a driver's distance, to skip the exact distance of a
/// driver that cannot make the rider's candidate budget.
pub trait TravelModel: Send + Sync {
    /// Travel time from `from` to `to` in milliseconds.
    fn travel_time_ms(&self, from: Point, to: Point) -> Millis;

    /// Travel time in milliseconds over a straight-line distance of
    /// `distance_m` meters, for a model whose time depends on the
    /// distance alone. Then `travel_time_ms(a, b)` equals
    /// `travel_time_ms_at(haversine_m(a, b))` bit for bit, for all points
    /// `a` and `b` (see [`haversine_m`](crate::haversine_m)). `None` (the
    /// default) means the model needs the endpoints (a road network), and
    /// callers use [`TravelModel::travel_time_ms`].
    ///
    /// A model that returns `Some` must be non-decreasing in the
    /// distance: `d₁ <= d₂` implies `travel_time_ms_at(d₁) <=
    /// travel_time_ms_at(d₂)`. Candidate search relies on it: it prices a
    /// lower bound of a driver's distance, and skips the exact distance
    /// of a driver whose bound already prices it past the rider's
    /// candidate budget.
    fn travel_time_ms_at(&self, _distance_m: f64) -> Option<Millis> {
        None
    }

    /// Travel time in fractional seconds (the paper's revenue unit at α=1).
    fn travel_time_s(&self, from: Point, to: Point) -> f64 {
        self.travel_time_ms(from, to) as f64 / 1000.0
    }

    /// An upper bound on achievable speed (m/s straight-line): if
    /// `haversine(a, b) > bound · t` then `travel_time(a, b) > t`.
    /// Lets spatial indexes convert a time budget into a search radius.
    /// `None` (the default) means no bound is known and callers must scan.
    fn speed_bound_mps(&self) -> Option<f64> {
        None
    }
}

/// Constant-speed straight-line travel: `time = haversine / speed`.
///
/// This is the evaluation model of the paper (grid space, uniform speed).
/// The default speed of 5 m/s (18 km/h) matches average Manhattan taxi
/// speeds and calibrates the NYC-like workload to the paper's regime:
/// mean ride ≈ 13–14 minutes and a 3K-driver fleet near saturation
/// (its revenue of ~2.35×10⁸ s over 3K drivers is ~90% busy time).
#[derive(Debug, Clone, Copy)]
pub struct ConstantSpeedModel {
    speed_mps: f64,
}

impl ConstantSpeedModel {
    /// Creates a model with the given speed in meters/second.
    ///
    /// # Panics
    /// Panics unless `speed_mps` is positive and finite.
    pub fn new(speed_mps: f64) -> Self {
        assert!(
            speed_mps > 0.0 && speed_mps.is_finite(),
            "ConstantSpeedModel: speed must be positive, got {speed_mps}"
        );
        Self { speed_mps }
    }

    /// The configured speed in meters/second.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }
}

impl Default for ConstantSpeedModel {
    /// 5 m/s = 18 km/h, the average Manhattan taxi speed.
    fn default() -> Self {
        Self::new(5.0)
    }
}

impl TravelModel for ConstantSpeedModel {
    fn travel_time_ms(&self, from: Point, to: Point) -> Millis {
        self.travel_time_ms_at(from.distance_m(&to))
            .expect("a constant speed prices every distance")
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the time is rounded first, and a float → u64 `as` saturates, so it never wraps"
    )]
    fn travel_time_ms_at(&self, distance_m: f64) -> Option<Millis> {
        let secs = distance_m / self.speed_mps;
        Some((secs * 1000.0).round() as Millis)
    }

    fn speed_bound_mps(&self) -> Option<f64> {
        Some(self.speed_mps)
    }
}

/// Travel over a road network: both endpoints snap to their nearest
/// vertices and the cost is the shortest-path time between them, plus the
/// straight-line time of the two snap legs.
///
/// Edge costs of the underlying network must be in **seconds**.
pub struct RoadNetworkModel {
    network: RoadNetwork,
    snap_speed_mps: f64,
}

impl RoadNetworkModel {
    /// Wraps a road network whose edge costs are seconds of travel;
    /// `snap_speed_mps` prices the off-network legs to the snap vertices.
    ///
    /// # Panics
    /// Panics if the network is empty or the snap speed is not positive.
    pub fn new(network: RoadNetwork, snap_speed_mps: f64) -> Self {
        assert!(
            network.num_vertices() > 0,
            "RoadNetworkModel: network must not be empty"
        );
        assert!(
            snap_speed_mps > 0.0 && snap_speed_mps.is_finite(),
            "RoadNetworkModel: snap speed must be positive"
        );
        Self {
            network,
            snap_speed_mps,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }
}

impl TravelModel for RoadNetworkModel {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the time is rounded first, and a float → u64 `as` saturates, so it never wraps"
    )]
    fn travel_time_ms(&self, from: Point, to: Point) -> Millis {
        let u = self
            .network
            .nearest_vertex(from)
            .expect("network is non-empty");
        let v = self
            .network
            .nearest_vertex(to)
            .expect("network is non-empty");
        let snap_s = (from.distance_m(&self.network.position(u))
            + to.distance_m(&self.network.position(v)))
            / self.snap_speed_mps;
        let path_s = self.network.shortest_path_cost(u, v);
        let total_s = if path_s.is_finite() {
            path_s + snap_s
        } else {
            // Disconnected networks fall back to straight-line travel so the
            // simulation never deadlocks on an unreachable rider.
            from.distance_m(&to) / self.snap_speed_mps
        };
        (total_s * 1000.0).round() as Millis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::haversine_m;
    use crate::grid::NYC_EXTENT;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn constant_speed_scales_with_distance() {
        let m = ConstantSpeedModel::new(10.0);
        let a = Point::new(-74.0, 40.7);
        let b = Point::new(-73.9, 40.7);
        let t = m.travel_time_ms(a, b);
        let d = a.distance_m(&b);
        assert_eq!(t, (d / 10.0 * 1000.0).round() as u64);
        // Doubling speed halves the time (up to rounding).
        let fast = ConstantSpeedModel::new(20.0);
        let t2 = fast.travel_time_ms(a, b);
        assert!((t as f64 / t2 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn travel_time_zero_for_same_point() {
        let m = ConstantSpeedModel::default();
        let p = Point::new(-73.9, 40.8);
        assert_eq!(m.travel_time_ms(p, p), 0);
    }

    #[test]
    fn road_model_is_at_least_straight_line() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = RoadNetwork::manhattan_lattice(
            &mut rng,
            Point::new(-74.03, 40.58),
            Point::new(-73.77, 40.92),
            10,
            10,
            8.0,
            0.0,
        );
        let m = RoadNetworkModel::new(net, 8.0);
        let straight = ConstantSpeedModel::new(8.0);
        let a = Point::new(-74.0, 40.6);
        let b = Point::new(-73.8, 40.9);
        // Manhattan routing cannot beat the straight line at equal speed
        // (allow 1% slack for snapping/rounding).
        assert!(m.travel_time_ms(a, b) as f64 >= straight.travel_time_ms(a, b) as f64 * 0.99);
        // A route depends on the endpoints, not on their distance alone.
        assert_eq!(m.travel_time_ms_at(1_000.0), None);
    }

    #[test]
    fn disconnected_network_falls_back_to_straight_line() {
        let mut net = RoadNetwork::new();
        net.add_vertex(Point::new(-74.0, 40.6));
        net.add_vertex(Point::new(-73.8, 40.9));
        // No edges: unreachable.
        let m = RoadNetworkModel::new(net, 8.0);
        let a = Point::new(-74.0, 40.6);
        let b = Point::new(-73.8, 40.9);
        let expect = (a.distance_m(&b) / 8.0 * 1000.0).round() as u64;
        assert_eq!(m.travel_time_ms(a, b), expect);
    }

    /// A point inside the NYC extent, up to one extent width or height
    /// outside it, or anywhere on the globe.
    fn any_point(rng: &mut StdRng) -> Point {
        let (min, max) = NYC_EXTENT;
        let (w, h) = (max.lon - min.lon, max.lat - min.lat);
        match rng.gen_range(0u32..3) {
            0 => Point::new(
                rng.gen_range(min.lon..max.lon),
                rng.gen_range(min.lat..max.lat),
            ),
            1 => Point::new(
                rng.gen_range(min.lon - w..max.lon + w),
                rng.gen_range(min.lat - h..max.lat + h),
            ),
            _ => Point::new(rng.gen_range(-180.0..180.0), rng.gen_range(-90.0..90.0)),
        }
    }

    /// The next float above a non-negative, finite `x` (`f64::next_up`
    /// needs a newer Rust than the workspace's minimum).
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    proptest! {
        /// The pricing contract candidate search relies on: a
        /// distance-priced time never decreases with the distance. Random
        /// pairs from 0 to past the Earth's circumference, equal
        /// distances, and float neighbours, also across a millisecond's
        /// rounding boundary.
        #[test]
        fn distance_priced_time_is_non_decreasing(
            seed in 0u64..1_000_000,
            speed in 0.5f64..40.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = ConstantSpeedModel::new(speed);
            for k in 0..60 {
                let a = match k % 3 {
                    0 => rng.gen_range(0.0..2_000.0),
                    // Half a millisecond past a whole one: where the
                    // rounding steps.
                    1 => speed * (f64::from(rng.gen_range(0u32..1_000_000)) + 0.5) / 1000.0,
                    _ => rng.gen_range(0.0..4e7),
                };
                let b = match k % 4 {
                    0 => a,
                    1 => next_up(a),
                    2 => next_up(next_up(a)),
                    _ => rng.gen_range(0.0..4e7),
                };
                let (near, far) = if a <= b { (a, b) } else { (b, a) };
                let (t_near, t_far) = (model.travel_time_ms_at(near), model.travel_time_ms_at(far));
                prop_assert!(t_near <= t_far, "{} m: {:?}, {} m: {:?}", near, t_near, far, t_far);
            }
        }

        /// What pricing a radius-query hit by its distance rests on. The
        /// query measures the pickup → driver distance and
        /// `travel_time_ms` the driver → pickup one: the two are equal
        /// bit for bit (IEEE negation is exact, `sin` is odd and the
        /// cosine product commutes), and a constant speed prices either
        /// the same as the two points.
        #[test]
        fn distance_priced_travel_time_matches_point_to_point(
            seed in 0u64..1_000_000,
            speed in 0.5f64..40.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = ConstantSpeedModel::new(speed);
            for k in 0..50 {
                let a = any_point(&mut rng);
                // Every tenth pair is one point twice: distance 0.
                let b = if k % 10 == 0 { a } else { any_point(&mut rng) };
                prop_assert_eq!(haversine_m(a, b).to_bits(), haversine_m(b, a).to_bits());
                let t = model.travel_time_ms(a, b);
                prop_assert_eq!(model.travel_time_ms_at(a.distance_m(&b)), Some(t));
                prop_assert_eq!(model.travel_time_ms_at(b.distance_m(&a)), Some(t));
            }
        }
    }
}
