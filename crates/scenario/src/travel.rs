//! Travel-speed perturbation: a [`TravelModel`] decorator.

use mrvd_spatial::{Millis, Point, TravelModel};

/// Wraps any travel model and scales its effective speed by a constant
/// factor — rain, snow or congestion slowing the whole network down
/// (`factor < 1`), or free-flowing night traffic speeding it up
/// (`factor > 1`). Travel times scale by `1 / factor`.
#[derive(Debug, Clone, Copy)]
pub struct SlowdownModel<M> {
    inner: M,
    speed_factor: f64,
}

impl<M: TravelModel> SlowdownModel<M> {
    /// Decorates `inner` with a speed multiplier.
    ///
    /// # Panics
    /// Panics unless `speed_factor` is positive and finite.
    pub fn new(inner: M, speed_factor: f64) -> Self {
        assert!(
            speed_factor > 0.0 && speed_factor.is_finite(),
            "SlowdownModel: speed factor must be positive, got {speed_factor}"
        );
        Self {
            inner,
            speed_factor,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The speed multiplier.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// The inner model's time `t`, rescaled by the speed factor.
    fn slowed(&self, t: Millis) -> Millis {
        (t as f64 / self.speed_factor).round() as Millis
    }
}

impl<M: TravelModel> TravelModel for SlowdownModel<M> {
    fn travel_time_ms(&self, from: Point, to: Point) -> Millis {
        self.slowed(self.inner.travel_time_ms(from, to))
    }

    fn travel_time_ms_at(&self, distance_m: f64) -> Option<Millis> {
        self.inner
            .travel_time_ms_at(distance_m)
            .map(|t| self.slowed(t))
    }

    fn speed_bound_mps(&self) -> Option<f64> {
        self.inner.speed_bound_mps().map(|s| s * self.speed_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_spatial::{ConstantSpeedModel, NYC_EXTENT};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn halved_speed_doubles_travel_time() {
        let base = ConstantSpeedModel::new(10.0);
        let rain = SlowdownModel::new(base, 0.5);
        let a = Point::new(-74.0, 40.7);
        let b = Point::new(-73.9, 40.75);
        let t0 = base.travel_time_ms(a, b) as f64;
        let t1 = rain.travel_time_ms(a, b) as f64;
        assert!((t1 / t0 - 2.0).abs() < 0.01, "t1 {t1} vs t0 {t0}");
    }

    #[test]
    fn unit_factor_is_identity() {
        let base = ConstantSpeedModel::new(8.0);
        let same = SlowdownModel::new(base, 1.0);
        let a = Point::new(-74.0, 40.7);
        let b = Point::new(-73.93, 40.82);
        assert_eq!(base.travel_time_ms(a, b), same.travel_time_ms(a, b));
    }

    #[test]
    fn speed_bound_scales_with_the_factor() {
        let m = SlowdownModel::new(ConstantSpeedModel::new(10.0), 0.5);
        assert_eq!(m.speed_bound_mps(), Some(5.0));
    }

    /// The next float above a non-negative, finite `x` (`f64::next_up`
    /// needs a newer Rust than the workspace's minimum).
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    proptest! {
        /// A slowed constant speed keeps the pricing contract candidate
        /// search relies on: the time never decreases with the distance.
        /// Random pairs, equal distances, and float neighbours, also
        /// across a millisecond's rounding boundary of the inner model.
        #[test]
        fn slowed_distance_priced_time_is_non_decreasing(
            seed in 0u64..1_000_000,
            factor in 0.05f64..3.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inner = ConstantSpeedModel::default();
            let model = SlowdownModel::new(inner, factor);
            for k in 0..60 {
                let a = match k % 3 {
                    0 => rng.gen_range(0.0..2_000.0),
                    1 => inner.speed_mps() * (f64::from(rng.gen_range(0u32..1_000_000)) + 0.5) / 1000.0,
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

        /// A slowed constant speed prices a distance exactly as it prices
        /// the two points, measured either way round — so `rain-slowdown`
        /// candidate search may price hits by the distance its radius
        /// query measured. Points inside the NYC extent and up to one
        /// extent width or height outside it.
        #[test]
        fn slowed_distance_priced_time_matches_point_to_point(
            seed in 0u64..1_000_000,
            factor in 0.05f64..3.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = SlowdownModel::new(ConstantSpeedModel::default(), factor);
            let (min, max) = NYC_EXTENT;
            let (w, h) = (max.lon - min.lon, max.lat - min.lat);
            for _ in 0..50 {
                let [a, b] = [(); 2].map(|()| {
                    Point::new(
                        rng.gen_range(min.lon - w..max.lon + w),
                        rng.gen_range(min.lat - h..max.lat + h),
                    )
                });
                let t = model.travel_time_ms(a, b);
                prop_assert_eq!(model.travel_time_ms_at(a.distance_m(&b)), Some(t));
                prop_assert_eq!(model.travel_time_ms_at(b.distance_m(&a)), Some(t));
            }
        }
    }

    #[test]
    #[should_panic(expected = "speed factor must be positive")]
    fn zero_factor_panics() {
        SlowdownModel::new(ConstantSpeedModel::new(10.0), 0.0);
    }
}
