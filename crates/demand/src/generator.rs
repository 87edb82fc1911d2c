//! Trip and count generation from the intensity profile.

use mrvd_spatial::{CenterTable, Grid, Point, RegionId};
use mrvd_stats::sample_poisson;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::profile::NycProfile;
use crate::series::DemandSeries;
use crate::trip::TripRecord;
use crate::{SLOTS_PER_DAY, SLOT_MS};

/// Configuration of the NYC-like workload generator.
#[derive(Debug, Clone)]
pub struct NycLikeConfig {
    /// Target orders on a nominal weekday. The paper's test day has
    /// 282,255 yellow-taxi orders; scale this down for quick runs.
    pub orders_per_day: f64,
    /// Base RNG seed; day `d` derives its own stream from it.
    pub seed: u64,
    /// Distance-decay scale of the destination gravity model, meters.
    /// Larger values produce longer trips.
    pub gravity_scale_m: f64,
    /// Trips shorter than this (straight-line) are resampled; the TLC
    /// data has essentially no sub-300 m rides.
    pub min_trip_m: f64,
}

impl Default for NycLikeConfig {
    fn default() -> Self {
        Self {
            orders_per_day: 282_255.0,
            seed: 0x5EED,
            gravity_scale_m: 3_800.0,
            min_trip_m: 400.0,
        }
    }
}

/// Hook points for shaping the generator's Poisson rates per
/// `(slot, region)` cell — the extension surface scenario specs build on
/// (surge windows multiply rates, hotspot injections add extra origin
/// mass) without touching the calibrated base profile.
///
/// Both hooks default to the identity, and the unshaped path
/// ([`NycLikeGenerator::generate_day_trips`]) is byte-identical to
/// shaping with [`NoShaping`]: a factor of exactly `1.0` leaves the rate
/// bit-identical and a zero extra rate draws nothing from the RNG.
pub trait DemandShaper {
    /// Multiplies the base Poisson rate of `(slot, region)`. Must be
    /// finite and non-negative.
    fn rate_factor(&self, slot: usize, region: RegionId) -> f64 {
        let _ = (slot, region);
        1.0
    }

    /// Extra Poisson rate (expected additional orders) injected into
    /// `(slot, region)` on top of the scaled base rate. Must be finite
    /// and non-negative.
    fn extra_rate(&self, slot: usize, region: RegionId) -> f64 {
        let _ = (slot, region);
        0.0
    }
}

/// The identity shaper: no surge, no injections.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoShaping;

impl DemandShaper for NoShaping {}

/// Generates NYC-like trips and demand counts (a synthetic stand-in for
/// the NYC TLC yellow-taxi trips the paper evaluates on).
///
/// Per region and 30-minute slot, order counts are Poisson with the rate
/// given by [`NycProfile::expected_slot_count`]; within a slot, arrival
/// times are uniform (which makes the arrival process piecewise-constant
/// Poisson); pickup points are uniform within the origin region;
/// destinations follow a gravity model `P(j|i) ∝ dest_w_j · e^{−d_ij/L}`.
pub struct NycLikeGenerator {
    profile: NycProfile,
    config: NycLikeConfig,
    grid: Grid,
}

impl NycLikeGenerator {
    /// Creates a generator over the paper's 16×16 NYC grid.
    pub fn new(config: NycLikeConfig) -> Self {
        let grid = Grid::nyc_16x16();
        Self::with_grid(grid, config)
    }

    /// Creates a generator over a custom grid.
    pub fn with_grid(grid: Grid, config: NycLikeConfig) -> Self {
        assert!(
            config.gravity_scale_m > 0.0,
            "NycLikeGenerator: gravity scale must be positive"
        );
        let profile = NycProfile::new(grid.clone(), config.orders_per_day, config.seed);
        Self {
            profile,
            config,
            grid,
        }
    }

    /// The underlying intensity profile.
    pub fn profile(&self) -> &NycProfile {
        &self.profile
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    fn day_rng(&self, day: usize, salt: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(salt)
                .wrapping_add((day as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        )
    }

    /// Generates the complete, time-sorted order list of one day.
    pub fn generate_day_trips(&self, day: usize) -> Vec<TripRecord> {
        self.generate_day_trips_with(day, &NoShaping)
    }

    /// Generates one day with a [`DemandShaper`] perturbing the Poisson
    /// rates: each `(slot, region)` cell draws
    /// `Poisson(base · rate_factor) + Poisson(extra_rate)` orders.
    ///
    /// # Panics
    /// Panics if the shaper returns a negative or non-finite factor or
    /// extra rate.
    pub fn generate_day_trips_with(
        &self,
        day: usize,
        shaper: &dyn DemandShaper,
    ) -> Vec<TripRecord> {
        let mut rng = self.day_rng(day, 1);
        let mut trips = Vec::new();
        let mut id = (day as u64) << 32;
        // Per-day, per-slot and per-cell tables are hoisted out of the
        // trip loop: the gravity kernel is tabled once per day, the base
        // rates cost one day-factor solve per slot (not per region) and
        // the gravity cumulative is built once per *occupied* cell (not
        // per trip). None of them touches the RNG, so the generated
        // stream is bit-identical to the naive nesting.
        let kernel = self.gravity_kernel();
        let mut rates = Vec::new();
        let mut dest_w = Vec::new();
        let mut gravity_cum = Vec::new();
        for slot in 0..SLOTS_PER_DAY {
            self.profile.dest_weights_into(slot, &mut dest_w);
            self.profile
                .expected_slot_counts_into(day, slot, &mut rates);
            for region in self.grid.regions() {
                let factor = shaper.rate_factor(slot, region);
                assert!(
                    factor.is_finite() && factor >= 0.0,
                    "DemandShaper: rate factor must be finite and non-negative, got {factor}"
                );
                let extra = shaper.extra_rate(slot, region);
                assert!(
                    extra.is_finite() && extra >= 0.0,
                    "DemandShaper: extra rate must be finite and non-negative, got {extra}"
                );
                let rate = rates[region.idx()] * factor;
                let mut n = sample_poisson(&mut rng, rate);
                if extra > 0.0 {
                    // Injected mass draws separately so the unshaped path
                    // consumes an identical RNG stream.
                    n += sample_poisson(&mut rng, extra);
                }
                if n == 0 {
                    continue;
                }
                self.gravity_cum_into(&kernel, region, &dest_w, &mut gravity_cum);
                for _ in 0..n {
                    let request_ms = slot as u64 * SLOT_MS + rng.gen_range(0..SLOT_MS);
                    let pickup = self.random_point_in(region, &mut rng);
                    let dropoff =
                        self.sample_destination_from(region, &gravity_cum, pickup, &mut rng);
                    trips.push(TripRecord {
                        id,
                        request_ms,
                        pickup,
                        dropoff,
                    });
                    id += 1;
                }
            }
        }
        trips.sort_by_key(|t| (t.request_ms, t.id));
        trips
    }

    /// Generates Poisson slot counts for `days` consecutive days without
    /// materializing trips (used to build multi-month training histories).
    ///
    /// Counts are drawn from the same rates as [`Self::generate_day_trips`]
    /// but are independent realizations; to get the counts of a generated
    /// trip list, use [`crate::series::count_trips`].
    pub fn generate_counts(&self, days: usize) -> DemandSeries {
        let regions = self.grid.num_regions();
        let mut s = DemandSeries::zeros(days, SLOTS_PER_DAY, regions);
        let mut rates = Vec::new();
        for day in 0..days {
            let mut rng = self.day_rng(day, 2);
            for slot in 0..SLOTS_PER_DAY {
                self.profile
                    .expected_slot_counts_into(day, slot, &mut rates);
                for region in self.grid.regions() {
                    s.set(
                        day,
                        slot,
                        region.idx(),
                        sample_poisson(&mut rng, rates[region.idx()]) as f64,
                    );
                }
            }
        }
        s
    }

    /// The noise-free expected counts (Poisson rates) for `days` days —
    /// the best any predictor could do in expectation.
    pub fn expected_counts(&self, days: usize) -> DemandSeries {
        let mut s = DemandSeries::zeros(days, SLOTS_PER_DAY, self.grid.num_regions());
        let mut rates = Vec::new();
        for day in 0..days {
            for slot in 0..SLOTS_PER_DAY {
                self.profile
                    .expected_slot_counts_into(day, slot, &mut rates);
                for (r, &rate) in rates.iter().enumerate() {
                    s.set(day, slot, r, rate);
                }
            }
        }
        s
    }

    /// Uniform point inside a region's cell.
    fn random_point_in(&self, region: RegionId, rng: &mut StdRng) -> Point {
        let (lo, hi) = self.grid.cell_box(region);
        Point::new(rng.gen_range(lo.lon..hi.lon), rng.gen_range(lo.lat..hi.lat))
    }

    /// The gravity kernel `exp(−d(i,j) / L)` of every origin `i` and
    /// destination `j`, tabled by [`Grid::center_table`]: the kernel is
    /// computed once per pair of grid rows and longitude term, not once
    /// per (cell, destination) pair, and each value is exactly the
    /// per-pair `exp(−center(i).distance_m(&center(j)) / L)`.
    pub fn gravity_kernel(&self) -> CenterTable {
        let scale = self.config.gravity_scale_m;
        self.grid.center_table(|d| (-d / scale).exp())
    }

    /// Builds the gravity-model cumulative distribution of one origin:
    /// region `j` gets probability `∝ dest_w[j] · exp(−d(i,j) / L)`, the
    /// kernel read from `kernel`, this generator's
    /// [`Self::gravity_kernel`]. Shared by every trip of an occupied
    /// `(slot, origin)` cell — the per-trip O(regions) rebuild was the
    /// generation wall at large grids. The float sequence (raw weights,
    /// one total, per-entry division, running sum) matches the per-trip
    /// computation exactly, so sampling from it is bit-identical.
    ///
    /// # Panics
    /// Panics if `origin` is out of range or `dest_w` does not hold one
    /// weight per region.
    pub fn gravity_cum_into(
        &self,
        kernel: &CenterTable,
        origin: RegionId,
        dest_w: &[f64],
        cum: &mut Vec<f64>,
    ) {
        let total = kernel.weighted_row_into(origin, dest_w, cum);
        let mut acc = 0.0;
        for w in cum.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
    }

    /// Gravity-model destination drawn from a prebuilt cumulative
    /// ([`Self::gravity_cum_into`]): a uniform point in the sampled
    /// region, resampled while the trip is shorter than `min_trip_m`.
    fn sample_destination_from(
        &self,
        origin: RegionId,
        cum: &[f64],
        pickup: Point,
        rng: &mut StdRng,
    ) -> Point {
        let mut dropoff = pickup;
        for _ in 0..32 {
            let j = sample_categorical(cum, rng);
            dropoff = self.random_point_in(RegionId(j as u32), rng);
            if pickup.distance_m(&dropoff) >= self.config.min_trip_m {
                return dropoff;
            }
        }
        // Degenerate fallback (tiny grids): nudge to an adjacent cell. A
        // single-region grid has none, so its last draw stands.
        let neighbors = self.grid.neighbors(origin);
        if neighbors.is_empty() {
            return dropoff;
        }
        let j = neighbors[rng.gen_range(0..neighbors.len())];
        self.random_point_in(j, rng)
    }
}

/// A spatially and temporally uniform Poisson workload over a grid — the
/// controlled "synthetic dataset" used in queueing-validation experiments.
#[derive(Debug, Clone)]
pub struct UniformConfig {
    /// Order rate per region per minute.
    pub rate_per_region_per_min: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generates uniform Poisson trips (every region identical, destinations
/// uniform over the whole grid).
pub struct UniformGenerator {
    grid: Grid,
    config: UniformConfig,
}

impl UniformGenerator {
    /// Creates a uniform generator over `grid`.
    pub fn new(grid: Grid, config: UniformConfig) -> Self {
        assert!(
            config.rate_per_region_per_min >= 0.0,
            "UniformGenerator: rate must be non-negative"
        );
        Self { grid, config }
    }

    /// Generates one day of uniform trips, time-sorted.
    pub fn generate_day_trips(&self, day: usize) -> Vec<TripRecord> {
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add((day as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)),
        );
        let mut trips = Vec::new();
        let mut id = (day as u64) << 32;
        let per_slot = self.config.rate_per_region_per_min * (SLOT_MS as f64 / 60_000.0);
        for slot in 0..SLOTS_PER_DAY {
            for region in self.grid.regions() {
                let n = sample_poisson(&mut rng, per_slot);
                for _ in 0..n {
                    let request_ms = slot as u64 * SLOT_MS + rng.gen_range(0..SLOT_MS);
                    let (lo, hi) = self.grid.cell_box(region);
                    let pickup =
                        Point::new(rng.gen_range(lo.lon..hi.lon), rng.gen_range(lo.lat..hi.lat));
                    let dropoff = Point::new(
                        rng.gen_range(self.grid.min().lon..self.grid.max().lon),
                        rng.gen_range(self.grid.min().lat..self.grid.max().lat),
                    );
                    trips.push(TripRecord {
                        id,
                        request_ms,
                        pickup,
                        dropoff,
                    });
                    id += 1;
                }
            }
        }
        trips.sort_by_key(|t| (t.request_ms, t.id));
        trips
    }
}

/// Samples an index from a cumulative distribution by binary search.
fn sample_categorical(cum: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen::<f64>() * cum.last().copied().unwrap_or(1.0);
    match cum.binary_search_by(|&c| c.partial_cmp(&u).expect("weights are finite")) {
        Ok(i) | Err(i) => i.min(cum.len() - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_spatial::ConstantSpeedModel;
    use mrvd_spatial::TravelModel;
    use mrvd_spatial::NYC_EXTENT;

    fn small_gen() -> NycLikeGenerator {
        NycLikeGenerator::new(NycLikeConfig {
            orders_per_day: 20_000.0,
            seed: 7,
            ..NycLikeConfig::default()
        })
    }

    #[test]
    fn hoisted_gravity_cum_matches_the_per_trip_computation() {
        // The per-(slot, origin) gravity cumulative must reproduce the
        // float sequence the old per-trip code computed inline: per-pair
        // haversine and kernel, raw weights, one total, divide each
        // weight, running sum. Every origin of the grids up to 32×32,
        // four of the 64×64 one, at three slots, with the buffer reused.
        let scale = NycLikeConfig::default().gravity_scale_m;
        let mut cum = Vec::new();
        for (cols, rows) in [(7, 3), (16, 16), (32, 32), (64, 64)] {
            let g = NycLikeGenerator::with_grid(
                Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, cols, rows),
                NycLikeConfig {
                    orders_per_day: 20_000.0,
                    seed: 7,
                    ..NycLikeConfig::default()
                },
            );
            let kernel = g.gravity_kernel();
            let n = g.grid().num_regions() as u32;
            let origins: Vec<u32> = if n <= 1024 {
                (0..n).collect()
            } else {
                vec![0, 37, n / 2, n - 1]
            };
            for slot in [0, 17, 37] {
                let dest_w = g.profile().dest_weights(slot);
                for origin in origins.iter().copied().map(RegionId) {
                    g.gravity_cum_into(&kernel, origin, &dest_w, &mut cum);
                    let oc = g.grid().center(origin);
                    let weights: Vec<f64> = dest_w
                        .iter()
                        .enumerate()
                        .map(|(j, &w)| {
                            let d = oc.distance_m(&g.grid().center(RegionId(j as u32)));
                            w * (-d / scale).exp()
                        })
                        .collect();
                    let total: f64 = weights.iter().sum();
                    let mut acc = 0.0;
                    let expect: Vec<f64> = weights
                        .iter()
                        .map(|&w| {
                            acc += w / total;
                            acc
                        })
                        .collect();
                    assert_eq!(cum.len(), expect.len());
                    for (j, (&got, &want)) in cum.iter().zip(&expect).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{cols}x{rows} slot {slot} origin {origin:?} dest {j}: {got} != {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_region_grid_keeps_the_last_draw_when_every_trip_is_too_short() {
        // A 1×1 grid over a ~110 m × 84 m box: every draw is shorter than
        // `min_trip_m` and there is no neighbour to fall back to.
        let grid = Grid::new(
            Point::new(-73.985, 40.750),
            Point::new(-73.984, 40.751),
            1,
            1,
        );
        let g = NycLikeGenerator::with_grid(
            grid.clone(),
            NycLikeConfig {
                orders_per_day: 200.0,
                seed: 7,
                ..NycLikeConfig::default()
            },
        );
        let trips = g.generate_day_trips(0);
        assert!(!trips.is_empty());
        let (lo, hi) = grid.cell_box(RegionId(0));
        for t in &trips {
            let p = t.dropoff;
            assert!(
                (lo.lon..hi.lon).contains(&p.lon) && (lo.lat..hi.lat).contains(&p.lat),
                "dropoff {p:?} outside the cell"
            );
        }
    }

    #[test]
    fn daily_volume_is_near_target() {
        let g = small_gen();
        let trips = g.generate_day_trips(0);
        let expect = 20_000.0 * g.profile().day_factor(0);
        let n = trips.len() as f64;
        assert!(
            (n - expect).abs() < 0.05 * expect,
            "generated {n} vs expected {expect}"
        );
    }

    #[test]
    fn trips_are_sorted_and_in_day() {
        let g = small_gen();
        let trips = g.generate_day_trips(0);
        assert!(trips.windows(2).all(|w| w[0].request_ms <= w[1].request_ms));
        assert!(trips.iter().all(|t| t.request_ms < crate::DAY_MS));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_gen().generate_day_trips(2);
        let b = small_gen().generate_day_trips(2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0], b[0]);
        assert_eq!(a[a.len() - 1], b[b.len() - 1]);
    }

    #[test]
    fn different_days_differ() {
        let g = small_gen();
        let a = g.generate_day_trips(0);
        let b = g.generate_day_trips(1);
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn mean_trip_duration_matches_paper_shape() {
        // The paper notes most NYC trips take < 20 minutes; our default
        // speed model is 8 m/s. Target mean duration 8–20 min with at
        // least 60% of trips under 20 minutes.
        let g = small_gen();
        let model = ConstantSpeedModel::default();
        let trips = g.generate_day_trips(0);
        let durs: Vec<f64> = trips
            .iter()
            .map(|t| model.travel_time_s(t.pickup, t.dropoff))
            .collect();
        let mean = durs.iter().sum::<f64>() / durs.len() as f64;
        assert!((480.0..1_200.0).contains(&mean), "mean duration {mean:.0}s");
        let under20 = durs.iter().filter(|&&d| d < 1_200.0).count() as f64 / durs.len() as f64;
        assert!(under20 > 0.6, "only {under20:.2} of trips under 20 min");
    }

    #[test]
    fn no_degenerate_trips() {
        let g = small_gen();
        let trips = g.generate_day_trips(0);
        let short = trips.iter().filter(|t| t.distance_m() < 300.0).count();
        assert!(
            (short as f64) < 0.01 * trips.len() as f64,
            "{short} degenerate trips out of {}",
            trips.len()
        );
    }

    #[test]
    fn no_shaping_is_byte_identical_to_unshaped_generation() {
        let g = small_gen();
        let a = g.generate_day_trips(1);
        let b = g.generate_day_trips_with(1, &NoShaping);
        assert_eq!(a, b);
    }

    #[test]
    fn rate_factor_scales_volume() {
        struct Halve;
        impl DemandShaper for Halve {
            fn rate_factor(&self, _slot: usize, _region: RegionId) -> f64 {
                0.5
            }
        }
        let g = small_gen();
        let base = g.generate_day_trips(0).len() as f64;
        let halved = g.generate_day_trips_with(0, &Halve).len() as f64;
        assert!(
            (halved - 0.5 * base).abs() < 0.1 * base,
            "halved {halved} vs base {base}"
        );
    }

    #[test]
    fn extra_rate_injects_mass_into_the_targeted_cell() {
        struct Inject {
            region: RegionId,
        }
        impl DemandShaper for Inject {
            fn extra_rate(&self, slot: usize, region: RegionId) -> f64 {
                if slot == 12 && region == self.region {
                    400.0
                } else {
                    0.0
                }
            }
        }
        let g = small_gen();
        // A quiet periphery cell at 6:00 (slot 12).
        let region = g.grid().region_of(mrvd_spatial::Point::new(-73.79, 40.65));
        let base = g.generate_day_trips(0);
        let shaped = g.generate_day_trips_with(0, &Inject { region });
        let in_cell = |trips: &[TripRecord]| {
            trips
                .iter()
                .filter(|t| {
                    t.request_ms / crate::SLOT_MS == 12 && g.grid().region_of(t.pickup) == region
                })
                .count() as f64
        };
        let injected = in_cell(&shaped) - in_cell(&base);
        assert!(
            (injected - 400.0).abs() < 80.0,
            "injected {injected} orders, expected ~400"
        );
        assert!(shaped
            .windows(2)
            .all(|w| w[0].request_ms <= w[1].request_ms));
    }

    #[test]
    #[should_panic(expected = "rate factor must be finite")]
    fn negative_rate_factor_panics() {
        struct Bad;
        impl DemandShaper for Bad {
            fn rate_factor(&self, _slot: usize, _region: RegionId) -> f64 {
                -1.0
            }
        }
        small_gen().generate_day_trips_with(0, &Bad);
    }

    #[test]
    fn counts_match_trip_realizations_in_distribution() {
        let g = small_gen();
        let counts = g.generate_counts(1);
        let trips = g.generate_day_trips(0);
        let realized = crate::series::count_trips(&trips, g.grid());
        // Independent Poisson draws of the same rates: totals agree within
        // a few percent at 20K orders.
        let (a, b) = (counts.total(), realized.total());
        assert!(
            (a - b).abs() < 0.08 * a.max(b),
            "counts {a} vs realized {b}"
        );
    }

    #[test]
    fn expected_counts_are_the_poisson_means() {
        let g = small_gen();
        let exp = g.expected_counts(2);
        // Summing rates over a day gives the day's volume.
        let day0: f64 = (0..SLOTS_PER_DAY).map(|s| exp.slot_total(0, s)).sum();
        let target = 20_000.0 * g.profile().day_factor(0);
        assert!((day0 - target).abs() < 1e-6 * target);
    }

    #[test]
    fn uniform_generator_is_flat() {
        let grid = Grid::nyc_16x16();
        let g = UniformGenerator::new(
            grid.clone(),
            UniformConfig {
                rate_per_region_per_min: 0.05,
                seed: 3,
            },
        );
        let trips = g.generate_day_trips(0);
        // 0.05/min × 1440 min × 256 regions ≈ 18,432.
        let expect = 0.05 * 1440.0 * 256.0;
        assert!(
            ((trips.len() as f64) - expect).abs() < 0.05 * expect,
            "got {}",
            trips.len()
        );
        // Pickup counts per region are roughly uniform: max/min < 3.
        let counts = crate::series::count_trips(&trips, &grid);
        let per_region: Vec<f64> = (0..256)
            .map(|r| (0..SLOTS_PER_DAY).map(|s| counts.get(0, s, r)).sum())
            .collect();
        let max = per_region.iter().cloned().fold(0.0, f64::max);
        let min = per_region.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min.max(1.0) < 3.0, "max {max} min {min}");
    }
}
