//! Materializing a [`ScenarioSpec`] into simulator-ready inputs.

use mrvd_demand::{
    count_trips, sample_driver_positions, DemandSeries, DemandShaper, NycLikeConfig,
    NycLikeGenerator, TripRecord, SLOTS_PER_DAY, SLOT_MS,
};
use mrvd_sim::{DriverSchedule, SimConfig};
use mrvd_spatial::{ConstantSpeedModel, Grid, Point, RegionId, NYC_EXTENT};
use rand::{rngs::StdRng, SeedableRng};

use crate::spec::ScenarioSpec;
use crate::travel::SlowdownModel;

/// Fraction of `[lo, hi)` covered by `[start, end)`.
fn overlap_fraction(lo: u64, hi: u64, start: u64, end: u64) -> f64 {
    let s = lo.max(start);
    let e = hi.min(end);
    if e <= s {
        0.0
    } else {
        (e - s) as f64 / (hi - lo) as f64
    }
}

/// The [`DemandShaper`] a spec induces: surge windows become per-slot
/// rate factors (partial slot overlap interpolates the factor linearly),
/// hotspot injections become per-`(slot, region)` extra Poisson mass.
pub struct ScenarioShaper {
    slot_factor: Vec<f64>,
    /// Row-major `[slot][region]` extra rates.
    extra: Vec<f64>,
    regions: usize,
}

impl ScenarioShaper {
    /// Precomputes the shaping tables of `spec` over `grid`.
    pub fn new(spec: &ScenarioSpec, grid: &Grid) -> Self {
        let regions = grid.num_regions();
        let mut slot_factor = vec![1.0; SLOTS_PER_DAY];
        for (slot, f) in slot_factor.iter_mut().enumerate() {
            let (lo, hi) = (slot as u64 * SLOT_MS, (slot as u64 + 1) * SLOT_MS);
            for s in &spec.surges {
                let frac = overlap_fraction(lo, hi, s.start_ms, s.end_ms);
                *f *= 1.0 + (s.factor - 1.0) * frac;
            }
        }
        let mut extra = vec![0.0; SLOTS_PER_DAY * regions];
        for h in &spec.hotspots {
            let region = grid.region_of(Point::new(h.lon, h.lat));
            let window_ms = (h.end_ms - h.start_ms) as f64;
            for slot in 0..SLOTS_PER_DAY {
                let (lo, hi) = (slot as u64 * SLOT_MS, (slot as u64 + 1) * SLOT_MS);
                let frac = overlap_fraction(lo, hi, h.start_ms, h.end_ms);
                if frac > 0.0 {
                    // Share of the pulse mass landing in this slot.
                    extra[slot * regions + region.idx()] +=
                        h.extra_orders * frac * SLOT_MS as f64 / window_ms;
                }
            }
        }
        Self {
            slot_factor,
            extra,
            regions,
        }
    }
}

impl DemandShaper for ScenarioShaper {
    fn rate_factor(&self, slot: usize, _region: RegionId) -> f64 {
        self.slot_factor[slot % SLOTS_PER_DAY]
    }

    fn extra_rate(&self, slot: usize, region: RegionId) -> f64 {
        self.extra[(slot % SLOTS_PER_DAY) * self.regions + region.idx()]
    }
}

/// Everything a simulator run needs, materialized from one spec:
/// perturbed trips, realized demand counts (for the real oracle), the
/// driver pool + schedule, the decorated travel model and the sim config.
pub struct ScenarioWorkload {
    /// The spec this workload came from.
    pub spec: ScenarioSpec,
    /// The grid.
    pub grid: Grid,
    /// Time-sorted perturbed trips of the scenario day.
    pub trips: Vec<TripRecord>,
    /// Realized per-region per-slot counts of `trips` (one day, day 0).
    pub series: DemandSeries,
    /// Spawn positions for every driver the schedule may put on shift.
    pub driver_pool: Vec<Point>,
    /// The supply schedule.
    pub schedule: DriverSchedule,
    /// The (possibly slowed-down) travel model.
    pub travel: SlowdownModel<ConstantSpeedModel>,
    /// Simulator parameters with the spec's overrides applied.
    pub sim_config: SimConfig,
}

impl ScenarioSpec {
    /// Generates the scenario's workload. Deterministic given the spec
    /// (the spec's seed drives trip generation, driver placement and the
    /// simulator's deadline noise).
    ///
    /// # Panics
    /// Panics with the message if the spec fails
    /// [`ScenarioSpec::validate`].
    pub fn materialize(&self) -> ScenarioWorkload {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        // with_grid on the 16×16 default is identical to new(), so
        // pre-scale-axis workloads stay byte-for-byte unchanged.
        let generator = NycLikeGenerator::with_grid(
            Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, self.grid_cols, self.grid_rows),
            NycLikeConfig {
                orders_per_day: self.orders_per_day,
                seed: self.seed,
                ..NycLikeConfig::default()
            },
        );
        let grid = generator.grid().clone();
        let shaper = ScenarioShaper::new(self, &grid);
        let trips = generator.generate_day_trips_with(self.day, &shaper);
        let series = count_trips(&trips, &grid);
        let schedule = self.driver_schedule();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD21B_EA75_0C4D_1234);
        let driver_pool = sample_driver_positions(&trips, schedule.max_drivers(), &mut rng);
        let defaults = SimConfig::default();
        let sim_config = SimConfig {
            batch_interval_ms: self
                .sim
                .batch_interval_ms
                .unwrap_or(defaults.batch_interval_ms),
            base_wait_ms: self.sim.base_wait_ms.unwrap_or(defaults.base_wait_ms),
            seed: self.seed ^ defaults.seed,
            ..defaults
        };
        ScenarioWorkload {
            spec: self.clone(),
            grid,
            trips,
            series,
            driver_pool,
            schedule,
            travel: SlowdownModel::new(ConstantSpeedModel::default(), self.speed_factor),
            sim_config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{HotspotInjection, SurgeWindow};

    const H: u64 = 3_600_000;

    #[test]
    fn surge_window_multiplies_only_overlapping_slots() {
        let mut spec = ScenarioSpec::plain("s", "", 5_000.0, 50);
        spec.surges.push(SurgeWindow {
            start_ms: 8 * H,
            end_ms: 9 * H,
            factor: 2.0,
        });
        // A second, overlapping surge composes multiplicatively.
        spec.surges.push(SurgeWindow {
            start_ms: 8 * H,
            end_ms: 8 * H + 30 * 60 * 1000,
            factor: 1.5,
        });
        let grid = Grid::nyc_16x16();
        let shaper = ScenarioShaper::new(&spec, &grid);
        let r = RegionId(0);
        assert_eq!(shaper.rate_factor(15, r), 1.0); // 07:30, outside
        assert_eq!(shaper.rate_factor(16, r), 3.0); // 08:00, both windows
        assert_eq!(shaper.rate_factor(17, r), 2.0); // 08:30, first only
        assert_eq!(shaper.rate_factor(18, r), 1.0); // 09:00, outside
    }

    #[test]
    fn partial_overlap_interpolates_the_factor() {
        let mut spec = ScenarioSpec::plain("s", "", 5_000.0, 50);
        spec.surges.push(SurgeWindow {
            start_ms: 8 * H + 15 * 60 * 1000, // 08:15 — half of slot 16
            end_ms: 9 * H,
            factor: 3.0,
        });
        let shaper = ScenarioShaper::new(&spec, &Grid::nyc_16x16());
        assert!((shaper.rate_factor(16, RegionId(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_mass_lands_in_its_cell_and_sums_to_the_pulse() {
        let mut spec = ScenarioSpec::plain("s", "", 5_000.0, 50);
        spec.hotspots.push(HotspotInjection {
            lon: -73.790,
            lat: 40.650,
            start_ms: 5 * H + 30 * 60 * 1000,
            end_ms: 7 * H,
            extra_orders: 450.0,
        });
        let grid = Grid::nyc_16x16();
        let shaper = ScenarioShaper::new(&spec, &grid);
        let cell = grid.region_of(Point::new(-73.790, 40.650));
        let total: f64 = (0..SLOTS_PER_DAY).map(|s| shaper.extra_rate(s, cell)).sum();
        assert!((total - 450.0).abs() < 1e-9, "mass {total}");
        // 3 slots of 30 min each → 150 per slot.
        assert!((shaper.extra_rate(11, cell) - 150.0).abs() < 1e-9);
        assert_eq!(shaper.extra_rate(11, RegionId(0)), 0.0);
        assert_eq!(shaper.extra_rate(20, cell), 0.0);
    }

    #[test]
    fn materialize_produces_consistent_workload() {
        let mut spec = ScenarioSpec::plain("m", "", 4_000.0, 60);
        spec.driver_phases.push(crate::spec::DriverPhase {
            from_ms: 16 * H,
            drivers: 90,
        });
        spec.sim.base_wait_ms = Some(120_000);
        let w = spec.materialize();
        assert!(!w.trips.is_empty());
        assert!(w
            .trips
            .windows(2)
            .all(|t| t[0].request_ms <= t[1].request_ms));
        assert_eq!(w.driver_pool.len(), 90, "pool sized to the max phase");
        assert_eq!(w.schedule.max_drivers(), 90);
        assert_eq!(w.sim_config.base_wait_ms, 120_000);
        // Realized counts cover exactly the generated trips.
        assert_eq!(w.series.total() as usize, w.trips.len());
    }

    #[test]
    fn grid_axis_drives_the_materialized_grid() {
        let mut spec = ScenarioSpec::plain("g", "", 2_000.0, 20);
        spec.grid_cols = 32;
        spec.grid_rows = 24;
        let w = spec.materialize();
        assert_eq!(w.grid.num_regions(), 32 * 24);
        assert_eq!(w.grid.min(), Grid::nyc_16x16().min());
        assert_eq!(w.grid.max(), Grid::nyc_16x16().max());
        assert_eq!(w.series.total() as usize, w.trips.len());
        // Same spec on the default grid is the historical workload.
        let default = ScenarioSpec::plain("g", "", 2_000.0, 20).materialize();
        assert_eq!(default.grid.num_regions(), 256);
        assert_ne!(w.trips, default.trips, "grid size perturbs generation");
    }

    #[test]
    fn surged_scenario_generates_more_orders_than_plain() {
        let plain = ScenarioSpec::plain("p", "", 6_000.0, 50).materialize();
        let mut surged_spec = ScenarioSpec::plain("q", "", 6_000.0, 50);
        surged_spec.surges.push(SurgeWindow {
            start_ms: 7 * H,
            end_ms: 10 * H,
            factor: 1.8,
        });
        let surged = surged_spec.materialize();
        assert!(
            surged.trips.len() > plain.trips.len(),
            "surged {} <= plain {}",
            surged.trips.len(),
            plain.trips.len()
        );
    }
}
