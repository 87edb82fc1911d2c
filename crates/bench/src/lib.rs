//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches regenerate the paper's *timing* results (the batch running
//! times of Figures 7b–10b) and microbenchmark each substrate. Fixtures
//! here build representative batch states without running a full day.

#![forbid(unsafe_code)]

use mrvd_core::DemandOracle;
use mrvd_demand::{count_trips, DemandSeries, NycLikeConfig, NycLikeGenerator, TripRecord};
use mrvd_sim::{AvailableDriver, BatchState, BusyDriver, DriverId, RiderId, WaitingRider};
use mrvd_spatial::{Grid, Point};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A self-contained batch state: everything needed to build a
/// [`mrvd_sim::BatchContext`] repeatedly inside a bench loop (through
/// [`BatchFixture::batch_state`]).
pub struct BatchFixture {
    /// Waiting riders.
    pub riders: Vec<WaitingRider>,
    /// Available drivers.
    pub drivers: Vec<AvailableDriver>,
    /// Busy drivers with rejoin info.
    pub busy: Vec<BusyDriver>,
    /// The grid.
    pub grid: Grid,
    /// Batch timestamp.
    pub now_ms: u64,
    /// Realized counts of the day (for oracles).
    pub series: DemandSeries,
}

impl BatchFixture {
    /// Builds a rush-hour batch: `n_riders` waiting around the demand
    /// hotspots, `n_avail` available and `n_busy` busy drivers.
    pub fn rush_hour(n_riders: usize, n_avail: usize, n_busy: usize, seed: u64) -> Self {
        let gen = NycLikeGenerator::new(NycLikeConfig {
            orders_per_day: 100_000.0,
            seed,
            ..NycLikeConfig::default()
        });
        let trips = gen.generate_day_trips(0);
        let grid = gen.grid().clone();
        let series = count_trips(&trips, &grid);
        let now_ms = 8 * 3_600_000u64 + 30 * 60_000;
        // Riders: trips posted shortly before `now`.
        let recent: Vec<&TripRecord> = trips
            .iter()
            .filter(|t| t.request_ms <= now_ms && t.request_ms + 180_000 > now_ms)
            .collect();
        assert!(!recent.is_empty(), "fixture needs rush-hour trips");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let riders: Vec<WaitingRider> = (0..n_riders)
            .map(|i| {
                let t = recent[i % recent.len()];
                WaitingRider {
                    id: RiderId(i as u32),
                    pickup: t.pickup,
                    dropoff: t.dropoff,
                    request_ms: t.request_ms,
                    deadline_ms: now_ms + rng.gen_range(5_000..180_000),
                }
            })
            .collect();
        let drivers: Vec<AvailableDriver> = (0..n_avail)
            .map(|i| {
                let t = &trips[rng.gen_range(0..trips.len())];
                AvailableDriver {
                    id: DriverId(i as u32),
                    pos: t.pickup,
                    available_since_ms: now_ms.saturating_sub(rng.gen_range(0..300_000)),
                }
            })
            .collect();
        let busy: Vec<BusyDriver> = (0..n_busy)
            .map(|i| {
                let t = &trips[rng.gen_range(0..trips.len())];
                BusyDriver {
                    id: DriverId((n_avail + i) as u32),
                    dropoff_ms: now_ms + rng.gen_range(10_000..900_000),
                    dropoff_pos: t.dropoff,
                }
            })
            .collect();
        Self {
            riders,
            drivers,
            busy,
            grid,
            now_ms,
            series,
        }
    }

    /// A real-demand oracle over the fixture's day.
    pub fn oracle(&self) -> DemandOracle {
        DemandOracle::real(self.series.clone(), 0)
    }

    /// Re-anchors every rider onto a driver's position with a generous
    /// pickup deadline, guaranteeing candidates (and thus assignments)
    /// in benchmark batches. Shared by the rate-path measurement sites
    /// (the `rate_estimation` bench and the `delta` subcommand's
    /// microbench) so both time the same regime. Call before
    /// [`BatchFixture::batch_state`].
    ///
    /// # Panics
    /// Panics if the fixture has no drivers.
    pub fn anchor_riders_to_drivers(&mut self) {
        assert!(!self.drivers.is_empty(), "no drivers to anchor riders to");
        let n = self.drivers.len();
        for (i, r) in self.riders.iter_mut().enumerate() {
            r.pickup = self.drivers[i % n].pos;
            r.deadline_ms = self.now_ms + 150_000;
        }
    }

    /// The fixture's batch state — the views, availability index and
    /// region counts the engine would hand a policy — built from scratch.
    pub fn batch_state(&self) -> BatchState {
        BatchState::new(&self.grid, &self.riders, &self.drivers, &self.busy)
    }
}

/// A small deterministic day for end-to-end benches: trips, initial
/// driver positions, grid and realized counts.
pub fn small_day(
    orders: f64,
    drivers: usize,
    seed: u64,
) -> (Vec<TripRecord>, Vec<Point>, Grid, DemandSeries) {
    let gen = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: orders,
        seed,
        ..NycLikeConfig::default()
    });
    let trips = gen.generate_day_trips(0);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let pos = mrvd_demand::sample_driver_positions(&trips, drivers, &mut rng);
    let grid = gen.grid().clone();
    let series = count_trips(&trips, &grid);
    (trips, pos, grid, series)
}
