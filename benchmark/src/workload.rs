//! The benchmark's workloads and the world each one simulates.
//!
//! Every workload is one closed batch job: a whole simulated day on the
//! NYC-like generator with a constant fleet, a 24 h horizon and the
//! production simulator defaults (τ = 180 s), replayed as fast as the
//! host allows. The seed is an argument of the benchmark; the simulator
//! only ever receives the generated trips and fleet.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use mrvd_core::{DemandOracle, DispatchConfig, QueueingPolicy};
use mrvd_demand::{
    count_trips, sample_driver_positions, DemandSeries, DemandShaper, NycLikeConfig,
    NycLikeGenerator, NycProfile, TripRecord,
};
use mrvd_sim::SimConfig;
use mrvd_spatial::{Grid, Point, RegionId};
use rand::{rngs::StdRng, SeedableRng};

use crate::clock;
use crate::speed::SpeedProbe;

/// The dispatch policy a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// IRG with the real demand oracle (the paper's IRG-R).
    IrgR,
    /// Nearest-pair greedy.
    Near,
}

impl PolicyKind {
    /// The queueing policy as production builds it.
    pub fn irg(series: DemandSeries) -> QueueingPolicy {
        QueueingPolicy::irg(DispatchConfig::default(), DemandOracle::real(series, 0))
    }
}

/// The size of one simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldSize {
    /// Grid columns (and rows: every grid is square).
    pub grid: u32,
    /// Expected orders of the day.
    pub orders_per_day: f64,
    /// Constant fleet size.
    pub drivers: usize,
    /// Batch interval Δ in ms.
    pub delta_ms: u64,
}

/// One workload: a world, a policy and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen (one line).
    pub why: &'static str,
    /// The world.
    pub size: WorldSize,
    /// The policy.
    pub policy: PolicyKind,
    /// FNV-1a digest of the simulated outputs at seed 1 (see
    /// `run::digest`): the same program must reproduce it exactly.
    pub digest_seed1: u64,
    /// The same for the `--smoke` world.
    pub smoke_digest_seed1: u64,
}

/// The small world `--smoke` swaps in (policy unchanged): a few hundred
/// milliseconds per simulated day even in a debug build.
pub const SMOKE: WorldSize = WorldSize {
    grid: 16,
    orders_per_day: 2_000.0,
    drivers: 50,
    delta_ms: 60_000,
};

/// The workloads, in `--workload all` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-irg",
        why: "The paper's setting: 16x16, 70K orders, 1500 drivers, IRG-R at 3 s. Driver-rich batches, so candidate search dominates dispatch.",
        size: WorldSize {
            grid: 16,
            orders_per_day: 70_000.0,
            drivers: 1_500,
            delta_ms: 3_000,
        },
        policy: PolicyKind::IrgR,
        digest_seed1: 0xa51f_70ae_fa2c_b6ac,
        smoke_digest_seed1: 0xf609_2e86_134e_1d12,
    },
    Workload {
        name: "shortage-irg",
        why: "Same world with 150 drivers, IRG-R at 1 s: rider-heavy batches, most riders renege and most candidate queries find no driver.",
        size: WorldSize {
            grid: 16,
            orders_per_day: 70_000.0,
            drivers: 150,
            delta_ms: 1_000,
        },
        policy: PolicyKind::IrgR,
        digest_seed1: 0xe184_5c4f_c907_572b,
        smoke_digest_seed1: 0xf609_2e86_134e_1d12,
    },
    Workload {
        name: "city-near",
        why: "64x64, 50K orders, 2500 drivers, NEAR at 1 s: demand generation dominates setup, and no rates are estimated.",
        size: WorldSize {
            grid: 64,
            orders_per_day: 50_000.0,
            drivers: 2_500,
            delta_ms: 1_000,
        },
        policy: PolicyKind::Near,
        digest_seed1: 0x9241_4f94_a56b_f07e,
        smoke_digest_seed1: 0x4083_2a0d_4fec_68a5,
    },
    Workload {
        name: "city-irg",
        why: "The city-near world under IRG-R: rate and idle-time solves over 4096 regions are a large share of dispatch; 64 event shards.",
        size: WorldSize {
            grid: 64,
            orders_per_day: 50_000.0,
            drivers: 2_500,
            delta_ms: 1_000,
        },
        policy: PolicyKind::IrgR,
        digest_seed1: 0x0fd1_639d_a76e_15db,
        smoke_digest_seed1: 0xf609_2e86_134e_1d12,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// When set-up began, the wall time of each demand-layer call while
/// building a world (host-speed samples taken out), in ns, and the
/// host-speed samples of set-up so far.
#[derive(Debug, Clone)]
pub struct DemandTimes {
    /// Start of the first demand call: set-up time counts from here.
    pub started: Instant,
    /// `NycLikeGenerator::with_grid` (the intensity profile).
    pub profile_ns: u64,
    /// `generate_day_trips` (see [`Sampler`]).
    pub trips_ns: u64,
    /// `count_trips` (the realized series the real oracle reads).
    pub count_ns: u64,
    /// `sample_driver_positions`.
    pub fleet_ns: u64,
    /// Host speed during set-up; the caller ends set-up and brackets it.
    pub speed: SpeedProbe,
}

/// A pass-through [`DemandShaper`] that samples the host speed between
/// demand cells. `generate_day_trips` is `generate_day_trips_with` and
/// the no-op shaper; this shaper returns the same factor (exactly 1) and
/// extra rate (0), so the day is bit-identical — the pinned digests check
/// it — while the kernel runs inside the call.
struct Sampler<'a> {
    speed: &'a RefCell<SpeedProbe>,
    cells: Cell<u32>,
}

impl DemandShaper for Sampler<'_> {
    fn rate_factor(&self, _slot: usize, _region: RegionId) -> f64 {
        let n = self.cells.get().wrapping_add(1);
        self.cells.set(n);
        // A clock read every 32 cells keeps the hook's cost negligible.
        if n % 32 == 0 {
            self.speed.borrow_mut().tick();
        }
        1.0
    }
}

/// Runs `f` as one demand-layer call: returns its result and wall time
/// minus the samples taken inside it, then samples if one is due.
fn call<T>(speed: &RefCell<SpeedProbe>, f: impl FnOnce() -> T) -> (T, u64) {
    let spent = speed.borrow().spent_ns();
    let t = clock::now();
    let out = f();
    let ns = clock::since_ns(t).saturating_sub(speed.borrow().spent_ns() - spent);
    speed.borrow_mut().tick();
    (out, ns)
}

/// A generated day: everything the simulator and the policy receive.
pub struct World {
    /// The region grid over the NYC extent.
    pub grid: Grid,
    /// Time-sorted trips of the day.
    pub trips: Vec<TripRecord>,
    /// Realized per-region slot counts of `trips`.
    pub series: DemandSeries,
    /// Initial driver positions.
    pub fleet: Vec<Point>,
}

impl World {
    /// Generates the world of `size` from `seed`, timing each call into
    /// the demand crate and sampling the host speed as it goes.
    pub fn generate(size: &WorldSize, seed: u64) -> (World, DemandTimes) {
        let (grid, config) = demand_inputs(size, seed);
        let mut probe = SpeedProbe::new();
        probe.bracket();
        let speed = RefCell::new(probe);
        let started = clock::now();
        let (generator, profile_ns) = call(&speed, || NycLikeGenerator::with_grid(grid, config));
        let sampler = Sampler {
            speed: &speed,
            cells: Cell::new(0),
        };
        let (trips, trips_ns) = call(&speed, || generator.generate_day_trips_with(0, &sampler));
        let grid = generator.grid().clone();
        let (series, count_ns) = call(&speed, || count_trips(&trips, &grid));
        let (fleet, fleet_ns) = call(&speed, || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7000_0000_0001);
            sample_driver_positions(&trips, size.drivers, &mut rng)
        });
        let world = World {
            grid,
            trips,
            series,
            fleet,
        };
        let times = DemandTimes {
            started,
            profile_ns,
            trips_ns,
            count_ns,
            fleet_ns,
            speed: speed.into_inner(),
        };
        (world, times)
    }
}

/// The grid and generator configuration of a world of `size` at `seed`.
pub fn demand_inputs(size: &WorldSize, seed: u64) -> (Grid, NycLikeConfig) {
    let nyc = Grid::nyc_16x16();
    let grid = Grid::new(nyc.min(), nyc.max(), size.grid, size.grid);
    // The profile seed also draws the day's "weather" factor, which moves
    // its volume by ~8 % (σ). Dividing it out holds the expected volume at
    // the workload's order count for every seed: seeds vary the realized
    // trips, fleet and deadlines, not the load.
    let weather = NycProfile::new(grid.clone(), 1.0, seed).day_factor(0);
    let config = NycLikeConfig {
        orders_per_day: size.orders_per_day / weather,
        seed,
        ..NycLikeConfig::default()
    };
    (grid, config)
}

/// Production simulator settings with the workload's Δ and a seed
/// derived from the benchmark seed (it draws the deadline noise).
pub fn sim_config(size: &WorldSize, seed: u64) -> SimConfig {
    let defaults = SimConfig::default();
    SimConfig {
        batch_interval_ms: size.delta_ms,
        seed: seed ^ defaults.seed,
        ..defaults
    }
}
