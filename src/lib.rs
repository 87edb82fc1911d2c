//! # MRVD — Queueing-Theoretic Vehicle Dispatching for Dynamic Car-Hailing
//!
//! A from-scratch Rust reproduction of *"A Queueing-Theoretic Framework
//! for Vehicle Dispatching in Dynamic Car-Hailing"* (Cheng, Jin, Chen,
//! Lin, Zheng — ICDE 2019 / arXiv:2107.08662): the complete system, every
//! substrate it depends on, every baseline it compares against, and the
//! harness that regenerates every table and figure of its evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace so examples and downstream users need a single dependency.
//!
//! ```
//! use mrvd::prelude::*;
//!
//! // Generate a small NYC-like day, place 50 drivers, dispatch with IRG.
//! let gen = NycLikeGenerator::new(NycLikeConfig {
//!     orders_per_day: 2_000.0,
//!     ..NycLikeConfig::default()
//! });
//! let trips = gen.generate_day_trips(0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let drivers = sample_driver_positions(&trips, 50, &mut rng);
//!
//! let grid = Grid::nyc_16x16();
//! let travel = ConstantSpeedModel::default();
//! let series = count_trips(&trips, &grid);
//! let oracle = DemandOracle::real(series, 0);
//! let mut policy = QueueingPolicy::irg(DispatchConfig::default(), oracle);
//!
//! let sim = Simulator::new(SimConfig::default(), &travel, &grid);
//! let result = sim.run(&trips, &drivers, &mut policy);
//! assert!(result.served > 0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Workspace crate | Contents |
//! |---|---|---|
//! | [`core`] | `mrvd-core` | IRG / LS / SHORT, LTG / NEAR / RAND, POLAR, UPPER |
//! | [`queueing`] | `mrvd-queueing` | double-sided region queues, `ET(λ,μ)` |
//! | [`sim`] | `mrvd-sim` | event-driven simulation core (+ legacy reference loop) |
//! | [`prediction`] | `mrvd-prediction` | HA / LR / GBRT / DeepST / DeepST-GC |
//! | [`demand`] | `mrvd-demand` | NYC-like workload generation |
//! | [`scenario`] | `mrvd-scenario` | declarative workload scenarios + sweeps |
//! | [`spatial`] | `mrvd-spatial` | grids, travel models, road networks |
//! | [`stats`] | `mrvd-stats` | Poisson, chi-square, error metrics |

pub use mrvd_core as core;
pub use mrvd_demand as demand;
pub use mrvd_prediction as prediction;
pub use mrvd_queueing as queueing;
pub use mrvd_scenario as scenario;
pub use mrvd_sim as sim;
pub use mrvd_spatial as spatial;
pub use mrvd_stats as stats;

/// One-stop imports for examples and quick starts.
pub mod prelude {
    pub use mrvd_core::{
        DemandOracle, DispatchConfig, Ltg, Near, Polar, PolarConfig, PriorityRule, QueueingPolicy,
        Rand, SearchMode, Upper,
    };
    pub use mrvd_demand::{
        count_trips, sample_driver_positions, DemandSeries, NycLikeConfig, NycLikeGenerator,
        TripRecord, UniformConfig, UniformGenerator, DAY_MS, SLOTS_PER_DAY, SLOT_MS,
    };
    pub use mrvd_prediction::{
        DeepStConfig, DeepStNet, Gbrt, GbrtConfig, GraphConvConfig, GraphConvNet,
        HistoricalAverage, LinearRegression, Predictor,
    };
    pub use mrvd_queueing::{expected_idle_time, QueueParams, Reneging, SteadyState};
    pub use mrvd_scenario::{ScenarioSpec, SlowdownModel, SweepPolicy};
    pub use mrvd_sim::{
        Assignment, BatchContext, DispatchPolicy, DriverId, DriverSchedule, RenegeMatch,
        RenegeRecord, RiderId, SimConfig, SimResult, Simulator,
    };
    pub use mrvd_spatial::{
        ConstantSpeedModel, Grid, Point, RegionId, RoadNetwork, RoadNetworkModel, TravelModel,
    };
    pub use rand::SeedableRng;
}
