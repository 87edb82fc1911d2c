//! Workload substrate: synthetic demand standing in for the NYC TLC
//! yellow-taxi trips the paper evaluates on.
//!
//! The raw NYC data cannot be downloaded in this environment, so this crate
//! generates a synthetic workload with the same statistical structure —
//! Poisson arrivals per region and slot, hotspot-shaped origins and
//! gravity-model destinations:
//!
//! * [`profile`] — the spatio-temporal intensity model: a Manhattan-like
//!   hotspot field over the paper's 16×16 NYC grid, a two-peak time-of-day
//!   curve, day-of-week factors and a per-day random ("weather") factor;
//! * [`generator`] — Poisson trip generation from the profile
//!   ([`NycLikeGenerator`]), with a gravity model for destinations, plus a
//!   plain uniform generator for controlled synthetic experiments;
//! * [`trip`] — the [`TripRecord`] order type (`t_i`, `s_i`, `e_i`);
//! * [`series`] — multi-day per-region per-slot count tensors
//!   ([`DemandSeries`]) consumed by the prediction models, and helpers to
//!   count realized trips into series;
//! * [`drivers`] — initial driver placement (pickup locations of sampled
//!   orders, as in the paper's §6.2).
//!
//! Arrivals per region per short window are exactly Poisson — the
//! assumption the paper validates on the real data via chi-square tests
//! (its Appendix B) — so every downstream component sees input with the
//! same statistical structure as the paper's.

pub mod drivers;
pub mod generator;
pub mod profile;
pub mod series;
pub mod trip;

pub use drivers::sample_driver_positions;
pub use generator::{
    DemandShaper, NoShaping, NycLikeConfig, NycLikeGenerator, UniformConfig, UniformGenerator,
};
pub use profile::NycProfile;
pub use series::{count_trips, DemandSeries};
pub use trip::TripRecord;

/// Milliseconds in one day.
pub const DAY_MS: u64 = 24 * 60 * 60 * 1000;

/// The paper's demand-prediction slot length: 30 minutes.
pub const SLOT_MS: u64 = 30 * 60 * 1000;

/// Slots per day at the paper's 30-minute granularity.
pub const SLOTS_PER_DAY: usize = (DAY_MS / SLOT_MS) as usize;
