//! Declarative workload scenarios for the MRVD dispatcher.
//!
//! The paper evaluates on a single NYC-like weekday profile. This crate
//! turns that single workload into a family: a [`ScenarioSpec`] is a
//! JSON-loadable description of a day (see
//! [`ScenarioSpec::from_json_str`] for the schema and a worked example)
//! that composes perturbations on top of the calibrated NYC-like
//! generator —
//!
//! * **surge windows** ([`SurgeWindow`]) — time-boxed demand-rate
//!   multipliers (rush hours, events);
//! * **hotspot injections** ([`HotspotInjection`]) — extra origin mass at
//!   chosen places and times (airport pulses, stadium lettings-out);
//! * **driver schedules** ([`DriverPhase`]) — piecewise fleet sizes with
//!   shift changes, executed by [`mrvd_sim::Simulator::run_scheduled`];
//! * **speed perturbations** ([`SlowdownModel`]) — a [`mrvd_spatial::TravelModel`]
//!   decorator for rain/congestion;
//! * **deadline-tightness overrides** ([`SimOverrides`]) — patience and
//!   batch-interval changes.
//!
//! [`builtins()`] names six ready-made scenarios (baseline weekday, rush
//! surge, airport pulse, rain, driver shortage, weekend lull), and
//! [`sweep()`] runs {policies} × {scenarios} on a scoped worker pool with
//! deterministic, thread-count-independent results. The motivation
//! follows the imbalance regimes studied by Alwan–Ata–Zhou (2023) and
//! the e-hailing queueing-network view of Zhang–Honnappa–Ukkusuri
//! (2018): dispatch quality must be judged across demand/supply regimes,
//! not one lucky weekday.

#![warn(missing_docs)]

pub mod builtins;
pub mod spec;
pub mod sweep;
pub mod travel;
pub mod workload;

pub use builtins::{
    airport_pulse, baseline_weekday, builtins, driver_shortage, rain_slowdown, rush_hour_surge,
    weekend_lull,
};
pub use spec::{DriverPhase, HotspotInjection, ScenarioSpec, SimOverrides, SurgeWindow};
pub use sweep::{
    run_scenario, run_scenario_configured, sweep, sweep_deltas, SweepCell, SweepPolicy,
};
pub use travel::SlowdownModel;
pub use workload::{ScenarioShaper, ScenarioWorkload};
