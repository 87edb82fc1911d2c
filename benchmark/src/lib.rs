//! The repository benchmark: one simulated dispatch day per workload,
//! timed end to end and layer by layer from outside the program.
//!
//! The harness calls the demand generator and the production simulator
//! through their public functions only; it adds no knob to the program.
//! See `README.md` for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod run;
pub mod speed;
pub mod timed;
pub mod workload;
