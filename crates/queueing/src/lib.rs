//! Double-sided region queues with impatient riders — the queueing analysis
//! of the paper's §4.
//!
//! Each region of the city is modelled as a birth–death chain whose state
//! `n` counts waiting riders when positive and congested (waiting) drivers
//! when negative (Figure 3 of the paper):
//!
//! * riders arrive with Poisson rate `λ` (birth, `n → n+1`),
//! * drivers rejoin with Poisson rate `μ` (death, `n → n−1`),
//! * waiting riders renege at the state-dependent rate
//!   `π(n) = e^{βn}/μ` for `n > 0` (Eq. 4),
//! * the driver side is capped at `K` congested drivers — the number of
//!   drivers that can become available in the scheduling window — when
//!   `μ ≥ λ` (Eqs. 11–16).
//!
//! Flow balance (`μ_n p_n = λ p_{n−1}`, Eq. 5) gives the steady-state
//! distribution ([`SteadyState`], Eq. 6) from which the expected idle time
//! `ET(λ, μ)` of a driver that rejoins the region is derived in closed form
//! ([`expected_idle_time`], Eqs. 9–16). The idle time drives the paper's
//! dispatching objective: the *idle ratio* `IR = ET / (cost + ET)` (Eq. 17,
//! implemented in `mrvd-core`).
//!
//! The closed forms read only the positive series' sum, `p0` and, when
//! `λ < μ`, the capped driver-side probabilities. So
//! [`expected_idle_time`] evaluates them in place and does not build the
//! distribution; it shares one positive-series loop and the per-branch
//! normalization with [`SteadyState::compute`], so both give the same
//! bits. [`expected_idle_time_numeric`] sums the distribution state by
//! state as the independent check.

#![forbid(unsafe_code)]

pub mod idle;
pub mod params;
pub mod steady;

pub use idle::{expected_idle_time, expected_idle_time_numeric};
pub use params::{QueueParams, Reneging};
pub use steady::SteadyState;
