//! Statistical substrate for the MRVD reproduction.
//!
//! The paper leans on a handful of classical statistical tools that are not
//! available as offline crates in this environment, so they are implemented
//! here from scratch:
//!
//! * [`poisson`] — Poisson sampling and homogeneous/piecewise Poisson arrival
//!   processes (the paper models rider and rejoined-driver arrivals per
//!   region as Poisson, validated in its Appendix B).
//! * [`gamma`] — log-gamma and the regularized incomplete gamma function,
//!   the numerical backbone of the chi-square distribution.
//! * [`chi_square`] — the chi-square goodness-of-fit test used by the
//!   paper's Appendix B (Tables 7–8) to verify the Poisson assumption.
//! * [`metrics`] — MAE / RMSE / relative RMSE and summary statistics used by
//!   Tables 3 and 6.
//! * [`parallel`] — the scoped worker pool the experiment harness and the
//!   scenario sweep fan their runs out on (order-preserving, so results
//!   are independent of the worker count).
//!
//! Everything is deterministic given a seed and uses no global state.

#![forbid(unsafe_code)]

pub mod chi_square;
pub mod gamma;
pub mod metrics;
pub mod parallel;
pub mod poisson;

pub use chi_square::{chi_square_critical, chi_square_gof_poisson, ChiSquareOutcome};
pub use metrics::{mae, mean, relative_rmse, rmse, std_dev, variance, SummaryStats};
pub use parallel::parallel_map;
pub use poisson::{poisson_pmf, sample_poisson, PoissonProcess};
