//! The paper's contribution: queueing-theoretic batch vehicle dispatching
//! for the Maximum Revenue Vehicle Dispatching (MRVD) problem — plus every
//! baseline its evaluation compares against.
//!
//! * [`queueing_policy`] — the batch algorithms of §5:
//!   **IRG** (idle-ratio-oriented greedy, Algorithm 2), **LS** (local
//!   search refinement, Algorithm 3) and **SHORT** (the Appendix C variant
//!   minimizing `cost + ET` to maximize served orders). One implementation
//!   parameterized by [`SearchMode`] and [`PriorityRule`].
//! * [`rates`] — the per-region arrival-rate estimators of Eqs. 18–19 and
//!   the expected-idle-time table driving the idle ratio (Eq. 17), kept
//!   verbatim as the differential-testing reference.
//! * [`rate_tracker`] — the lazy hot-path replacement: counts, rates and
//!   expected idle times computed only for the regions a batch reads,
//!   from the batch's [`mrvd_sim::RegionCounts`] and the oracle's
//!   per-region window.
//! * [`oracle`] — the demand oracle: ground-truth counts (`-R` variants)
//!   or a fitted [`mrvd_prediction::Predictor`] consulted online with
//!   recursive multi-slot forecasting (`-P` variants).
//! * [`candidates`] — deadline-valid rider–driver pair generation
//!   (Definition 3) via a radius-bounded box scan of the spatial index,
//!   skipped for riders whose last query found nothing and provably
//!   still would.
//! * [`baselines`] — **LTG** (long-trip greedy), **NEAR** (nearest-trip
//!   greedy) and **RAND** (random valid assignment) from §6.3.
//! * [`polar`] — the state-of-the-art comparator **POLAR** (Tong et al.,
//!   VLDB'17), reconstructed from its published description: an offline
//!   prediction-based blueprint guiding online matching.
//! * [`upper`] — the **UPPER** revenue bound (most expensive orders,
//!   pickup distances ignored).
//!
//! All policies implement [`mrvd_sim::DispatchPolicy`] and run unmodified
//! inside [`mrvd_sim::Simulator`].

#![forbid(unsafe_code)]

pub mod baselines;
pub mod candidates;
pub mod config;
pub mod oracle;
pub mod polar;
pub mod queueing_policy;
pub mod rate_tracker;
pub mod rates;
pub mod upper;

pub use baselines::{Ltg, Near, Rand};
pub use candidates::{
    valid_candidates, valid_candidates_with, CandidateScratch, CandidateSet, CandidateStats,
};
pub use config::DispatchConfig;
pub use oracle::{DemandOracle, SparseUpcoming};
pub use polar::{Polar, PolarConfig};
pub use queueing_policy::{PriorityRule, QueueingPolicy, SearchMode};
pub use rate_tracker::{RateTracker, RateTrackerStats};
pub use rates::{estimate_rates, region_rates, RegionEstimate, RegionEstimates};
pub use upper::Upper;
