//! Discrete-event car-hailing simulator.
//!
//! Reproduces the paper's online environment (§3.2, §6.2): riders post
//! orders over a day, wait at most `τ_i = t_i + τ + U[1s,10s]` for a
//! pickup and renege otherwise; drivers serve one order at a time and
//! rejoin the platform at the destination of their last order; the
//! platform runs a batch assignment every Δ seconds through a pluggable
//! [`DispatchPolicy`].
//!
//! The engine is a true discrete-event core: arrivals, reneges, dropoffs
//! and shift changes live on one time-ordered event queue and are
//! applied at their exact timestamps, while the policy still runs at the
//! paper's batch boundaries — batch slots where nothing changed are
//! skipped entirely (see `engine`). Alongside the driver states the
//! engine maintains a live [`mrvd_spatial::RegionIndex`] of the
//! available fleet, live per-region batch-state counts
//! ([`RegionCounts`]: waiting riders, available drivers, rejoin-time
//! multisets), and the live policy-facing batch views themselves
//! ([`BatchViews`]: the waiting / available / busy slices with id→slot
//! maps), all updated incrementally at those same event times and
//! exposed to policies via [`BatchContext::avail_index`] /
//! [`BatchContext::region_counts`] / [`BatchContext::views`], so an
//! executed batch does zero full fleet or rider scans — candidate
//! generation, rate estimation and view construction are all
//! `O(changes)`. The literal per-Δ loop survives as
//! [`Simulator::run_scheduled_reference`] for differential testing: it
//! skips nothing, and its [`BatchState`] (views, index and counts) is
//! rebuilt from scratch every batch.
//!
//! The simulator is deterministic given its seed, enforces the paper's
//! validity constraint (Definition 3: the driver must reach the pickup
//! before the deadline) on every assignment a policy returns, and records
//! everything the evaluation needs: revenue, served/reneged counts,
//! per-assignment idle intervals (for Table 3), exact-time renege
//! records, per-batch wall-clock times (for Figures 7b–10b) and the
//! engine's skip/event counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counts;
pub mod engine;
mod fleet;
pub mod metrics;
pub mod policy;
pub mod reference;
pub mod schedule;
pub mod shard;
pub mod state;
pub mod types;
pub mod views;

pub use counts::RegionCounts;
pub use engine::{SimConfig, Simulator};
pub use metrics::{AssignmentRecord, RenegeMatch, RenegeRecord, SimResult};
pub use policy::{
    Assignment, AvailableDriver, BatchContext, BusyDriver, DispatchPolicy, WaitingRider,
};
pub use schedule::DriverSchedule;
pub use shard::{EventKey, ShardedEventQueue};
pub use state::BatchState;
pub use types::{DriverId, Millis, RiderId};
pub use views::BatchViews;
