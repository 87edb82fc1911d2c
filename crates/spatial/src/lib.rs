//! Spatial substrate for the MRVD reproduction.
//!
//! The paper manages riders and drivers on a lat/lon plane partitioned into
//! a 16×16 grid of regions over New York City and measures travel cost as
//! travel time (distance / speed). This crate provides:
//!
//! * [`geo`] — geographic points and haversine distances;
//! * [`grid`] — the rectangular region partition (`Grid`, `RegionId`),
//!   neighbourhood rings, the paper's NYC extent, and tables of a
//!   function of every centre-to-centre distance (`CenterTable`);
//! * [`travel`] — the [`travel::TravelModel`] trait with a constant-speed
//!   haversine implementation (the paper's setting) and a road-network
//!   shortest-path implementation (the paper's §2 graph formalism);
//! * [`road`] — road-network graphs `G = ⟨V, E⟩` with Dijkstra shortest
//!   paths and a synthetic Manhattan-lattice generator;
//! * [`index`] — a per-region bucket index for radius-limited candidate
//!   queries (used by the dispatcher to find drivers near a rider), with
//!   incremental insert/remove/move maintenance and an op counter, so
//!   the simulation engine can keep one live index in sync across
//!   batches instead of rebuilding it (drivers only move at dropoffs;
//!   consecutive batches share almost all spatial state), and
//!   per-bucket insert stamps so a caller can tell when a radius query
//!   that found nothing would still find nothing.
//!
//! In the paper's notation: [`Point`]s are the rider pickups `s_i` /
//! dropoffs `e_i` and driver positions, a [`Grid`] cell is one region
//! `a_k` of the §2 partition, and a [`travel::TravelModel`] is the travel
//! cost function `cost(·, ·)` of Eq. 1.

#![warn(missing_docs)]
// D005: a narrowing `as` in region arithmetic must be checked or carry an
// `#[expect]` that says why it is bounded. Test code is out of scope.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod geo;
pub mod grid;
pub mod index;
pub mod road;
pub mod travel;

pub use geo::{haversine_m, Point};
pub use grid::{CenterTable, Grid, RegionId, NYC_EXTENT};
pub use index::{CellRange, RegionIndex};
pub use road::RoadNetwork;
pub use travel::{ConstantSpeedModel, Millis, RoadNetworkModel, TravelModel};
