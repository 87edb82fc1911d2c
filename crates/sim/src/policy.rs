//! The dispatch-policy interface between the simulator and the
//! assignment algorithms of `mrvd-core`.

use mrvd_spatial::{Grid, Point, RegionIndex, TravelModel};

use crate::counts::RegionCounts;
use crate::types::{DriverId, Millis, RiderId};
use crate::views::BatchViews;

/// A rider currently waiting for a pickup.
#[derive(Debug, Clone, Copy)]
pub struct WaitingRider {
    /// Order id.
    pub id: RiderId,
    /// Pickup location `s_i`.
    pub pickup: Point,
    /// Destination `e_i`.
    pub dropoff: Point,
    /// Posting time `t_i`.
    pub request_ms: Millis,
    /// Pickup deadline `τ_i`: a driver must *arrive* at `pickup` by this
    /// time (Definition 3).
    pub deadline_ms: Millis,
}

/// A driver currently available for assignment.
#[derive(Debug, Clone, Copy)]
pub struct AvailableDriver {
    /// Driver id.
    pub id: DriverId,
    /// Current position (the dropoff of the last order, or the initial
    /// position).
    pub pos: Point,
    /// When the driver became available — batch time minus this is the
    /// driver's running idle interval ψ.
    pub available_since_ms: Millis,
}

/// A driver currently delivering an order, exposed so policies can count
/// the upcoming rejoined drivers `|D̂_k|` per region (Algorithm 1, line 6).
#[derive(Debug, Clone, Copy)]
pub struct BusyDriver {
    /// Driver id.
    pub id: DriverId,
    /// When the driver will drop off and rejoin.
    pub dropoff_ms: Millis,
    /// Where the driver will rejoin.
    pub dropoff_pos: Point,
}

/// Everything a policy sees at one batch timestamp.
///
/// The event engine builds it from its live structures; everywhere else
/// [`crate::BatchState::context`] builds it from scratch. Both uphold the
/// consistency the fields below document.
pub struct BatchContext<'a> {
    /// The batch timestamp `t̄`.
    pub now_ms: Millis,
    /// Riders waiting (arrived, unassigned, deadline not passed).
    pub riders: &'a [WaitingRider],
    /// Available drivers.
    pub drivers: &'a [AvailableDriver],
    /// Busy drivers with known rejoin time/place.
    pub busy: &'a [BusyDriver],
    /// The travel-cost oracle.
    pub travel: &'a dyn TravelModel,
    /// The region partition.
    pub grid: &'a Grid,
    /// The spatial index of the available drivers: the same driver set
    /// and positions as [`BatchContext::drivers`], built over
    /// [`BatchContext::grid`]. Candidate generation answers its radius
    /// queries here, so no policy rebuilds an index per batch.
    pub avail_index: &'a RegionIndex<DriverId>,
    /// Per-region counts of the batch state over [`BatchContext::grid`]:
    /// waiting counts mirror [`BatchContext::riders`] by pickup region,
    /// available counts mirror [`BatchContext::drivers`] by position
    /// region, and the rejoin-time multisets mirror
    /// [`BatchContext::busy`] by dropoff region. Rate estimation reads
    /// them instead of scanning the slices (see `mrvd-core`'s
    /// `RateTracker`).
    pub region_counts: &'a RegionCounts,
    /// The batch views: [`BatchContext::riders`],
    /// [`BatchContext::drivers`] and [`BatchContext::busy`] are exactly
    /// its waiting / available / busy slices, and its id→slot maps
    /// answer membership and slot queries in `O(1)`. The slices are
    /// **not** id-sorted: the engine's views keep slots stable under
    /// `swap_remove`, and every policy breaks ties on rider/driver ids
    /// so its output is invariant to the view order.
    pub views: &'a BatchViews,
}

impl BatchContext<'_> {
    /// Whether `driver` can reach `rider`'s pickup before the deadline —
    /// the paper's validity predicate (Definition 3).
    pub fn is_valid_pair(&self, rider: &WaitingRider, driver: &AvailableDriver) -> bool {
        let t = self.travel.travel_time_ms(driver.pos, rider.pickup);
        self.now_ms + t <= rider.deadline_ms
    }
}

/// One rider–driver assignment produced by a policy.
#[derive(Debug, Clone, Copy)]
pub struct Assignment {
    /// The assigned rider.
    pub rider: RiderId,
    /// The assigned driver.
    pub driver: DriverId,
    /// The policy's estimate of the driver's idle time after dropping the
    /// rider off (seconds) — the queueing policies fill this for the
    /// Table 3 estimation study; baselines leave it `None`.
    pub estimated_idle_s: Option<f64>,
}

/// A batch dispatching algorithm.
///
/// Implementations must return *valid* pairs (each rider/driver at most
/// once, driver able to reach the pickup by the deadline); the simulator
/// asserts this.
pub trait DispatchPolicy {
    /// Display name (matches the paper's figure legends: "IRG-P", "LS-R",
    /// "LTG", "NEAR", "RAND", "POLAR", "SHORT", "UPPER").
    fn name(&self) -> String;

    /// Computes the assignments for one batch.
    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment>;

    /// Whether this policy requires "teleport pickup" semantics (the
    /// UPPER revenue bound ignores pickup distances, §6.3). The simulator
    /// then makes pickups instantaneous and relaxes validity to
    /// `deadline ≥ now`.
    fn teleports_pickup(&self) -> bool {
        false
    }

    /// Whether the engine must invoke [`DispatchPolicy::assign`] at
    /// *every* batch tick while riders are waiting, even when no arrival,
    /// renege, dropoff or shift change happened since the previous tick.
    ///
    /// The event-driven engine skips quiescent ticks: it only calls the
    /// policy when the batch state changed since the last invocation (or
    /// when the last invocation assigned someone, since candidate budgets
    /// may then admit previously truncated pairs). That is exact for
    /// policies that are pure functions of the [`BatchContext`] and
    /// assign whenever a valid pair exists — every policy in this
    /// workspace except RAND. Policies whose observable behaviour depends
    /// on *how many times* `assign` was called (e.g. a seeded RNG drawing
    /// per invocation) — or on simulation time crossing a threshold
    /// *between* events (e.g. "hold a pair back until the rider waited
    /// 30 s") — must return `true` here so their call streams stay
    /// aligned with the paper's literal per-Δ loop. Ticks with an empty
    /// waiting set are still skippable then: no valid policy can assign
    /// anyone, and a well-behaved implementation draws nothing.
    ///
    /// The answer must be constant over the policy's lifetime; the engine
    /// samples it once per run.
    fn invoke_every_batch(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BatchState;
    use mrvd_spatial::ConstantSpeedModel;

    #[test]
    fn validity_respects_deadline() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(10.0);
        let rider = WaitingRider {
            id: RiderId(0),
            pickup: Point::new(-73.98, 40.75),
            dropoff: Point::new(-73.95, 40.78),
            request_ms: 0,
            deadline_ms: 60_000,
        };
        let near = AvailableDriver {
            id: DriverId(0),
            pos: Point::new(-73.981, 40.751),
            available_since_ms: 0,
        };
        let far = AvailableDriver {
            id: DriverId(1),
            pos: Point::new(-73.80, 40.60),
            available_since_ms: 0,
        };
        let state = BatchState::new(&grid, &[], &[], &[]);
        let ctx = state.context(30_000, &travel);
        assert!(ctx.is_valid_pair(&rider, &near));
        assert!(!ctx.is_valid_pair(&rider, &far));
    }
}
