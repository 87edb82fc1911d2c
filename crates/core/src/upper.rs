//! UPPER — the revenue upper bound of §6.3: per batch, serve the most
//! expensive waiting orders with idle drivers, *ignoring pickup
//! distances*. The simulator grants this policy teleporting pickups
//! ([`DispatchPolicy::teleports_pickup`]), so the bound dominates every
//! real policy's revenue.

use mrvd_sim::{Assignment, BatchContext, DispatchPolicy};

/// The UPPER bound pseudo-policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Upper;

impl DispatchPolicy for Upper {
    fn name(&self) -> String {
        "UPPER".into()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let k = ctx.riders.len().min(ctx.drivers.len());
        if k == 0 {
            return Vec::new();
        }
        // Top-k riders by revenue; drivers are interchangeable here. Both
        // ranks break ties by stable id, so the pairing is invariant to
        // the live views' slot order.
        let mut order: Vec<usize> = (0..ctx.riders.len()).collect();
        let revenue: Vec<f64> = ctx
            .riders
            .iter()
            .map(|r| ctx.travel.travel_time_s(r.pickup, r.dropoff))
            .collect();
        order.sort_by(|&a, &b| {
            revenue[b]
                .partial_cmp(&revenue[a])
                .expect("revenue is finite")
                .then(ctx.riders[a].id.cmp(&ctx.riders[b].id))
        });
        let mut dorder: Vec<usize> = (0..ctx.drivers.len()).collect();
        dorder.sort_by_key(|&d| ctx.drivers[d].id);
        order
            .into_iter()
            .take(k)
            .zip(dorder)
            .map(|(r, d)| Assignment {
                rider: ctx.riders[r].id,
                driver: ctx.drivers[d].id,
                estimated_idle_s: None,
            })
            .collect()
    }

    fn teleports_pickup(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_sim::{AvailableDriver, BatchState, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, Point};

    #[test]
    fn takes_the_most_expensive_orders() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let mk = |id: u32, lon_off: f64| WaitingRider {
            id: RiderId(id),
            pickup: Point::new(-73.98, 40.75),
            dropoff: Point::new(-73.98 + lon_off, 40.75),
            request_ms: 0,
            deadline_ms: 10_000,
        };
        // Rider 1 has the longest trip, rider 2 the second longest.
        let riders = [mk(0, 0.01), mk(1, 0.20), mk(2, 0.05)];
        let drivers = [
            // Far away — irrelevant for UPPER.
            AvailableDriver {
                id: DriverId(0),
                pos: Point::new(-74.03, 40.58),
                available_since_ms: 0,
            },
            AvailableDriver {
                id: DriverId(1),
                pos: Point::new(-74.03, 40.92),
                available_since_ms: 0,
            },
        ];
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let ctx = state.context(9_000, &travel);
        let out = Upper.assign(&ctx);
        assert_eq!(out.len(), 2);
        let chosen: Vec<u32> = out.iter().map(|a| a.rider.0).collect();
        assert!(chosen.contains(&1) && chosen.contains(&2));
        assert!(Upper.teleports_pickup());
    }
}
