//! Both engines reject every fault a policy's output can carry, with a
//! panic: a rider that is unknown, not yet admitted or already served; an
//! unknown, busy or offline driver; a driver used twice in one batch; and
//! a pickup after the rider's deadline. Each panic names its fault. Both
//! engines apply an assignment before checking the next one, so a
//! driver's second use in a batch would meet the busy check; the
//! double-booking check runs first.
//!
//! The day: riders 0 and 1 request at t = 0 next to driver 0, rider 2 at
//! 600 s. Driver 1 is about 20 km away, too far to reach anyone before
//! the ~190 s deadline, and driver 2 is in the pool but stays offline,
//! since the schedule keeps two drivers on shift. Each fault is a policy
//! that makes one bad assignment.

use mrvd_demand::TripRecord;
use mrvd_sim::{
    Assignment, BatchContext, DispatchPolicy, DriverId, DriverSchedule, RiderId, SimConfig,
    Simulator,
};
use mrvd_spatial::{ConstantSpeedModel, Grid, Point};

const PICKUP: Point = Point::new(-73.974, 40.744);
// A ride of about 9 km: driver 0 is still on it at 600 s.
const DROPOFF: Point = Point::new(-73.90, 40.80);

struct Faulty(fn(&BatchContext<'_>) -> Vec<Assignment>);

impl DispatchPolicy for Faulty {
    fn name(&self) -> String {
        "faulty".into()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        (self.0)(ctx)
    }
}

fn pair(rider: u32, driver: u32) -> Assignment {
    Assignment {
        rider: RiderId(rider),
        driver: DriverId(driver),
        estimated_idle_s: None,
    }
}

fn waiting(ctx: &BatchContext<'_>, rider: u32) -> bool {
    ctx.riders.iter().any(|r| r.id == RiderId(rider))
}

/// Runs the day on the event core, or on the reference loop.
fn run(reference: bool, fault: fn(&BatchContext<'_>) -> Vec<Assignment>) {
    let grid = Grid::nyc_16x16();
    let travel = ConstantSpeedModel::new(8.0);
    let sim = Simulator::new(
        SimConfig {
            horizon_ms: 1_200_000,
            ..SimConfig::default()
        },
        &travel,
        &grid,
    );
    let trips: Vec<TripRecord> = [0, 0, 600_000]
        .into_iter()
        .enumerate()
        .map(|(id, request_ms)| TripRecord {
            id: id as u64,
            request_ms,
            pickup: PICKUP,
            dropoff: DROPOFF,
        })
        .collect();
    let pool = [PICKUP, Point::new(-73.80, 40.90), PICKUP];
    let schedule = DriverSchedule::constant(2);
    let mut policy = Faulty(fault);
    if reference {
        sim.run_scheduled_reference(&trips, &pool, &schedule, &mut policy);
    } else {
        sim.run_scheduled(&trips, &pool, &schedule, &mut policy);
    }
}

fn unknown_rider(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(99, 0)]
}

fn rider_not_yet_admitted(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(2, 0)]
}

/// Serves rider 0 in every batch; only the first one is valid.
fn rider_already_served(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(0, 0)]
}

fn unknown_driver(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(0, 99)]
}

/// Sends driver 0 to rider 0 at t = 0, and to rider 2 at 600 s.
fn busy_driver(ctx: &BatchContext<'_>) -> Vec<Assignment> {
    if waiting(ctx, 2) {
        vec![pair(2, 0)]
    } else if waiting(ctx, 0) {
        vec![pair(0, 0)]
    } else {
        Vec::new()
    }
}

fn offline_driver(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(0, 2)]
}

fn driver_twice_in_one_batch(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(0, 0), pair(1, 0)]
}

fn pickup_after_deadline(_: &BatchContext<'_>) -> Vec<Assignment> {
    vec![pair(0, 1)]
}

/// One `#[should_panic]` test per fault and engine, in the modules
/// `event_core` and `reference_loop`.
macro_rules! fault_tests {
    ($($fault:ident => $expected:literal,)*) => {
        mod event_core {
            $(
                #[test]
                #[should_panic(expected = $expected)]
                fn $fault() {
                    super::run(false, super::$fault);
                }
            )*
        }

        mod reference_loop {
            $(
                #[test]
                #[should_panic(expected = $expected)]
                fn $fault() {
                    super::run(true, super::$fault);
                }
            )*
        }
    };
}

fault_tests! {
    unknown_rider => "policy assigned unknown or unavailable rider r99",
    rider_not_yet_admitted => "policy assigned unknown or unavailable rider r2",
    rider_already_served => "policy assigned unknown or unavailable rider r0",
    unknown_driver => "policy assigned unknown driver d99",
    busy_driver => "policy assigned busy driver d0",
    offline_driver => "policy assigned offline driver d2",
    driver_twice_in_one_batch => "policy assigned driver d0 twice in one batch",
    pickup_after_deadline => "policy violated the pickup deadline",
}
