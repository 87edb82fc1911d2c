//! The literal batch loop of the paper's Algorithm 1, retained as a
//! differential-testing reference for the event-driven core in
//! `engine.rs`.
//!
//! This is the engine the repository shipped before the event core: it
//! wakes every Δ even when nothing happened, re-scans the fleet for
//! schedule drift each tick, and only *observes* reneges and dropoffs at
//! batch boundaries — which quantizes renege timestamps up by as much as
//! Δ (the bug the event core fixes; see
//! [`crate::metrics::RenegeRecord`]). Its batch state (views,
//! availability index, region counts) is rebuilt from scratch every
//! batch, where the event core maintains it incrementally. On Δ-aligned
//! inputs both engines produce identical [`SimResult`]s; the equivalence
//! batteries in `mrvd-scenario` and the workspace root pin that.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mrvd_demand::TripRecord;
use mrvd_spatial::Point;
use mrvd_stats::SummaryStats;

use crate::engine::Simulator;
use crate::metrics::{AssignmentRecord, RenegeRecord, SimResult};
use crate::policy::{AvailableDriver, BusyDriver, DispatchPolicy, WaitingRider};
use crate::schedule::DriverSchedule;
use crate::state::BatchState;
use crate::types::{DriverId, Millis, RiderId};

/// A driver's state in the reference loop's array-of-structs fleet (the
/// event core keeps the same facts in its batch views, and in `fleet.rs`
/// for the drivers no view shows).
#[derive(Debug, Clone, Copy)]
enum DriverState {
    Available {
        pos: Point,
        since_ms: Millis,
    },
    Busy {
        until_ms: Millis,
        dropoff: Point,
    },
    /// Off shift (never shown to policies); remembers where the driver
    /// parked so a later shift change can bring them back there.
    Offline {
        pos: Point,
    },
}

/// A rider with the realized pickup deadline.
struct RiderInfo {
    trip: TripRecord,
    deadline_ms: Millis,
}

impl Simulator<'_> {
    /// Builds the array-of-structs rider table for the reference loop,
    /// from the same RNG stream as [`Simulator::deadline_table`] so both
    /// engines see identical deadlines.
    fn rider_table(&self, trips: &[TripRecord]) -> Vec<RiderInfo> {
        trips
            .iter()
            .zip(self.deadline_table(trips))
            .map(|(&trip, deadline_ms)| RiderInfo { trip, deadline_ms })
            .collect()
    }

    /// Runs one day through the legacy per-Δ batch loop. Semantics match
    /// [`Simulator::run_scheduled`] except for the documented timing
    /// quantizations: renege timestamps round up to the next batch
    /// boundary, shift changes apply at the first batch at-or-after
    /// their phase start, and the policy is invoked at *every* batch
    /// slot ([`SimResult::ticks_executed`] equals
    /// [`SimResult::batches`], and [`SimResult::events_processed`] is 0
    /// since this loop scans instead of queueing events; the index-,
    /// counts- and views-maintenance counters are likewise 0 because
    /// nothing is maintained here — the loop rebuilds its
    /// [`BatchState`] from scratch every batch). Counts, revenue and
    /// assignments are identical to the event core on Δ-aligned
    /// schedules.
    ///
    /// # Panics
    /// Panics under the same conditions as [`Simulator::run_scheduled`].
    pub fn run_scheduled_reference(
        &self,
        trips: &[TripRecord],
        driver_pool: &[Point],
        schedule: &DriverSchedule,
        policy: &mut dyn DispatchPolicy,
    ) -> SimResult {
        self.assert_inputs(trips, driver_pool, schedule);
        let teleport = policy.teleports_pickup();
        let riders = self.rider_table(trips);

        // Drivers up to the initial target start on shift; the rest of
        // the pool waits offline at its spawn position.
        let initial = schedule.target_at(0);
        let mut drivers: Vec<DriverState> = driver_pool
            .iter()
            .enumerate()
            .map(|(i, &pos)| {
                if i < initial {
                    DriverState::Available { pos, since_ms: 0 }
                } else {
                    DriverState::Offline { pos }
                }
            })
            .collect();
        // Busy drivers marked here retire (go offline) at their dropoff.
        let mut retiring = vec![false; drivers.len()];
        // Scratch flags for the double-booking check.
        let mut driver_taken = vec![false; drivers.len()];
        // A constant schedule (the paper's fixed-fleet setting and every
        // `run()` call) never moves drivers on or off shift, so the
        // per-batch online-count scan below can be skipped entirely.
        let track_schedule = !schedule.is_constant();
        let mut dropoff_heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

        let mut waiting: Vec<u32> = Vec::new(); // rider indices
        let mut next_trip = 0usize;
        let mut served = 0usize;
        let mut total_revenue = 0.0f64;
        let mut assignments: Vec<AssignmentRecord> = Vec::new();
        let mut reneges: Vec<RenegeRecord> = Vec::new();
        let mut batch_time = SummaryStats::new();
        let mut batches = 0usize;
        let mut state = BatchState::new(self.grid(), &[], &[], &[]);

        let mut now = 0u64;
        while now < self.config().horizon_ms {
            // 1. Free drivers whose dropoff has passed.
            while let Some(&Reverse((t, d))) = dropoff_heap.peek() {
                if t > now {
                    break;
                }
                dropoff_heap.pop();
                let DriverState::Busy { until_ms, dropoff } = drivers[d as usize] else {
                    unreachable!("heap entry for a non-busy driver");
                };
                debug_assert_eq!(until_ms, t);
                drivers[d as usize] = if retiring[d as usize] {
                    retiring[d as usize] = false;
                    DriverState::Offline { pos: dropoff }
                } else {
                    DriverState::Available {
                        pos: dropoff,
                        since_ms: t,
                    }
                };
            }
            // 1b. Track the schedule target: activate pooled drivers on a
            // ramp-up (cancelling pending retirements first), retire on a
            // ramp-down (idle drivers immediately, busy ones at dropoff).
            if track_schedule {
                let target = schedule.target_at(now);
                let online = drivers
                    .iter()
                    .zip(&retiring)
                    .filter(|(d, &r)| !matches!(d, DriverState::Offline { .. }) && !r)
                    .count();
                if online < target {
                    let mut need = target - online;
                    for r in retiring.iter_mut() {
                        if need == 0 {
                            break;
                        }
                        if *r {
                            *r = false;
                            need -= 1;
                        }
                    }
                    for d in drivers.iter_mut() {
                        if need == 0 {
                            break;
                        }
                        if let DriverState::Offline { pos } = *d {
                            *d = DriverState::Available { pos, since_ms: now };
                            need -= 1;
                        }
                    }
                } else if online > target {
                    let mut excess = online - target;
                    for d in drivers.iter_mut().rev() {
                        if excess == 0 {
                            break;
                        }
                        if let DriverState::Available { pos, .. } = *d {
                            *d = DriverState::Offline { pos };
                            excess -= 1;
                        }
                    }
                    for (d, r) in drivers.iter().zip(retiring.iter_mut()).rev() {
                        if excess == 0 {
                            break;
                        }
                        if matches!(d, DriverState::Busy { .. }) && !*r {
                            *r = true;
                            excess -= 1;
                        }
                    }
                }
            }
            // 2. Admit new riders.
            while next_trip < riders.len() && riders[next_trip].trip.request_ms <= now {
                waiting.push(next_trip as u32);
                next_trip += 1;
            }
            // 3. Renege riders whose deadline passed — charged at the
            // batch boundary, i.e. up to Δ late (the quantization the
            // event core fixes).
            waiting.retain(|&ri| {
                if riders[ri as usize].deadline_ms < now {
                    reneges.push(RenegeRecord {
                        rider: RiderId(ri),
                        request_ms: riders[ri as usize].trip.request_ms,
                        renege_ms: now,
                    });
                    false
                } else {
                    true
                }
            });

            // 4. Rebuild the batch state — views, availability index and
            // region counts — from full scans.
            state.rebuild(
                waiting.iter().map(|&ri| {
                    let r = &riders[ri as usize];
                    WaitingRider {
                        id: RiderId(ri),
                        pickup: r.trip.pickup,
                        dropoff: r.trip.dropoff,
                        request_ms: r.trip.request_ms,
                        deadline_ms: r.deadline_ms,
                    }
                }),
                drivers.iter().enumerate().filter_map(|(i, d)| match *d {
                    DriverState::Available { pos, since_ms } => Some(AvailableDriver {
                        id: DriverId(i as u32),
                        pos,
                        available_since_ms: since_ms,
                    }),
                    _ => None,
                }),
                // Retiring drivers will not rejoin, so they are not
                // upcoming supply and stay out of the busy view.
                drivers.iter().enumerate().filter_map(|(i, d)| match *d {
                    DriverState::Busy { until_ms, dropoff } if !retiring[i] => Some(BusyDriver {
                        id: DriverId(i as u32),
                        dropoff_ms: until_ms,
                        dropoff_pos: dropoff,
                    }),
                    _ => None,
                }),
            );
            let ctx = state.context(now, self.travel());

            // 5. Run the policy, timed.
            #[expect(
                clippy::disallowed_methods,
                reason = "feeds only the batch_time telemetry column, never simulated results"
            )]
            let t0 = std::time::Instant::now();
            let batch_assignments = policy.assign(&ctx);
            batch_time.push(t0.elapsed().as_secs_f64());
            batches += 1;

            // 6. Validate and apply.
            for a in &batch_assignments {
                let ri = a.rider.0;
                // An assigned rider leaves `waiting` at once, so a rider
                // assigned twice in one batch is unavailable the second time.
                let Some(w) = waiting.iter().position(|&x| x == ri) else {
                    panic!("policy assigned unknown or unavailable rider {}", a.rider);
                };
                let di = a.driver.0 as usize;
                assert!(
                    di < drivers.len(),
                    "policy assigned unknown driver {}",
                    a.driver
                );
                // Before the busy check: the driver's first use has
                // already made it busy.
                assert!(
                    !driver_taken[di],
                    "policy assigned driver {} twice in one batch",
                    a.driver
                );
                driver_taken[di] = true;
                let DriverState::Available { pos, since_ms } = drivers[di] else {
                    match drivers[di] {
                        DriverState::Busy { .. } => {
                            panic!("policy assigned busy driver {}", a.driver)
                        }
                        _ => panic!("policy assigned offline driver {}", a.driver),
                    }
                };
                let rider = &riders[ri as usize];
                let pickup_ms = if teleport {
                    now
                } else {
                    now + self.travel().travel_time_ms(pos, rider.trip.pickup)
                };
                assert!(
                    pickup_ms <= rider.deadline_ms,
                    "policy violated the pickup deadline: pickup at {pickup_ms}, deadline {}",
                    rider.deadline_ms
                );
                let ride_ms = self
                    .travel()
                    .travel_time_ms(rider.trip.pickup, rider.trip.dropoff);
                let dropoff_ms = pickup_ms + ride_ms;
                let revenue = ride_ms as f64 / 1000.0; // α = 1, cost in seconds
                drivers[di] = DriverState::Busy {
                    until_ms: dropoff_ms,
                    dropoff: rider.trip.dropoff,
                };
                dropoff_heap.push(Reverse((dropoff_ms, a.driver.0)));
                waiting.remove(w);
                served += 1;
                total_revenue += revenue;
                assignments.push(AssignmentRecord {
                    rider: a.rider,
                    driver: a.driver,
                    batch_ms: now,
                    pickup_ms,
                    dropoff_ms,
                    revenue,
                    driver_idle_ms: now - since_ms,
                    dropoff_region: self.grid().region_of(rider.trip.dropoff),
                    estimated_idle_s: a.estimated_idle_s,
                });
            }
            // Reset the double-booking scratch for the next batch.
            for a in &batch_assignments {
                driver_taken[a.driver.0 as usize] = false;
            }

            now += self.config().batch_interval_ms;
        }

        // Final accounting: everything admitted but unserved either
        // reneged (deadline before the horizon) or is still waiting;
        // never-admitted late arrivals are classified the same way.
        // End-of-day reneges were never observed by a batch, so they
        // carry their exact deadline.
        let horizon = self.config().horizon_ms;
        for &ri in &waiting {
            if riders[ri as usize].deadline_ms < horizon {
                reneges.push(RenegeRecord {
                    rider: RiderId(ri),
                    request_ms: riders[ri as usize].trip.request_ms,
                    renege_ms: riders[ri as usize].deadline_ms,
                });
            }
        }
        let mut still_waiting = waiting
            .iter()
            .filter(|&&ri| riders[ri as usize].deadline_ms >= horizon)
            .count();
        for (i, r) in riders.iter().enumerate().skip(next_trip) {
            if r.deadline_ms < horizon {
                reneges.push(RenegeRecord {
                    rider: RiderId(i as u32),
                    request_ms: r.trip.request_ms,
                    renege_ms: r.deadline_ms,
                });
            } else {
                still_waiting += 1;
            }
        }
        let reneged = reneges.len();
        debug_assert_eq!(served + reneged + still_waiting, riders.len());

        SimResult {
            policy: policy.name(),
            total_revenue,
            served,
            reneged,
            total_riders: riders.len(),
            still_waiting,
            batch_time,
            batches,
            ticks_executed: batches,
            events_processed: 0,
            index_ops: 0,
            counts_ops: 0,
            views_ops: 0,
            assignments,
            reneges,
        }
    }
}
