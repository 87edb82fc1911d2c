//! The simulation engine: a discrete-event core behind the paper's
//! batch-dispatch semantics (Algorithm 1).
//!
//! The paper's outer loop wakes every Δ and re-scans the world; this
//! engine instead keeps one time-ordered event queue — rider arrivals,
//! rider deadlines (reneges), dropoffs and shift changes — and applies
//! every state transition at its *true* event time. The dispatch policy
//! is still invoked only at batch timestamps `0, Δ, 2Δ, …` (the paper's
//! semantics), but batch slots where nothing changed since the previous
//! invocation are skipped outright, so an idle overnight hour costs a
//! heap peek instead of 1200 policy calls, and reneges are charged at
//! the rider's exact `deadline_ms` rather than the next tick (the
//! quantity the queueing model's abandonment dynamics depend on).
//!
//! [`Simulator::run_scheduled_reference`] (in `reference.rs`) retains
//! the literal per-Δ loop for differential testing: on Δ-aligned inputs
//! both engines produce identical [`SimResult`]s, and a test battery
//! plus proptests pin that equivalence.

use mrvd_demand::TripRecord;
use mrvd_spatial::{Grid, Point, RegionId, TravelModel};
use mrvd_stats::SummaryStats;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::fleet::Fleet;
use crate::metrics::{AssignmentRecord, RenegeRecord, SimResult};
use crate::policy::{AvailableDriver, BusyDriver, DispatchPolicy, WaitingRider};
use crate::schedule::DriverSchedule;
use crate::shard::{EventQueue, ShardedEventQueue};
use crate::state::BatchState;
use crate::types::{DriverId, Millis, RiderId};

/// Simulation parameters (defaults follow the paper's Table 2 defaults:
/// Δ = 3 s, τ = 180 s base wait + U[1 s, 10 s] noise, one full day).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Batch interval Δ in ms.
    pub batch_interval_ms: Millis,
    /// Base pickup waiting time τ in ms.
    pub base_wait_ms: Millis,
    /// Uniform deadline noise range `[lo, hi]` in ms (the paper's
    /// `τ' ∈ [1, 10]` seconds).
    pub wait_noise_ms: (Millis, Millis),
    /// Simulation horizon in ms (a day by default).
    pub horizon_ms: Millis,
    /// Seed for the deadline noise.
    pub seed: u64,
    /// Event-queue shard count for the engine's event core: `0` picks a
    /// count automatically from the grid's region count
    /// ([`ShardedEventQueue::auto_shard_count`]), `1` forces the single
    /// global heap (the pre-shard reference layout), and `n > 1`
    /// partitions events into `n` contiguous region bands. Results are
    /// bit-identical for every value: event keys are globally unique,
    /// so the tournament over shard heads reproduces the single-queue
    /// pop order exactly.
    pub event_shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            batch_interval_ms: 3_000,
            base_wait_ms: 180_000,
            wait_noise_ms: (1_000, 10_000),
            horizon_ms: mrvd_demand::DAY_MS,
            seed: 0x51A1,
            event_shards: 0,
        }
    }
}

// Within-timestamp event order, matching the legacy loop's within-tick
// processing: dropoffs free drivers first, then shift changes see the
// updated fleet, then the batch runs. A deadline at exactly the batch
// timestamp has *not* passed (the loop reneges on `deadline < now`), so
// deadline events sort after everything else at their timestamp and are
// only applied once time moves strictly past them.
const PRI_DROPOFF: u8 = 0;
const PRI_SHIFT: u8 = 1;
const PRI_DEADLINE: u8 = 2;

/// Reconciles the active fleet with a shift-change target, exactly as
/// the legacy per-batch scan did: ramp-ups cancel pending retirements
/// first, then wake parked drivers in pool order; ramp-downs park idle
/// drivers from the pool's tail and mark busy ones (also from the tail)
/// to retire at their next dropoff. Each move is one batch-state
/// transition (a cancelled retirement re-enters upcoming supply, a fresh
/// one leaves it). Returns whether any driver actually moved state.
fn reconcile_fleet(fleet: &mut Fleet, state: &mut BatchState, target: usize, now: Millis) -> bool {
    // On shift and not retiring: exactly the drivers the two driver
    // views hold, since the busy view leaves retiring drivers out.
    let online = state.views().available().len() + state.views().busy().len();
    let mut moved = false;
    if online < target {
        let mut need = target - online;
        for i in 0..fleet.len() {
            if need == 0 {
                break;
            }
            if let Some(ride) = fleet.take_retiring(i) {
                state.enter_upcoming(ride);
                need -= 1;
                moved = true;
            }
        }
        for i in 0..fleet.len() {
            if need == 0 {
                break;
            }
            if let Some(pos) = fleet.unpark(i) {
                state.enter_available(AvailableDriver {
                    id: DriverId(i as u32),
                    pos,
                    available_since_ms: now,
                });
                need -= 1;
                moved = true;
            }
        }
    } else if online > target {
        let mut excess = online - target;
        for i in (0..fleet.len()).rev() {
            if excess == 0 {
                break;
            }
            let id = DriverId(i as u32);
            if state.views().avail_slot(id).is_some() {
                let parked = state.leave_available(id);
                fleet.park(i, parked.pos);
                excess -= 1;
                moved = true;
            }
        }
        for i in (0..fleet.len()).rev() {
            if excess == 0 {
                break;
            }
            let id = DriverId(i as u32);
            if state.views().busy_slot(id).is_some() {
                // A retiring driver will not rejoin, so it is no longer
                // upcoming supply.
                fleet.retire(state.leave_upcoming(id));
                excess -= 1;
                moved = true;
            }
        }
    }
    moved
}

/// The simulator: binds a travel model, a grid and a config; `run`
/// executes one day for one policy.
pub struct Simulator<'a> {
    config: SimConfig,
    travel: &'a dyn TravelModel,
    grid: &'a Grid,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics on a zero batch interval or zero horizon.
    pub fn new(config: SimConfig, travel: &'a dyn TravelModel, grid: &'a Grid) -> Self {
        assert!(
            config.batch_interval_ms > 0,
            "Simulator: Δ must be positive"
        );
        assert!(config.horizon_ms > 0, "Simulator: horizon must be positive");
        assert!(
            config.wait_noise_ms.0 <= config.wait_noise_ms.1,
            "Simulator: noise range inverted"
        );
        Self {
            config,
            travel,
            grid,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The travel model.
    pub(crate) fn travel(&self) -> &'a dyn TravelModel {
        self.travel
    }

    /// The region partition.
    pub(crate) fn grid(&self) -> &'a Grid {
        self.grid
    }

    /// Validates run inputs (shared with the reference loop).
    ///
    /// # Panics
    /// Panics on unsorted/out-of-horizon trips or an oversized schedule.
    pub(crate) fn assert_inputs(
        &self,
        trips: &[TripRecord],
        driver_pool: &[Point],
        schedule: &DriverSchedule,
    ) {
        assert!(
            schedule.max_drivers() <= driver_pool.len(),
            "Simulator: schedule targets {} drivers but the pool holds {}",
            schedule.max_drivers(),
            driver_pool.len()
        );
        assert!(
            trips.windows(2).all(|w| w[0].request_ms <= w[1].request_ms),
            "Simulator: trips must be sorted by request time"
        );
        assert!(
            trips
                .last()
                .is_none_or(|t| t.request_ms < self.config.horizon_ms),
            "Simulator: trips beyond the horizon"
        );
    }

    /// Realizes every rider's pickup deadline: request + base +
    /// U[noise], drawn from the config seed. The event core keeps rider
    /// state as this deadline column parallel to the caller's trip slice,
    /// plus a waiting-view entry for each rider who waits, so a 1M-rider
    /// day never materializes a second copy of its trips.
    pub(crate) fn deadline_table(&self, trips: &[TripRecord]) -> Vec<Millis> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let (noise_lo, noise_hi) = self.config.wait_noise_ms;
        trips
            .iter()
            .map(|t| t.request_ms + self.config.base_wait_ms + rng.gen_range(noise_lo..=noise_hi))
            .collect()
    }

    /// Runs one day: `trips` must be sorted by `request_ms` and fall
    /// within the horizon; `driver_positions` seed the fleet.
    ///
    /// # Panics
    /// Panics if trips are unsorted/out of horizon, or if the policy
    /// returns an invalid assignment (unknown ids, double bookings, or a
    /// pair violating the pickup deadline).
    pub fn run(
        &self,
        trips: &[TripRecord],
        driver_positions: &[Point],
        policy: &mut dyn DispatchPolicy,
    ) -> SimResult {
        self.run_scheduled(
            trips,
            driver_positions,
            &DriverSchedule::constant(driver_positions.len()),
            policy,
        )
    }

    /// Runs one day with a time-varying fleet on the event core:
    /// `driver_pool` holds the spawn positions of every driver that may
    /// ever be on shift, and `schedule` gives the target fleet size over
    /// time. Excess drivers retire at shift changes — idle drivers
    /// immediately, busy drivers at their next dropoff (a retiring
    /// driver disappears from the policy's busy view since it will not
    /// rejoin). A constant schedule over the full pool reproduces
    /// [`Simulator::run`] exactly.
    ///
    /// State transitions (admissions, reneges, dropoffs, shift changes)
    /// are applied at their true event times; the policy runs at batch
    /// timestamps, and quiescent batch slots are skipped (see
    /// [`DispatchPolicy::invoke_every_batch`] for the exactness
    /// contract). [`SimResult::ticks_executed`] and
    /// [`SimResult::events_processed`] expose the engine counters.
    ///
    /// # Panics
    /// Panics under the same conditions as [`Simulator::run`], or if the
    /// schedule ever targets more drivers than the pool holds.
    pub fn run_scheduled(
        &self,
        trips: &[TripRecord],
        driver_pool: &[Point],
        schedule: &DriverSchedule,
        policy: &mut dyn DispatchPolicy,
    ) -> SimResult {
        self.assert_inputs(trips, driver_pool, schedule);
        let teleport = policy.teleports_pickup();
        let every_batch = policy.invoke_every_batch();
        // Rider state is the caller's trip slice plus this parallel
        // deadline column; whether a rider still waits is its membership
        // in the waiting view.
        let deadlines = self.deadline_table(trips);
        let delta = self.config.batch_interval_ms;
        let horizon = self.config.horizon_ms;

        // Drivers up to the initial target start on shift; the rest of
        // the pool waits parked at its spawn position (see `fleet.rs`).
        let initial = schedule.target_at(0);
        let mut fleet = Fleet::new(driver_pool, initial);
        // The live batch state: the waiting / available / busy views every
        // policy sees, the candidate index of the available drivers and
        // the per-region counts, all kept at true event times through its
        // transitions, so an executed batch hands the policy its context
        // without a single full rider or fleet scan. The views are also
        // the engine's only record of who waits and where each on-shift
        // driver is. View slots are stable under `swap_remove`, so the
        // slices are *not* id-sorted; every policy's output is
        // id-tie-broken and hence invariant to the order (the equivalence
        // batteries pin this).
        let mut state = BatchState::new(self.grid, &[], &[], &[]);
        for (i, &pos) in driver_pool.iter().enumerate().take(initial) {
            state.enter_available(AvailableDriver {
                id: DriverId(i as u32),
                pos,
                available_since_ms: 0,
            });
        }
        let phases = schedule.phases();
        // Phase 0 seeded the fleet above; later phases fire as events.
        let mut next_phase = 1usize;

        // The event queue: `(time, priority, payload)` min-queue holding
        // dropoffs (payload = driver index) and deadlines (payload =
        // rider index). Arrivals ride the sorted trip slice through
        // `next_trip`, shift changes ride the sorted phase list through
        // `next_phase`; both merge into the same time order below.
        // Events are partitioned into per-region-band shards — dropoffs
        // by dropoff region, deadlines by pickup region — with a
        // tournament head reproducing the single-queue pop order exactly
        // (see `shard.rs`; `event_shards = 1` keeps the single heap).
        let num_regions = self.grid.num_regions();
        let num_shards = match self.config.event_shards {
            0 => ShardedEventQueue::auto_shard_count(num_regions),
            n => n,
        };
        let mut events = EventQueue::new(num_shards);
        let shard_of = |r: RegionId| r.idx() * num_shards / num_regions;

        let mut next_trip = 0usize;
        let mut served = 0usize;
        let mut total_revenue = 0.0f64;
        let mut assignments: Vec<AssignmentRecord> = Vec::new();
        let mut reneges: Vec<RenegeRecord> = Vec::new();
        let mut batch_time = SummaryStats::new();
        let mut ticks_executed = 0usize;
        let mut events_processed = 0usize;
        // Scratch flags for the double-booking check.
        let mut driver_taken = vec![false; fleet.len()];

        let mut tick: Millis = 0;
        // Any state change since the last executed batch.
        let mut changed = false;
        // The last executed batch applied ≥ 1 assignment (candidate
        // budgets may then surface previously truncated pairs, so the
        // next slot must run even without new events).
        let mut last_assigned = false;

        while tick < horizon {
            // 1. Admit riders whose request time has passed, scheduling
            // each one's exact-deadline renege event.
            while next_trip < trips.len() && trips[next_trip].request_ms <= tick {
                let t = &trips[next_trip];
                state.enter_waiting(WaitingRider {
                    id: RiderId(next_trip as u32),
                    pickup: t.pickup,
                    dropoff: t.dropoff,
                    request_ms: t.request_ms,
                    deadline_ms: deadlines[next_trip],
                });
                events.push(
                    (deadlines[next_trip], PRI_DEADLINE, next_trip as u32),
                    shard_of(self.grid.region_of(t.pickup)),
                );
                next_trip += 1;
                events_processed += 1;
                changed = true;
            }
            // 2. Apply dropoffs, shift changes and passed deadlines in
            // timestamp order, each at its true event time.
            loop {
                let heap_next = events.peek();
                let phase_next = phases
                    .get(next_phase)
                    .map(|&(from, _)| (from, PRI_SHIFT, next_phase as u32));
                let Some((t, pri, id)) = (match (heap_next, phase_next) {
                    (Some(h), Some(p)) => Some(h.min(p)),
                    (h, p) => h.or(p),
                }) else {
                    break;
                };
                let due = if pri == PRI_DEADLINE {
                    t < tick
                } else {
                    t <= tick
                };
                if !due {
                    break;
                }
                match pri {
                    PRI_DROPOFF => {
                        events.pop();
                        let d = id as usize;
                        if let Some(ride) = fleet.take_retiring(d) {
                            // Left upcoming supply when the retirement
                            // was marked.
                            debug_assert_eq!(ride.dropoff_ms, t);
                            fleet.park(d, ride.dropoff_pos);
                        } else {
                            let ride = state.leave_upcoming(DriverId(id));
                            debug_assert_eq!(ride.dropoff_ms, t);
                            state.enter_available(AvailableDriver {
                                id: DriverId(id),
                                pos: ride.dropoff_pos,
                                available_since_ms: t,
                            });
                        }
                        events_processed += 1;
                        changed = true;
                    }
                    PRI_SHIFT => {
                        next_phase += 1;
                        let target = phases[id as usize].1;
                        changed |= reconcile_fleet(&mut fleet, &mut state, target, t);
                        events_processed += 1;
                    }
                    _ => {
                        events.pop();
                        // Deadlines of assigned riders are stale no-ops.
                        if state.views().waiting_slot(RiderId(id)).is_some() {
                            let r = state.leave_waiting(RiderId(id));
                            reneges.push(RenegeRecord {
                                rider: r.id,
                                request_ms: r.request_ms,
                                renege_ms: t,
                            });
                            events_processed += 1;
                            changed = true;
                        }
                    }
                }
            }

            // 3. Run the batch — unless nothing changed since the last
            // one and no refill is pending, in which case this slot is
            // skipped without touching the policy.
            if changed || last_assigned || (every_batch && !state.views().waiting().is_empty()) {
                // The live state *is* the batch context — no rider or
                // fleet scan happens here. Settling it checks, in debug
                // builds, that its structures agree.
                state.settle_batch();
                let ctx = state.context(tick, self.travel);

                // lint:allow(D002): feeds only the batch_time telemetry column, never simulated results
                let t0 = std::time::Instant::now();
                let batch_assignments = policy.assign(&ctx);
                batch_time.push(t0.elapsed().as_secs_f64());
                ticks_executed += 1;

                // Validate and apply.
                for a in &batch_assignments {
                    assert!(
                        state.views().waiting_slot(a.rider).is_some(),
                        "policy assigned unknown or unavailable rider {}",
                        a.rider
                    );
                    let di = a.driver.0 as usize;
                    assert!(
                        di < fleet.len(),
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
                    let Some(slot) = state.views().avail_slot(a.driver) else {
                        if fleet.is_parked(di) {
                            panic!("policy assigned offline driver {}", a.driver);
                        }
                        panic!("policy assigned busy driver {}", a.driver);
                    };
                    let driver = state.views().available()[slot];
                    let ri = a.rider.0 as usize;
                    let (trip, deadline_ms) = (&trips[ri], deadlines[ri]);
                    let pickup_ms = if teleport {
                        tick
                    } else {
                        tick + self.travel.travel_time_ms(driver.pos, trip.pickup)
                    };
                    assert!(
                        pickup_ms <= deadline_ms,
                        "policy violated the pickup deadline: pickup at {pickup_ms}, deadline {deadline_ms}"
                    );
                    let ride_ms = self.travel.travel_time_ms(trip.pickup, trip.dropoff);
                    let dropoff_ms = pickup_ms + ride_ms;
                    let revenue = ride_ms as f64 / 1000.0; // α = 1, cost in seconds
                    state.leave_waiting(a.rider);
                    state.leave_available(a.driver);
                    state.enter_upcoming(BusyDriver {
                        id: a.driver,
                        dropoff_ms,
                        dropoff_pos: trip.dropoff,
                    });
                    // Cross-shard handoff: the ride ends wherever it
                    // ends, so the dropoff event lands in the dropoff
                    // region's shard — always at a batch timestamp,
                    // where dispatch is already a barrier.
                    let dropoff_region = self.grid.region_of(trip.dropoff);
                    events.push(
                        (dropoff_ms, PRI_DROPOFF, a.driver.0),
                        shard_of(dropoff_region),
                    );
                    served += 1;
                    total_revenue += revenue;
                    assignments.push(AssignmentRecord {
                        rider: a.rider,
                        driver: a.driver,
                        batch_ms: tick,
                        pickup_ms,
                        dropoff_ms,
                        revenue,
                        driver_idle_ms: tick - driver.available_since_ms,
                        dropoff_region,
                        estimated_idle_s: a.estimated_idle_s,
                    });
                }
                // Reset the double-booking scratch for the next batch.
                for a in &batch_assignments {
                    driver_taken[a.driver.0 as usize] = false;
                }
                last_assigned = !batch_assignments.is_empty();
                changed = false;
            }

            // 4. Advance: step Δ while the policy must keep running,
            // otherwise jump straight to the first batch slot the next
            // pending event can affect.
            if last_assigned || (every_batch && !state.views().waiting().is_empty()) {
                tick += delta;
                continue;
            }
            // Deadline events of already-assigned riders are stale —
            // drop them so they cannot schedule pointless wake-ups.
            while let Some((_, pri, id)) = events.peek() {
                if pri == PRI_DEADLINE && state.views().waiting_slot(RiderId(id)).is_none() {
                    events.pop();
                } else {
                    break;
                }
            }
            // First slot that observes an event at `t`: the next slot
            // ≥ t for arrivals/dropoffs/shift changes, but strictly > t
            // for deadlines (a deadline at a batch timestamp has not
            // passed there). The queue head bounds every later event's
            // wake-up slot, so peeking the head suffices.
            let at_or_after = |t: Millis| t.div_ceil(delta) * delta;
            let strictly_after = |t: Millis| (t / delta) * delta + delta;
            let mut next_tick: Option<Millis> = None;
            let mut consider = |t: Millis| {
                next_tick = Some(next_tick.map_or(t, |c: Millis| c.min(t)));
            };
            if next_trip < trips.len() {
                consider(at_or_after(trips[next_trip].request_ms));
            }
            if let Some(&(from, _)) = phases.get(next_phase) {
                consider(at_or_after(from));
            }
            if let Some((t, pri, _)) = events.peek() {
                consider(if pri == PRI_DEADLINE {
                    strictly_after(t)
                } else {
                    at_or_after(t)
                });
            }
            match next_tick {
                Some(t) => {
                    debug_assert!(t > tick, "next slot must advance time");
                    tick = t;
                }
                // No pending event anywhere: nothing can ever change
                // again, so every remaining slot is an empty batch.
                None => break,
            }
        }

        // Final accounting at true event times: a rider still waiting,
        // or one who arrived after the last processed slot, reneges at
        // exactly its deadline if that falls before the horizon, and is
        // still waiting when the day ends otherwise. The reneges are
        // charged in `(deadline, rider id)` order, the order their
        // deadline events would pop in.
        let mut late: Vec<(Millis, u32)> = state
            .views()
            .waiting()
            .iter()
            .map(|r| (r.deadline_ms, r.id.0))
            .chain((next_trip..trips.len()).map(|i| (deadlines[i], i as u32)))
            .filter(|&(deadline, _)| deadline < horizon)
            .collect();
        late.sort_unstable();
        reneges.extend(late.into_iter().map(|(deadline, id)| RenegeRecord {
            rider: RiderId(id),
            request_ms: trips[id as usize].request_ms,
            renege_ms: deadline,
        }));
        let reneged = reneges.len();
        let still_waiting = trips.len() - served - reneged;
        debug_assert_eq!(served + reneged + still_waiting, trips.len());

        let m = state.maintenance();
        SimResult {
            policy: policy.name(),
            total_revenue,
            served,
            reneged,
            total_riders: trips.len(),
            still_waiting,
            batch_time,
            batches: horizon.div_ceil(delta) as usize,
            ticks_executed,
            events_processed,
            index_ops: m.index_ops,
            counts_ops: m.counts_ops,
            views_ops: m.views_ops,
            assignments,
            reneges,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RenegeMatch;
    use crate::policy::{Assignment, BatchContext};
    use mrvd_spatial::ConstantSpeedModel;

    /// Assigns every rider to the nearest valid free driver, greedily in
    /// rider-id order — a minimal reference policy for engine tests. All
    /// ties break on ids so the output is invariant to the view order
    /// (the live views are not id-sorted).
    struct FirstFit;

    impl DispatchPolicy for FirstFit {
        fn name(&self) -> String {
            "first-fit".into()
        }

        fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
            let mut riders: Vec<&WaitingRider> = ctx.riders.iter().collect();
            riders.sort_by_key(|r| r.id);
            let mut taken = std::collections::HashSet::new();
            let mut out = Vec::new();
            for r in riders {
                let best = ctx
                    .drivers
                    .iter()
                    .filter(|d| !taken.contains(&d.id) && ctx.is_valid_pair(r, d))
                    .min_by_key(|d| (ctx.travel.travel_time_ms(d.pos, r.pickup), d.id));
                if let Some(d) = best {
                    taken.insert(d.id);
                    out.push(Assignment {
                        rider: r.id,
                        driver: d.id,
                        estimated_idle_s: None,
                    });
                }
            }
            out
        }
    }

    /// A policy that never assigns anyone.
    struct Idle;

    impl DispatchPolicy for Idle {
        fn name(&self) -> String {
            "idle".into()
        }
        fn assign(&mut self, _ctx: &BatchContext<'_>) -> Vec<Assignment> {
            Vec::new()
        }
    }

    fn mk_trips(n: usize) -> Vec<TripRecord> {
        (0..n)
            .map(|i| {
                let pickup = Point::new(
                    -73.98 + (i % 7) as f64 * 0.002,
                    40.74 + (i % 5) as f64 * 0.002,
                );
                TripRecord {
                    id: i as u64,
                    request_ms: (i as u64) * 20_000,
                    pickup,
                    // Short local rides keep drivers within reach of later
                    // pickups, so fleets get reused across orders.
                    dropoff: Point::new(pickup.lon + 0.008, pickup.lat + 0.004),
                }
            })
            .collect()
    }

    fn run(policy: &mut dyn DispatchPolicy, n_trips: usize, n_drivers: usize) -> SimResult {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let config = SimConfig {
            horizon_ms: 3_600_000, // one hour is enough for these tests
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        let trips = mk_trips(n_trips);
        let drivers: Vec<Point> = (0..n_drivers)
            .map(|i| Point::new(-73.97 - (i % 4) as f64 * 0.003, 40.75))
            .collect();
        sim.run(&trips, &drivers, policy)
    }

    #[test]
    fn conservation_of_riders() {
        let res = run(&mut FirstFit, 120, 10);
        assert_eq!(
            res.served + res.reneged + res.still_waiting,
            res.total_riders
        );
        assert!(res.served > 0);
    }

    #[test]
    fn revenue_equals_sum_of_assignment_revenues() {
        let res = run(&mut FirstFit, 80, 8);
        let sum: f64 = res.assignments.iter().map(|a| a.revenue).sum();
        assert!((res.total_revenue - sum).abs() < 1e-9);
    }

    #[test]
    fn idle_policy_serves_nobody_and_everyone_reneges() {
        let res = run(&mut Idle, 50, 10);
        assert_eq!(res.served, 0);
        // Horizon (1 h) far exceeds every deadline (≤ ~190 s after a
        // request in the first 1000 s), so all riders reneged.
        assert_eq!(res.reneged, 50);
        assert_eq!(res.still_waiting, 0);
    }

    #[test]
    fn pickups_meet_deadlines_and_timelines_are_ordered() {
        let res = run(&mut FirstFit, 100, 6);
        for a in &res.assignments {
            assert!(a.batch_ms <= a.pickup_ms);
            assert!(a.pickup_ms <= a.dropoff_ms);
        }
    }

    #[test]
    fn drivers_are_never_double_booked() {
        let res = run(&mut FirstFit, 150, 5);
        // Per driver, busy intervals [batch, dropoff] must not overlap.
        let mut per_driver: std::collections::HashMap<DriverId, Vec<(Millis, Millis)>> =
            std::collections::HashMap::new();
        for a in &res.assignments {
            per_driver
                .entry(a.driver)
                .or_default()
                .push((a.batch_ms, a.dropoff_ms));
        }
        for intervals in per_driver.values() {
            for w in intervals.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "overlapping busy intervals {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&mut FirstFit, 60, 6);
        let b = run(&mut FirstFit, 60, 6);
        assert_eq!(a.first_difference(&b, RenegeMatch::Exact), None);
    }

    #[test]
    fn no_drivers_means_no_service() {
        let res = run(&mut FirstFit, 30, 0);
        assert_eq!(res.served, 0);
        assert_eq!(res.reneged, 30);
    }

    #[test]
    fn no_trips_is_fine() {
        let res = run(&mut FirstFit, 0, 5);
        assert_eq!(res.total_riders, 0);
        assert_eq!(res.served, 0);
        assert!(res.batches > 0);
    }

    #[test]
    fn longer_batch_interval_serves_fewer_riders() {
        // The Figure 8 effect: larger Δ misses more deadlines.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let trips = mk_trips(200);
        // Drivers inside the pickup lattice so deadlines, not geometry,
        // decide who gets served.
        let drivers: Vec<Point> = (0..4).map(|_| Point::new(-73.974, 40.744)).collect();
        let served_at = |delta: Millis| {
            let sim = Simulator::new(
                SimConfig {
                    batch_interval_ms: delta,
                    horizon_ms: 4_000_000,
                    base_wait_ms: 120_000,
                    ..SimConfig::default()
                },
                &travel,
                &grid,
            );
            sim.run(&trips, &drivers, &mut FirstFit).served
        };
        let fast = served_at(3_000);
        let slow = served_at(60_000);
        assert!(
            fast >= slow,
            "Δ=3s served {fast}, Δ=60s served {slow} — larger Δ should not serve more"
        );
    }

    #[test]
    fn busy_drivers_are_visible_with_correct_rejoin_info() {
        // A policy that checks the busy list matches what it assigned.
        struct BusyAuditor {
            expected: std::collections::HashMap<DriverId, (Millis, (i64, i64))>,
            checks: usize,
        }
        impl DispatchPolicy for BusyAuditor {
            fn name(&self) -> String {
                "busy-auditor".into()
            }
            fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
                for b in ctx.busy {
                    let (until, _) = self.expected[&b.id];
                    assert_eq!(b.dropoff_ms, until, "wrong rejoin time exposed");
                    self.checks += 1;
                }
                // Assign the first valid pair and remember its dropoff.
                for r in ctx.riders {
                    for d in ctx.drivers {
                        if ctx.is_valid_pair(r, d) {
                            let pickup = ctx.now_ms + ctx.travel.travel_time_ms(d.pos, r.pickup);
                            let dropoff = pickup + ctx.travel.travel_time_ms(r.pickup, r.dropoff);
                            self.expected.insert(d.id, (dropoff, (0, 0)));
                            return vec![Assignment {
                                rider: r.id,
                                driver: d.id,
                                estimated_idle_s: None,
                            }];
                        }
                    }
                }
                Vec::new()
            }
        }
        let mut auditor = BusyAuditor {
            expected: std::collections::HashMap::new(),
            checks: 0,
        };
        let res = run(&mut auditor, 60, 3);
        assert!(res.served > 0);
        assert!(auditor.checks > 0, "busy drivers never surfaced");
    }

    #[test]
    fn driver_available_since_equals_previous_dropoff() {
        let res = run(&mut FirstFit, 120, 4);
        // For consecutive assignments of a driver, the idle interval of
        // the later one starts exactly at the earlier one's dropoff.
        let mut last_dropoff: std::collections::HashMap<DriverId, Millis> =
            std::collections::HashMap::new();
        let mut verified = 0;
        for a in &res.assignments {
            if let Some(&prev) = last_dropoff.get(&a.driver) {
                assert_eq!(a.batch_ms - a.driver_idle_ms, prev);
                verified += 1;
            }
            last_dropoff.insert(a.driver, a.dropoff_ms);
        }
        assert!(verified > 5, "too few driver reuse events ({verified})");
    }

    #[test]
    fn batch_count_matches_horizon_over_delta() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(
            SimConfig {
                batch_interval_ms: 7_000,
                horizon_ms: 100_000,
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        let res = sim.run(&[], &[], &mut Idle);
        // Batches at 0, 7s, …, 98s → ceil(100/7) = 15.
        assert_eq!(res.batches, 15);
    }

    #[test]
    fn rider_counted_reneged_even_if_never_admitted() {
        // A rider arriving between the last batch and the horizon with a
        // deadline inside the horizon must still be accounted for.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(
            SimConfig {
                batch_interval_ms: 60_000,
                horizon_ms: 120_000,
                base_wait_ms: 10_000,
                wait_noise_ms: (1_000, 2_000),
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        let trips = vec![TripRecord {
            id: 0,
            request_ms: 100_000, // after the second (last) batch at 60s
            pickup: Point::new(-73.98, 40.75),
            dropoff: Point::new(-73.95, 40.78),
        }];
        let res = sim.run(&trips, &[], &mut Idle);
        assert_eq!(res.total_riders, 1);
        assert_eq!(res.served + res.reneged + res.still_waiting, 1);
        assert_eq!(res.reneged, 1);
    }

    #[test]
    fn constant_schedule_reproduces_run_exactly() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let config = SimConfig {
            horizon_ms: 3_600_000,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        let trips = mk_trips(120);
        let drivers: Vec<Point> = (0..8)
            .map(|i| Point::new(-73.97 - (i % 4) as f64 * 0.003, 40.75))
            .collect();
        let plain = sim.run(&trips, &drivers, &mut FirstFit);
        let scheduled = sim.run_scheduled(
            &trips,
            &drivers,
            &DriverSchedule::constant(drivers.len()),
            &mut FirstFit,
        );
        assert_eq!(plain.first_difference(&scheduled, RenegeMatch::Exact), None);
    }

    #[test]
    fn ramp_up_brings_pool_drivers_online() {
        // Target 0 drivers for the first 30 min, then 6: nothing can be
        // served before the shift starts, plenty after.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(
            SimConfig {
                horizon_ms: 3_600_000,
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        let trips = mk_trips(100);
        let pool: Vec<Point> = (0..6).map(|_| Point::new(-73.974, 40.744)).collect();
        let schedule = DriverSchedule::new(vec![(0, 0), (1_800_000, 6)]);
        let res = sim.run_scheduled(&trips, &pool, &schedule, &mut FirstFit);
        assert!(res.served > 0, "drivers never came online");
        assert!(
            res.assignments.iter().all(|a| a.batch_ms >= 1_800_000),
            "assignment before the shift started"
        );
        // The first 30 minutes of riders (deadline ~190 s) all reneged.
        assert!(res.reneged > 0);
    }

    #[test]
    fn ramp_down_shrinks_the_active_fleet() {
        // A policy that records the largest driver view it ever saw after
        // the ramp-down point.
        struct CountAfter {
            cut_ms: Millis,
            max_seen: usize,
        }
        impl DispatchPolicy for CountAfter {
            fn name(&self) -> String {
                "count-after".into()
            }
            fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
                if ctx.now_ms >= self.cut_ms {
                    self.max_seen = self.max_seen.max(ctx.drivers.len() + ctx.busy.len());
                }
                Vec::new()
            }
        }
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(
            SimConfig {
                horizon_ms: 3_600_000,
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        let trips = mk_trips(50);
        let pool: Vec<Point> = (0..10).map(|_| Point::new(-73.974, 40.744)).collect();
        let schedule = DriverSchedule::new(vec![(0, 10), (1_800_000, 3)]);
        let mut counter = CountAfter {
            cut_ms: 1_800_000,
            max_seen: 0,
        };
        let res = sim.run_scheduled(&trips, &pool, &schedule, &mut counter);
        assert_eq!(res.served, 0);
        assert_eq!(counter.max_seen, 3, "fleet did not shrink to the target");
    }

    #[test]
    fn busy_driver_retires_at_dropoff_and_leaves_the_busy_view() {
        // One driver, one long ride; the schedule drops to zero while the
        // ride is in flight. The busy view must empty immediately and the
        // driver must never reappear.
        struct Audit {
            saw_busy_after_cut: bool,
            saw_avail_after_cut: bool,
            cut_ms: Millis,
            assigned: bool,
        }
        impl DispatchPolicy for Audit {
            fn name(&self) -> String {
                "audit".into()
            }
            fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
                if ctx.now_ms >= self.cut_ms {
                    self.saw_busy_after_cut |= !ctx.busy.is_empty();
                    self.saw_avail_after_cut |= !ctx.drivers.is_empty();
                    return Vec::new();
                }
                if !self.assigned {
                    for r in ctx.riders {
                        for d in ctx.drivers {
                            if ctx.is_valid_pair(r, d) {
                                self.assigned = true;
                                return vec![Assignment {
                                    rider: r.id,
                                    driver: d.id,
                                    estimated_idle_s: None,
                                }];
                            }
                        }
                    }
                }
                Vec::new()
            }
        }
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(
            SimConfig {
                horizon_ms: 3_600_000,
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        // A single ~25-minute ride posted at t=0.
        let trips = vec![TripRecord {
            id: 0,
            request_ms: 0,
            pickup: Point::new(-73.974, 40.744),
            dropoff: Point::new(-73.90, 40.80),
        }];
        let pool = vec![Point::new(-73.974, 40.744)];
        let schedule = DriverSchedule::new(vec![(0, 1), (60_000, 0)]);
        let mut audit = Audit {
            saw_busy_after_cut: false,
            saw_avail_after_cut: false,
            cut_ms: 60_000,
            assigned: false,
        };
        let res = sim.run_scheduled(&trips, &pool, &schedule, &mut audit);
        assert_eq!(res.served, 1, "the in-flight ride still completes");
        assert!(
            !audit.saw_busy_after_cut,
            "retiring driver stayed in the busy view"
        );
        assert!(
            !audit.saw_avail_after_cut,
            "retired driver rejoined the fleet"
        );
    }

    #[test]
    fn cancelled_retirement_rejoins_with_its_ride() {
        // One driver, one long ride. The fleet target drops to zero while
        // the ride is in flight (the driver is marked to retire) and comes
        // back to one before the dropoff (the retirement is cancelled).
        // The driver must rejoin upcoming supply with the ride it is on,
        // and become available at that ride's dropoff, under both engines.
        type Views = (
            Millis,
            Vec<(DriverId, Millis)>,
            Vec<(DriverId, Point, Millis)>,
        );
        /// Serves the first valid pair at t = 0 and records, at every
        /// batch, the busy view as `(driver, rejoin ms)` and the available
        /// view as `(driver, position, available since)`.
        struct Recorder {
            assigned: bool,
            seen: Vec<Views>,
        }
        impl DispatchPolicy for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
                self.seen.push((
                    ctx.now_ms,
                    ctx.busy.iter().map(|b| (b.id, b.dropoff_ms)).collect(),
                    ctx.drivers
                        .iter()
                        .map(|d| (d.id, d.pos, d.available_since_ms))
                        .collect(),
                ));
                if self.assigned {
                    return Vec::new();
                }
                for r in ctx.riders {
                    for d in ctx.drivers {
                        if ctx.is_valid_pair(r, d) {
                            self.assigned = true;
                            return vec![Assignment {
                                rider: r.id,
                                driver: d.id,
                                estimated_idle_s: None,
                            }];
                        }
                    }
                }
                Vec::new()
            }
        }
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(
            SimConfig {
                horizon_ms: 3_600_000,
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        let trips = vec![TripRecord {
            id: 0,
            request_ms: 0,
            pickup: Point::new(-73.974, 40.744),
            dropoff: Point::new(-73.90, 40.80),
        }];
        let pool = vec![Point::new(-73.974, 40.744)];
        let schedule = DriverSchedule::new(vec![(0, 1), (60_000, 0), (120_000, 1)]);
        let check = |res: &SimResult, seen: &[Views], label: &str| {
            assert_eq!(res.served, 1, "{label}: the ride was not served");
            let dropoff_ms = res.assignments[0].dropoff_ms;
            assert!(dropoff_ms > 120_000, "{label}: the ride ended too early");
            let (mut in_ride, mut after) = (0, 0);
            for (now, busy, avail) in seen.iter().filter(|s| s.0 >= 120_000) {
                if *now < dropoff_ms {
                    assert_eq!(busy, &[(DriverId(0), dropoff_ms)], "{label} at {now}");
                    assert!(avail.is_empty(), "{label} at {now}");
                    in_ride += 1;
                } else {
                    assert!(busy.is_empty(), "{label} at {now}");
                    assert_eq!(
                        avail,
                        &[(DriverId(0), trips[0].dropoff, dropoff_ms)],
                        "{label} at {now}"
                    );
                    after += 1;
                }
            }
            assert!(in_ride > 0 && after > 0, "{label}: {in_ride} / {after}");
        };
        let mut fast = Recorder {
            assigned: false,
            seen: Vec::new(),
        };
        let res = sim.run_scheduled(&trips, &pool, &schedule, &mut fast);
        check(&res, &fast.seen, "event core");
        let mut slow = Recorder {
            assigned: false,
            seen: Vec::new(),
        };
        let reference = sim.run_scheduled_reference(&trips, &pool, &schedule, &mut slow);
        check(&reference, &slow.seen, "reference");
        assert_eq!(res.first_difference(&reference, RenegeMatch::Exact), None);
    }

    #[test]
    fn shortage_schedule_increases_reneging() {
        let full = {
            let grid = Grid::nyc_16x16();
            let travel = ConstantSpeedModel::new(8.0);
            let sim = Simulator::new(
                SimConfig {
                    horizon_ms: 3_600_000,
                    ..SimConfig::default()
                },
                &travel,
                &grid,
            );
            let trips = mk_trips(150);
            let pool: Vec<Point> = (0..8).map(|_| Point::new(-73.974, 40.744)).collect();
            let run_with = |schedule: &DriverSchedule| {
                sim.run_scheduled(&trips, &pool, schedule, &mut FirstFit)
                    .reneged
            };
            (
                run_with(&DriverSchedule::constant(8)),
                run_with(&DriverSchedule::new(vec![(0, 8), (900_000, 2)])),
            )
        };
        assert!(
            full.1 > full.0,
            "shortage reneged {} <= full-fleet reneged {}",
            full.1,
            full.0
        );
    }

    #[test]
    #[should_panic(expected = "schedule targets")]
    fn schedule_larger_than_pool_panics() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(SimConfig::default(), &travel, &grid);
        sim.run_scheduled(
            &[],
            &[Point::new(-73.97, 40.75)],
            &DriverSchedule::constant(2),
            &mut Idle,
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trips_panic() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let sim = Simulator::new(SimConfig::default(), &travel, &grid);
        let mut trips = mk_trips(3);
        trips.swap(0, 2);
        sim.run(&trips, &[], &mut Idle);
    }

    // ------------------------------------------------------------------
    // Event-core-specific tests.

    #[test]
    fn quiescent_slots_are_skipped() {
        // 120 trips spread over 2400 s in a 3600 s horizon at Δ = 3 s:
        // most slots see no arrival/dropoff/deadline and must be skipped.
        let res = run(&mut FirstFit, 120, 10);
        assert_eq!(res.batches, 1200);
        assert!(
            res.ticks_executed < res.batches,
            "no slot was skipped ({} executed of {})",
            res.ticks_executed,
            res.batches
        );
        assert_eq!(res.ticks_skipped(), res.batches - res.ticks_executed);
        assert!(res.skip_rate() > 0.0 && res.skip_rate() < 1.0);
        // Every admission is an event, so at least one per rider.
        assert!(res.events_processed >= res.total_riders);
    }

    #[test]
    fn idle_slots_cost_nothing_for_an_empty_day() {
        let res = run(&mut Idle, 0, 5);
        assert_eq!(res.ticks_executed, 0);
        assert_eq!(res.events_processed, 0);
        assert!((res.skip_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn live_index_counters_track_maintenance() {
        let res = run(&mut FirstFit, 120, 10);
        assert!(res.served > 0);
        // Index maintenance is event-driven: the 10 seed inserts, one
        // remove per assignment, one insert per dropoff (dropoffs after
        // the last processed slot never re-enter the index).
        assert!(res.index_ops >= 10 + res.served);
        assert!(res.index_ops <= 10 + 2 * res.served);
    }

    #[test]
    fn live_views_counters_track_maintenance() {
        let res = run(&mut FirstFit, 120, 10);
        assert!(res.served > 0);
        // View maintenance is event-driven: 10 seed adds, one add per
        // admission, one waiting remove per assignment or renege, three
        // mutations per assignment (waiting out, available out, busy
        // in), two per processed dropoff (busy out, available in).
        assert!(res.views_ops >= 10 + res.total_riders + 3 * res.served);
        assert!(res.views_ops <= 10 + 2 * res.total_riders + 5 * res.served);
    }

    #[test]
    fn reference_loop_reports_zero_index_counters() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let config = SimConfig {
            horizon_ms: 600_000,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        let trips = mk_trips(10);
        let drivers: Vec<Point> = (0..4).map(|_| Point::new(-73.97, 40.75)).collect();
        let res = sim.run_scheduled_reference(
            &trips,
            &drivers,
            &DriverSchedule::constant(drivers.len()),
            &mut FirstFit,
        );
        assert_eq!(res.index_ops, 0);
        assert_eq!(res.counts_ops, 0);
        assert_eq!(res.views_ops, 0);
    }

    #[test]
    fn renege_heavy_day_matches_the_reference_loop_exactly() {
        // Satellite regression for the renege path's O(1) removal: with
        // one driver against 200 riders almost everyone reneges, so the
        // waiting view churns through swap_removes constantly — results
        // must stay byte-identical to the scan-built reference loop.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let config = SimConfig {
            horizon_ms: 3_600_000,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        let mut trips = mk_trips(200);
        // Compress the arrivals so many riders wait (and renege)
        // concurrently, keeping the waiting view large.
        for t in &mut trips {
            t.request_ms /= 8;
        }
        let drivers = vec![Point::new(-73.974, 40.744)];
        let fast = sim.run(&trips, &drivers, &mut FirstFit);
        let slow = sim.run_scheduled_reference(
            &trips,
            &drivers,
            &DriverSchedule::constant(1),
            &mut FirstFit,
        );
        assert!(
            fast.reneged > 100,
            "day not renege-heavy ({})",
            fast.reneged
        );
        assert_eq!(fast.first_difference(&slow, RenegeMatch::RiderSet), None);
    }

    #[test]
    fn renege_is_charged_at_the_exact_deadline_not_the_next_tick() {
        // One rider, no drivers; deadline = 0 + 90 s + U[1 s, 2 s] falls
        // strictly inside the second Δ = 60 s batch interval.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let config = SimConfig {
            batch_interval_ms: 60_000,
            horizon_ms: 240_000,
            base_wait_ms: 90_000,
            wait_noise_ms: (1_000, 2_000),
            ..SimConfig::default()
        };
        let trips = vec![TripRecord {
            id: 0,
            request_ms: 0,
            pickup: Point::new(-73.98, 40.75),
            dropoff: Point::new(-73.95, 40.78),
        }];
        let sim = Simulator::new(config.clone(), &travel, &grid);
        let res = sim.run(&trips, &[], &mut Idle);
        assert_eq!(res.reneged, 1);
        let exact = res.reneges[0].renege_ms;
        assert!(
            (91_000..=92_000).contains(&exact),
            "expected the exact deadline, got {exact}"
        );
        // The legacy loop only notices at the next batch boundary.
        let legacy =
            sim.run_scheduled_reference(&trips, &[], &DriverSchedule::constant(0), &mut Idle);
        assert_eq!(legacy.reneged, 1);
        assert_eq!(legacy.reneges[0].renege_ms, 120_000);
        // Exact renege times are Δ-invariant: a finer batch interval
        // must report the identical timestamp.
        let fine = Simulator::new(
            SimConfig {
                batch_interval_ms: 1_000,
                ..config
            },
            &travel,
            &grid,
        )
        .run(&trips, &[], &mut Idle);
        assert_eq!(fine.reneges[0].renege_ms, exact);
        assert_eq!(res.reneges[0].rider, RiderId(0));
        assert_eq!(res.reneges[0].request_ms, 0);
        assert!((res.mean_renege_wait_s() - exact as f64 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn results_are_invariant_to_the_event_shard_count() {
        // The sharded queue's tournament must reproduce the single
        // global heap's pop order exactly, so any shard count — the
        // single-queue reference (1), auto (0), or arbitrary (7, 1000)
        // — yields byte-identical results, shift changes included.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let trips = mk_trips(140);
        let drivers: Vec<Point> = (0..7)
            .map(|i| Point::new(-73.97 - (i % 4) as f64 * 0.003, 40.75))
            .collect();
        let schedule = DriverSchedule::new(vec![(0, 7), (1_200_000, 3), (2_400_000, 6)]);
        let run_with = |event_shards: usize| {
            let sim = Simulator::new(
                SimConfig {
                    horizon_ms: 3_600_000,
                    event_shards,
                    ..SimConfig::default()
                },
                &travel,
                &grid,
            );
            sim.run_scheduled(&trips, &drivers, &schedule, &mut FirstFit)
        };
        let single = run_with(1);
        assert!(single.served > 0 && single.reneged > 0);
        for shards in [0, 2, 7, 1000] {
            let sharded = run_with(shards);
            assert_eq!(single.first_difference(&sharded, RenegeMatch::Exact), None);
            assert_eq!(single.ticks_executed, sharded.ticks_executed);
            assert_eq!(single.events_processed, sharded.events_processed);
        }
    }

    #[test]
    fn dropoff_on_a_batch_timestamp_is_dispatchable_in_that_batch_under_all_layouts() {
        // The half-open rejoin-window pin: a dropoff landing *exactly*
        // on a batch timestamp frees its driver before dispatch runs in
        // that same batch, under the sharded layouts, the single-heap
        // layout and the reference loop alike.
        //
        // Fixed 30 s legs make the timeline exact: rider 0 (request 0)
        // is assigned at batch 0, picked up at 30 s, dropped off at
        // 60 s — exactly on a Δ = 3 s batch boundary. Rider 1 (request
        // 10 s) waits; its deadline (≥ 190 s) is far beyond 60 s, so
        // the freed driver must pick it up at the 60 s batch.
        struct FixedTravel(Millis);
        impl TravelModel for FixedTravel {
            fn travel_time_ms(&self, _from: Point, _to: Point) -> Millis {
                self.0
            }
        }
        let grid = Grid::nyc_16x16();
        let travel = FixedTravel(30_000);
        let trips = vec![
            TripRecord {
                id: 0,
                request_ms: 0,
                pickup: Point::new(-73.98, 40.75),
                dropoff: Point::new(-73.96, 40.76),
            },
            TripRecord {
                id: 1,
                request_ms: 10_000,
                pickup: Point::new(-73.95, 40.77),
                dropoff: Point::new(-73.93, 40.78),
            },
        ];
        let drivers = vec![Point::new(-73.974, 40.744)];
        let check = |res: &SimResult, label: &str| {
            assert_eq!(res.served, 2, "{label}: second rider missed");
            assert_eq!(res.assignments[0].dropoff_ms, 60_000, "{label}");
            assert_eq!(
                res.assignments[1].batch_ms, 60_000,
                "{label}: the dropoff at the batch timestamp must be visible to that batch"
            );
        };
        for event_shards in [0, 16, 1] {
            let sim = Simulator::new(
                SimConfig {
                    horizon_ms: 600_000,
                    event_shards,
                    ..SimConfig::default()
                },
                &travel,
                &grid,
            );
            let res = sim.run(&trips, &drivers, &mut FirstFit);
            check(&res, &format!("shards={event_shards}"));
        }
        let sim = Simulator::new(
            SimConfig {
                horizon_ms: 600_000,
                ..SimConfig::default()
            },
            &travel,
            &grid,
        );
        let reference = sim.run_scheduled_reference(
            &trips,
            &drivers,
            &DriverSchedule::constant(1),
            &mut FirstFit,
        );
        check(&reference, "reference");
    }

    #[test]
    fn event_core_matches_the_reference_loop() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let config = SimConfig {
            horizon_ms: 3_600_000,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        let trips = mk_trips(140);
        let drivers: Vec<Point> = (0..7)
            .map(|i| Point::new(-73.97 - (i % 4) as f64 * 0.003, 40.75))
            .collect();
        let schedule = DriverSchedule::new(vec![(0, 7), (1_200_000, 3), (2_400_000, 6)]);
        let fast = sim.run_scheduled(&trips, &drivers, &schedule, &mut FirstFit);
        let slow = sim.run_scheduled_reference(&trips, &drivers, &schedule, &mut FirstFit);
        // Same riders renege; only the charged timestamps may differ
        // (the legacy rounds up to the tick).
        assert_eq!(fast.first_difference(&slow, RenegeMatch::RiderSet), None);
        assert!(fast.ticks_executed < slow.ticks_executed);
    }
}
