//! Differential battery for the lazy rate path: the engine's live
//! per-region counts and the `RateTracker` — filled eagerly or region by
//! region — must reproduce the verbatim eager reference estimator
//! (`estimate_rates` + the full expected-idle-time table) bit-for-bit
//! over random event sequences — arrivals, assignments, dropoffs,
//! reneges and shift changes. `RateAudit` checks that at every executed
//! batch of the policy it wraps: first-fit, and each queueing policy,
//! which must also emit byte-identical assignments on the event core
//! and on the legacy per-Δ loop, over real and predicted demand alike.

use mrvd::core::{estimate_rates, RateTracker, RegionEstimate, RegionEstimates};
use mrvd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const DELTA_MS: u64 = 3_000;
const HORIZON_MS: u64 = 1_800_000;

/// A random world drawn from one seed: trips sorted by request time
/// inside the horizon, a driver pool, and a Δ-aligned supply schedule
/// (the same recipe as the engine-equivalence battery).
fn random_world(seed: u64) -> (Vec<TripRecord>, Vec<Point>, DriverSchedule) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A7E);
    let n_trips = rng.gen_range(0usize..40);
    let mut requests: Vec<u64> = (0..n_trips).map(|_| rng.gen_range(0..HORIZON_MS)).collect();
    requests.sort_unstable();
    let pt =
        |rng: &mut StdRng| Point::new(rng.gen_range(-74.02..-73.80), rng.gen_range(40.60..40.90));
    let trips: Vec<TripRecord> = requests
        .into_iter()
        .enumerate()
        .map(|(i, request_ms)| TripRecord {
            id: i as u64,
            request_ms,
            pickup: pt(&mut rng),
            dropoff: pt(&mut rng),
        })
        .collect();
    let pool: Vec<Point> = (0..rng.gen_range(0usize..8))
        .map(|_| pt(&mut rng))
        .collect();
    let n_phases = rng.gen_range(1usize..4);
    let mut phases = vec![(0u64, rng.gen_range(0..=pool.len()))];
    for _ in 1..n_phases {
        let from = rng.gen_range(1..HORIZON_MS / DELTA_MS) * DELTA_MS;
        if phases.iter().all(|&(f, _)| f != from) {
            phases.push((from, rng.gen_range(0..=pool.len())));
        }
    }
    phases.sort_unstable();
    (trips, pool, DriverSchedule::new(phases))
}

/// A region entry with its floats as bit patterns, for exact comparison.
fn bits(e: RegionEstimate) -> (u32, u32, u32, u64, u64, u64) {
    (
        e.waiting,
        e.available,
        e.rejoining,
        e.lambda.to_bits(),
        e.mu.to_bits(),
        e.capacity_k,
    )
}

/// A policy wrapper that, at every executed batch, pins the engine's
/// live counts and a tracker of its own against the verbatim eager
/// reference estimator for *every* region — counts, λ/μ/K bits and
/// lazy-vs-eager expected idle times — twice: after the eager prefill,
/// and after a lazy fill of every region in a scrambled order from the
/// oracle's per-region window. Then it hands the batch to `P`, so the
/// checks run on `P`'s own event stream.
struct RateAudit<P> {
    inner: P,
    cfg: DispatchConfig,
    oracle: DemandOracle,
    tracker: RateTracker,
    checks: usize,
}

impl<P: DispatchPolicy> RateAudit<P> {
    fn new(oracle: DemandOracle, inner: P) -> Self {
        Self {
            inner,
            cfg: DispatchConfig::default(),
            oracle,
            tracker: RateTracker::new(),
            checks: 0,
        }
    }

    fn assert_tracker_matches(
        &mut self,
        est: &RegionEstimates,
        ets: &[f64],
        now_ms: u64,
        path: &str,
    ) {
        for (k, et_eager) in ets.iter().enumerate() {
            assert_eq!(
                bits(self.tracker.region(k)),
                bits(est.region(k)),
                "{path}: region {k} at {now_ms}"
            );
            // Lazy ET == eager ET, bit for bit, on every region either
            // path can evaluate.
            assert_eq!(
                self.tracker.et(k, &self.cfg).to_bits(),
                et_eager.to_bits(),
                "{path}: et[{k}] at {now_ms}"
            );
        }
    }
}

impl<P: DispatchPolicy> DispatchPolicy for RateAudit<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn teleports_pickup(&self) -> bool {
        self.inner.teleports_pickup()
    }

    fn invoke_every_batch(&self) -> bool {
        self.inner.invoke_every_batch()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let upcoming = self.oracle.upcoming_riders(ctx.now_ms, self.cfg.tc_ms);
        let est = estimate_rates(ctx, &upcoming, &self.cfg);
        let ets = est.expected_idle_times(&self.cfg);
        // The event engine's live counts describe the views.
        assert_eq!(
            ctx.region_counts.totals(),
            (ctx.riders.len(), ctx.drivers.len(), ctx.busy.len()),
            "live counts totals diverged from the views at {}",
            ctx.now_ms
        );
        // …and the context's three slices must *be* the live views — the
        // engine stopped scan-building them, there is no other source.
        assert!(
            std::ptr::eq(ctx.views.waiting(), ctx.riders)
                && std::ptr::eq(ctx.views.available(), ctx.drivers)
                && std::ptr::eq(ctx.views.busy(), ctx.busy),
            "context slices are not the live views at {}",
            ctx.now_ms
        );
        // The eager prefill, over the oracle's nonzero regions.
        let active: Vec<u32> = upcoming
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(k, _)| k as u32)
            .collect();
        self.tracker
            .begin_batch_sparse(ctx, &upcoming, &active, &self.cfg);
        self.assert_tracker_matches(&est, &ets, ctx.now_ms, "prefill");
        // The policy's lazy fill, region by region, in an order that
        // changes every batch (37 is coprime to the 256 regions).
        let n = upcoming.len();
        self.tracker.begin_batch(n, ctx.now_ms, &self.cfg);
        for i in 0..n {
            let k = (i * 37 + self.checks) % n;
            self.tracker.fill(k, ctx.region_counts, || {
                self.oracle.upcoming_region(ctx.now_ms, self.cfg.tc_ms, k)
            });
        }
        self.assert_tracker_matches(&est, &ets, ctx.now_ms, "lazy");
        self.checks += 1;
        self.inner.assign(ctx)
    }
}

/// Each waiting rider, in view order, takes the nearest valid driver
/// still free. Assigning whatever it can keeps the event stream rich:
/// dropoffs, rejoin-window churn, busy retirements under ramp-downs.
struct FirstFit;

impl DispatchPolicy for FirstFit {
    fn name(&self) -> String {
        "first-fit".into()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let mut taken = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for r in ctx.riders {
            let best = ctx
                .drivers
                .iter()
                .filter(|d| !taken.contains(&d.id) && ctx.is_valid_pair(r, d))
                .min_by_key(|d| ctx.travel.travel_time_ms(d.pos, r.pickup));
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

proptest! {
    /// The tentpole equivalence: over random event sequences the live
    /// counts, the tracker's rates and the lazily evaluated idle times
    /// all match the eager reference estimator on every executed batch.
    #[test]
    fn live_counts_and_tracker_match_reference_on_random_worlds(seed in 0u64..32) {
        let (trips, pool, schedule) = random_world(seed);
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let series = count_trips(&trips, &grid);
        let config = SimConfig {
            batch_interval_ms: DELTA_MS,
            horizon_ms: HORIZON_MS,
            seed,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        let mut audit = RateAudit::new(DemandOracle::real(series, 0), FirstFit);
        let result = sim.run_scheduled(&trips, &pool, &schedule, &mut audit);
        prop_assert_eq!(audit.checks, result.ticks_executed);
        prop_assert_eq!(result.counts_ops > 0, !trips.is_empty() || !pool.is_empty());
    }

    /// End-to-end policy differential: IRG/LS/SHORT over real demand and
    /// IRG/LS over a `HistoricalAverage` forecast, each on its one lazy
    /// rate path. On the event core, wrapped in `RateAudit`, the
    /// policy reads the live counts, and the audit pins the rates it
    /// reads from against the eager estimator at every executed batch;
    /// on the legacy per-Δ loop it reads counts rebuilt from scratch
    /// each batch. Both runs must produce the same results. The
    /// predicted variants also pin the forecast cache, which the lazy
    /// path drives only when it reads a region.
    #[test]
    fn queueing_policies_are_invariant_to_the_rate_path(seed in 0u64..24) {
        let (trips, pool, schedule) = random_world(seed);
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let series = count_trips(&trips, &grid);
        let config = SimConfig {
            batch_interval_ms: DELTA_MS,
            horizon_ms: HORIZON_MS,
            seed,
            ..SimConfig::default()
        };
        let sim = Simulator::new(config, &travel, &grid);
        // A training day ahead of the simulated one, so the forecast is
        // nonzero and differs across regions.
        let (slots, regions) = (series.slots_per_day(), series.regions());
        let history = DemandSeries::from_fn(2, slots, regions, |d, t, r| {
            if d == 0 {
                ((t * 7 + r * 13) % 5) as f64
            } else {
                series.get(0, t, r)
            }
        });
        let real = || DemandOracle::real(series.clone(), 0);
        let predicted =
            || DemandOracle::predicted(Box::new(HistoricalAverage), history.clone(), 1);
        type Build = fn(DispatchConfig, DemandOracle) -> QueueingPolicy;
        let variants: [(Build, &dyn Fn() -> DemandOracle); 5] = [
            (QueueingPolicy::irg, &real),
            (QueueingPolicy::ls, &real),
            (QueueingPolicy::short, &real),
            (QueueingPolicy::irg, &predicted),
            (QueueingPolicy::ls, &predicted),
        ];
        for (build, oracle) in variants {
            let mut audited = RateAudit::new(oracle(), build(DispatchConfig::default(), oracle()));
            let mut legacy = build(DispatchConfig::default(), oracle());
            let name = audited.name();
            let fast = sim.run_scheduled(&trips, &pool, &schedule, &mut audited);
            prop_assert_eq!(audited.checks, fast.ticks_executed, "{}", name);
            let loopy = sim.run_scheduled_reference(&trips, &pool, &schedule, &mut legacy);
            // The legacy loop charges reneges up to Δ late, so against
            // it only the reneging riders match.
            let diff = fast.first_difference(&loopy, RenegeMatch::RiderSet);
            prop_assert!(
                diff.is_none(),
                "{} vs legacy-loop: diverged at {}",
                name,
                diff.unwrap_or_default()
            );
        }
    }
}

/// A travel model with a constant one-minute leg regardless of geometry:
/// with Δ = 60 s every pickup and dropoff lands *exactly* on a batch
/// slot — the adversarial alignment for the rejoin-window boundary.
struct FixedMinute;

impl TravelModel for FixedMinute {
    fn travel_time_ms(&self, _a: Point, _b: Point) -> u64 {
        60_000
    }
}

/// Regression for the rejoin-window boundary: a dropoff landing exactly
/// on a batch slot has already produced an available driver when that
/// batch runs; it must appear in `|D_k|` once and in `|D̂_k|` never —
/// under the live counts and the reference estimator's scans alike.
#[test]
fn dropoff_exactly_on_a_batch_slot_is_counted_once() {
    let grid = Grid::nyc_16x16();
    let travel = FixedMinute;
    let p = Point::new(-73.98, 40.75);
    let trips = vec![
        TripRecord {
            id: 0,
            request_ms: 0,
            pickup: p,
            dropoff: Point::new(-73.95, 40.78),
        },
        // Arrives exactly when trip 0's driver drops off (batch 0 assigns,
        // pickup at 60 s, dropoff at 120 s — a batch slot).
        TripRecord {
            id: 1,
            request_ms: 120_000,
            pickup: Point::new(-73.90, 40.80),
            dropoff: p,
        },
    ];
    let pool = vec![p];
    let sim = Simulator::new(
        SimConfig {
            batch_interval_ms: 60_000,
            horizon_ms: 600_000,
            ..SimConfig::default()
        },
        &travel,
        &grid,
    );
    let series = count_trips(&trips, &grid);
    let mut audit = RateAudit::new(DemandOracle::real(series, 0), FirstFit);
    let result = sim.run_scheduled(&trips, &pool, &DriverSchedule::constant(1), &mut audit);
    assert_eq!(audit.checks, result.ticks_executed);
    assert_eq!(result.served, 2, "both trips must be served");
    assert_eq!(
        result.assignments[0].dropoff_ms, 120_000,
        "the first dropoff must land exactly on a batch slot"
    );
    assert_eq!(
        result.assignments[1].batch_ms, 120_000,
        "the second trip must be dispatched at that exact slot"
    );
    // The audit ran its per-region equality checks at the aligned slot
    // (including |D̂| = 0 there: the dropped-off driver is available,
    // not rejoining — the double-count the half-open window prevents).
    assert!(audit.checks >= 2);
}
