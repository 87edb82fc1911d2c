//! A queueing policy keeps its batch buffers across batches: the greedy's
//! heap and per-rider state, the rider held by each driver slot, the
//! version stamps, the rate tracker and the candidate scratch. At every
//! batch the engine executes, a policy carried through the whole day must
//! decide exactly what a freshly built one decides on the same context —
//! the same riders, drivers and idle-time estimates, bit for bit. The
//! day's shift schedule grows and shrinks the fleet, so the views' driver
//! slots come and go between batches.

use mrvd::prelude::*;
use rand::rngs::StdRng;

type Constructor = fn(DispatchConfig, DemandOracle) -> QueueingPolicy;

/// A long-lived policy behind a check: each batch, a freshly built twin
/// assigns the same context and must agree with it.
struct FreshCheck {
    live: QueueingPolicy,
    build: Constructor,
    series: DemandSeries,
    /// Batches on which the two agreed on at least one assignment.
    assigning_batches: usize,
}

impl FreshCheck {
    fn new(build: Constructor, series: &DemandSeries) -> Self {
        Self {
            live: build(
                DispatchConfig::default(),
                DemandOracle::real(series.clone(), 0),
            ),
            build,
            series: series.clone(),
            assigning_batches: 0,
        }
    }
}

/// An assignment with its estimate as a bit pattern, for exact comparison.
fn bits(out: &[Assignment]) -> Vec<(RiderId, DriverId, Option<u64>)> {
    out.iter()
        .map(|a| (a.rider, a.driver, a.estimated_idle_s.map(f64::to_bits)))
        .collect()
}

impl DispatchPolicy for FreshCheck {
    fn name(&self) -> String {
        self.live.name()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let out = self.live.assign(ctx);
        let oracle = DemandOracle::real(self.series.clone(), 0);
        let fresh = (self.build)(DispatchConfig::default(), oracle).assign(ctx);
        assert_eq!(
            bits(&out),
            bits(&fresh),
            "{}: the long-lived policy and a fresh one differ at {} ms ({} riders, {} drivers)",
            self.live.name(),
            ctx.now_ms,
            ctx.riders.len(),
            ctx.drivers.len(),
        );
        self.assigning_batches += usize::from(!out.is_empty());
        out
    }
}

#[test]
fn a_long_lived_policy_decides_like_a_fresh_one_on_every_batch() {
    let trips = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 2_000.0,
        seed: 23,
        ..NycLikeConfig::default()
    })
    .generate_day_trips(0);
    let grid = Grid::nyc_16x16();
    let travel = ConstantSpeedModel::default();
    let series = count_trips(&trips, &grid);
    let mut rng = StdRng::seed_from_u64(23);
    let pool = sample_driver_positions(&trips, 60, &mut rng);
    // The fleet grows, collapses, regrows and dwindles.
    let hour = 3_600_000;
    let schedule = DriverSchedule::new(vec![
        (0, 15),
        (7 * hour, 60),
        (10 * hour, 6),
        (14 * hour, 45),
        (19 * hour, 3),
    ]);
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);
    let builds: [Constructor; 3] = [
        QueueingPolicy::irg,
        QueueingPolicy::ls,
        QueueingPolicy::short,
    ];
    for build in builds {
        let mut checked = FreshCheck::new(build, &series);
        sim.run_scheduled(&trips, &pool, &schedule, &mut checked);
        assert!(
            checked.assigning_batches > 300,
            "{}: only {} batches assigned anything",
            checked.name(),
            checked.assigning_batches
        );
    }
}
