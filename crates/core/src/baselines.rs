//! The paper's §6.3 baselines: LTG, NEAR and RAND.

use mrvd_sim::{Assignment, BatchContext, DispatchPolicy};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::candidates::{valid_candidates_with, CandidateScratch, CandidateStats};

/// Long-trip greedy: assigns the highest-revenue waiting orders first,
/// each to its nearest valid driver.
pub struct Ltg {
    /// Candidate budget per rider (as in the queueing policies).
    pub max_candidates: usize,
    scratch: CandidateScratch,
}

impl Default for Ltg {
    fn default() -> Self {
        Self {
            max_candidates: 32,
            scratch: CandidateScratch::new(),
        }
    }
}

impl DispatchPolicy for Ltg {
    fn name(&self) -> String {
        "LTG".into()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let cands = valid_candidates_with(ctx, self.max_candidates, &mut self.scratch);
        // Riders with a candidate by descending revenue (travel cost),
        // ties broken by rider id — a view-order-invariant total order. A
        // rider without one can take no driver, so leaving it out of the
        // ranking changes no assignment.
        let mut order: Vec<(f64, usize)> = cands
            .pairs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(r, _)| {
                let rider = &ctx.riders[r];
                (ctx.travel.travel_time_s(rider.pickup, rider.dropoff), r)
            })
            .collect();
        order.sort_by(|&(revenue_a, a), &(revenue_b, b)| {
            revenue_b
                .partial_cmp(&revenue_a)
                .expect("revenue is finite")
                .then(ctx.riders[a].id.cmp(&ctx.riders[b].id))
        });
        let mut taken = vec![false; ctx.drivers.len()];
        let mut out = Vec::new();
        for (_, r) in order {
            // Candidates are sorted nearest-first.
            if let Some(&(d, _)) = cands.pairs[r].iter().find(|&&(d, _)| !taken[d]) {
                taken[d] = true;
                out.push(Assignment {
                    rider: ctx.riders[r].id,
                    driver: ctx.drivers[d].id,
                    estimated_idle_s: None,
                });
            }
        }
        out
    }
}

/// Nearest-trip greedy: repeatedly matches the globally closest valid
/// (rider, driver) pair — the classical travel-cost-minimizing dispatcher
/// the paper contrasts against (its citations \[24, 27\]).
pub struct Near {
    /// Candidate budget per rider.
    pub max_candidates: usize,
    scratch: CandidateScratch,
}

impl Default for Near {
    fn default() -> Self {
        Self {
            max_candidates: 32,
            scratch: CandidateScratch::new(),
        }
    }
}

impl Near {
    /// This policy's candidate-search counters: radius queries run and
    /// skipped, and exact distances computed (see [`CandidateStats`]).
    pub fn candidate_stats(&self) -> CandidateStats {
        self.scratch.stats()
    }
}

impl DispatchPolicy for Near {
    fn name(&self) -> String {
        "NEAR".into()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let cands = valid_candidates_with(ctx, self.max_candidates, &mut self.scratch);
        let mut edges: Vec<(u64, usize, usize)> = Vec::with_capacity(cands.num_pairs());
        for (r, list) in cands.pairs.iter().enumerate() {
            for &(d, t) in list {
                edges.push((t, r, d));
            }
        }
        // Ties break on (rider id, driver id), not batch slots, so the
        // greedy sweep is invariant to the live views' slot order.
        edges.sort_unstable_by_key(|&(t, r, d)| (t, ctx.riders[r].id, ctx.drivers[d].id));
        let mut rider_taken = vec![false; ctx.riders.len()];
        let mut driver_taken = vec![false; ctx.drivers.len()];
        let mut out = Vec::new();
        for (_, r, d) in edges {
            if rider_taken[r] || driver_taken[d] {
                continue;
            }
            rider_taken[r] = true;
            driver_taken[d] = true;
            out.push(Assignment {
                rider: ctx.riders[r].id,
                driver: ctx.drivers[d].id,
                estimated_idle_s: None,
            });
        }
        out
    }
}

/// Random valid assignment.
pub struct Rand {
    rng: StdRng,
    /// Candidate budget per rider.
    pub max_candidates: usize,
    scratch: CandidateScratch,
}

impl Rand {
    /// A seeded random dispatcher.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            max_candidates: 32,
            scratch: CandidateScratch::new(),
        }
    }
}

impl DispatchPolicy for Rand {
    fn name(&self) -> String {
        "RAND".into()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let cands = valid_candidates_with(ctx, self.max_candidates, &mut self.scratch);
        // Shuffle rider *identities*, not view slots: starting from the
        // id-sorted slot order, the same RNG stream permutes the same
        // rider sequence whatever order the live views hold them in.
        let mut order: Vec<usize> = (0..ctx.riders.len()).collect();
        order.sort_by_key(|&r| ctx.riders[r].id);
        order.shuffle(&mut self.rng);
        let mut taken = vec![false; ctx.drivers.len()];
        let mut out = Vec::new();
        for r in order {
            let free: Vec<usize> = cands.pairs[r]
                .iter()
                .filter(|&&(d, _)| !taken[d])
                .map(|&(d, _)| d)
                .collect();
            if free.is_empty() {
                continue;
            }
            let d = free[self.rng.gen_range(0..free.len())];
            taken[d] = true;
            out.push(Assignment {
                rider: ctx.riders[r].id,
                driver: ctx.drivers[d].id,
                estimated_idle_s: None,
            });
        }
        out
    }

    /// RAND's per-rider shuffle and draw advance the RNG even on batches
    /// that assign nobody, so its output stream depends on the call
    /// count: the engine must keep invoking it every batch while riders
    /// wait, exactly like the paper's literal loop.
    fn invoke_every_batch(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_sim::{AvailableDriver, BatchState, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, Point};

    fn rider(id: u32, pickup: Point, dropoff: Point) -> WaitingRider {
        WaitingRider {
            id: RiderId(id),
            pickup,
            dropoff,
            request_ms: 0,
            deadline_ms: 300_000,
        }
    }

    fn driver(id: u32, pos: Point) -> AvailableDriver {
        AvailableDriver {
            id: DriverId(id),
            pos,
            available_since_ms: 0,
        }
    }

    fn fixture() -> (
        Grid,
        ConstantSpeedModel,
        Vec<WaitingRider>,
        Vec<AvailableDriver>,
    ) {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = vec![
            // Long trip, pickup slightly farther from the drivers.
            rider(0, Point::new(-73.985, 40.752), Point::new(-73.80, 40.90)),
            // Short trip, pickup right on top of driver 0.
            rider(1, Point::new(-73.98, 40.75), Point::new(-73.975, 40.755)),
        ];
        let drivers = vec![driver(0, Point::new(-73.98, 40.75))];
        (grid, travel, riders, drivers)
    }

    #[test]
    fn ltg_takes_the_expensive_order() {
        let (grid, travel, riders, drivers) = fixture();
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let ctx = state.context(0, &travel);
        let out = Ltg::default().assign(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rider, RiderId(0));
    }

    #[test]
    fn near_takes_the_closest_order() {
        let (grid, travel, riders, drivers) = fixture();
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let ctx = state.context(0, &travel);
        let out = Near::default().assign(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rider, RiderId(1));
    }

    #[test]
    fn rand_is_valid_and_seed_deterministic() {
        let (grid, travel, riders, drivers) = fixture();
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let ctx = state.context(0, &travel);
        let a = Rand::new(7).assign(&ctx);
        let b = Rand::new(7).assign(&ctx);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rider, b[0].rider);
        // The assignment must be one of the valid pairs.
        assert!(ctx.is_valid_pair(
            &riders[a[0].rider.0 as usize],
            &drivers[a[0].driver.0 as usize]
        ));
    }

    #[test]
    fn all_baselines_respect_one_driver_one_rider() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders: Vec<WaitingRider> = (0..6)
            .map(|i| {
                rider(
                    i,
                    Point::new(-73.98 + 0.001 * i as f64, 40.75),
                    Point::new(-73.90, 40.80),
                )
            })
            .collect();
        let drivers: Vec<AvailableDriver> = (0..3)
            .map(|i| driver(i, Point::new(-73.979, 40.751)))
            .collect();
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let ctx = state.context(0, &travel);
        for out in [
            Ltg::default().assign(&ctx),
            Near::default().assign(&ctx),
            Rand::new(3).assign(&ctx),
        ] {
            assert_eq!(out.len(), 3, "all drivers should be used");
            let mut riders_used: Vec<u32> = out.iter().map(|a| a.rider.0).collect();
            let mut drivers_used: Vec<u32> = out.iter().map(|a| a.driver.0).collect();
            riders_used.sort_unstable();
            riders_used.dedup();
            drivers_used.sort_unstable();
            drivers_used.dedup();
            assert_eq!(riders_used.len(), 3);
            assert_eq!(drivers_used.len(), 3);
        }
    }
}
