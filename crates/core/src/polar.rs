//! POLAR — the state-of-the-art comparator (Tong et al., "Flexible online
//! task assignment in real-time spatial data", VLDB 2017; the paper's
//! citation \[28\]).
//!
//! The original system is closed-source; this reconstruction follows the
//! published two-phase description the paper summarizes: *"utilizes the
//! predicted number of orders and drivers to conduct an offline bipartite
//! matching first, then uses the offline result as a blueprint to guide
//! the online task matching"*.
//!
//! * **Offline**: for every 30-minute slot, predicted per-region demand is
//!   matched against a per-region supply estimate (drivers follow the
//!   previous slot's demand — the stationary-flow approximation) by a
//!   greedy proximity transport, yielding a flow plan
//!   `F[slot][supply region → demand region]`.
//! * **Online**: each batch scores every valid pair by its revenue,
//!   boosted when the pair consumes remaining blueprint flow between the
//!   driver's and the rider's regions, and matches greedily by score.
//!
//! What this faithfully preserves for the paper's comparison: POLAR is
//! prediction-aware and matching-based but ignores the *destination-side
//! queueing* of drivers — exactly the axis the queueing framework adds.

use std::collections::BTreeMap;

use mrvd_demand::SLOT_MS;
use mrvd_sim::{Assignment, BatchContext, DispatchPolicy};
use mrvd_spatial::Grid;

use crate::candidates::{valid_candidates_with, CandidateScratch};
use crate::oracle::DemandOracle;

/// POLAR parameters.
#[derive(Debug, Clone)]
pub struct PolarConfig {
    /// Candidate budget per rider.
    pub max_candidates: usize,
    /// Multiplicative score boost for blueprint-aligned pairs.
    pub blueprint_bonus: f64,
}

impl Default for PolarConfig {
    fn default() -> Self {
        Self {
            max_candidates: 32,
            blueprint_bonus: 0.5,
        }
    }
}

/// The POLAR policy.
pub struct Polar {
    cfg: PolarConfig,
    oracle_label: &'static str,
    /// Flow plan per slot: `(supply region, demand region) → planned flow`.
    /// Ordered map so every traversal (tests, debugging, future
    /// rebalancing passes) sees region pairs in key order, never hash
    /// order; the policy itself only ever does keyed lookups, so the
    /// switch from `HashMap` is bit-identical by construction.
    blueprint: Vec<BTreeMap<(u32, u32), f64>>,
    /// Remaining flow of the slot currently being executed.
    remaining: BTreeMap<(u32, u32), f64>,
    current_slot: Option<usize>,
    scratch: CandidateScratch,
}

impl Polar {
    /// Builds POLAR: chain-forecasts the whole day through `oracle` and
    /// computes the per-slot blueprint for a fleet of `n_drivers`.
    pub fn new(cfg: PolarConfig, oracle: &DemandOracle, grid: &Grid, n_drivers: usize) -> Self {
        let demand = oracle.full_day_forecast();
        let n = grid.num_regions();
        let by_distance = proximity_order(grid);

        let mut blueprint = Vec::with_capacity(demand.len());
        for slot in 0..demand.len() {
            // Supply: the fleet distributed like the previous slot's
            // demand (slot 0 uses its own demand — the fleet is seeded
            // from historical pickups).
            let supply_src = if slot == 0 {
                &demand[0]
            } else {
                &demand[slot - 1]
            };
            let total: f64 = supply_src.iter().sum();
            let mut supply: Vec<f64> = if total > 0.0 {
                supply_src
                    .iter()
                    .map(|&x| x / total * n_drivers as f64)
                    .collect()
            } else {
                vec![n_drivers as f64 / n as f64; n]
            };
            let mut need: Vec<f64> = demand[slot].clone();
            // Greedy proximity transport.
            let mut flows = BTreeMap::new();
            for &(_, k, j) in &by_distance {
                let f = supply[k as usize].min(need[j as usize]);
                if f > 1e-9 {
                    supply[k as usize] -= f;
                    need[j as usize] -= f;
                    flows.insert((k, j), f);
                }
            }
            blueprint.push(flows);
        }
        Self {
            cfg,
            oracle_label: oracle.label(),
            blueprint,
            remaining: BTreeMap::new(),
            current_slot: None,
            scratch: CandidateScratch::new(),
        }
    }

    fn roll_slot(&mut self, now_ms: u64) {
        let slot = ((now_ms / SLOT_MS) as usize).min(self.blueprint.len().saturating_sub(1));
        if self.current_slot != Some(slot) {
            self.current_slot = Some(slot);
            self.remaining = self.blueprint[slot].clone();
        }
    }
}

/// Every region pair `(distance, k, j)`, by ascending center distance
/// from `k` to `j`, ties by `(k, j)`. The distances are read a row per
/// region `k` from one [`Grid::center_table`].
fn proximity_order(grid: &Grid) -> Vec<(f64, u32, u32)> {
    let n = grid.num_regions();
    let distances = grid.center_table(|d| d);
    let mut by_distance = Vec::with_capacity(n * n);
    let mut row = Vec::with_capacity(n);
    for k in grid.regions() {
        distances.row_into(k, &mut row);
        by_distance.extend(row.iter().zip(0u32..).map(|(&d, j)| (d, k.0, j)));
    }
    // (k, j) is unique, so the order is total and an unstable sort gives
    // the one order a stable sort would.
    by_distance.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("distances are finite")
            .then((a.1, a.2).cmp(&(b.1, b.2)))
    });
    by_distance
}

impl DispatchPolicy for Polar {
    fn name(&self) -> String {
        format!("POLAR-{}", self.oracle_label)
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        self.roll_slot(ctx.now_ms);
        let cands = valid_candidates_with(ctx, self.cfg.max_candidates, &mut self.scratch);
        // Score every valid pair.
        struct Scored {
            score: f64,
            rider: usize,
            driver: usize,
            key: (u32, u32),
        }
        let mut edges: Vec<Scored> = Vec::with_capacity(cands.num_pairs());
        for (r, list) in cands.pairs.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let rider = &ctx.riders[r];
            let revenue = ctx.travel.travel_time_s(rider.pickup, rider.dropoff);
            let rider_region = ctx.grid.region_of(rider.pickup).0;
            for &(d, _) in list {
                let driver_region = ctx.grid.region_of(ctx.drivers[d].pos).0;
                let key = (driver_region, rider_region);
                let aligned = self.remaining.get(&key).copied().unwrap_or(0.0) > 0.0;
                let score = revenue
                    * (1.0
                        + if aligned {
                            self.cfg.blueprint_bonus
                        } else {
                            0.0
                        });
                edges.push(Scored {
                    score,
                    rider: r,
                    driver: d,
                    key,
                });
            }
        }
        // Ties break on stable (rider id, driver id), not view slots, so
        // the greedy sweep is invariant to the live views' slot order.
        let edge_id = |e: &Scored| (ctx.riders[e.rider].id, ctx.drivers[e.driver].id);
        edges.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(edge_id(a).cmp(&edge_id(b)))
        });
        let mut rider_taken = vec![false; ctx.riders.len()];
        let mut driver_taken = vec![false; ctx.drivers.len()];
        let mut out = Vec::new();
        for e in edges {
            if rider_taken[e.rider] || driver_taken[e.driver] {
                continue;
            }
            rider_taken[e.rider] = true;
            driver_taken[e.driver] = true;
            if let Some(f) = self.remaining.get_mut(&e.key) {
                *f = (*f - 1.0).max(0.0);
            }
            out.push(Assignment {
                rider: ctx.riders[e.rider].id,
                driver: ctx.drivers[e.driver].id,
                estimated_idle_s: None,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_demand::DemandSeries;
    use mrvd_sim::{AvailableDriver, BatchState, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Point, RegionId};

    fn oracle(grid: &Grid) -> DemandOracle {
        let hot = grid.region_of(Point::new(-73.985, 40.755)).idx();
        let series =
            DemandSeries::from_fn(
                1,
                48,
                grid.num_regions(),
                |_, _, r| {
                    if r == hot {
                        20.0
                    } else {
                        0.5
                    }
                },
            );
        DemandOracle::real(series, 0)
    }

    #[test]
    fn blueprint_flow_conserves_supply() {
        let grid = Grid::nyc_16x16();
        let polar = Polar::new(PolarConfig::default(), &oracle(&grid), &grid, 100);
        for (slot, flows) in polar.blueprint.iter().enumerate() {
            let total: f64 = flows.values().sum();
            assert!(
                total <= 100.0 + 1e-6,
                "slot {slot}: blueprint flow {total} exceeds the fleet"
            );
            assert!(flows.values().all(|&f| f > 0.0));
        }
    }

    #[test]
    fn assigns_valid_pairs_and_prefers_revenue() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let riders = vec![
            WaitingRider {
                id: RiderId(0),
                pickup: Point::new(-73.985, 40.752),
                dropoff: Point::new(-73.80, 40.90), // long
                request_ms: 0,
                deadline_ms: 300_000,
            },
            WaitingRider {
                id: RiderId(1),
                pickup: Point::new(-73.985, 40.752),
                dropoff: Point::new(-73.983, 40.754), // short
                request_ms: 0,
                deadline_ms: 300_000,
            },
        ];
        let drivers = vec![AvailableDriver {
            id: DriverId(0),
            pos: Point::new(-73.985, 40.752),
            available_since_ms: 0,
        }];
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let ctx = state.context(0, &travel);
        let mut polar = Polar::new(PolarConfig::default(), &oracle(&grid), &grid, 1);
        let out = polar.assign(&ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rider, RiderId(0), "revenue-dominant pair wins");
    }

    #[test]
    fn blueprint_flow_is_consumed() {
        let grid = Grid::nyc_16x16();
        let mut polar = Polar::new(PolarConfig::default(), &oracle(&grid), &grid, 50);
        polar.roll_slot(0);
        let before: f64 = polar.remaining.values().sum();
        // Simulate consuming one aligned pair manually.
        let key = *polar.remaining.keys().next().expect("non-empty blueprint");
        if let Some(f) = polar.remaining.get_mut(&key) {
            *f = (*f - 1.0).max(0.0);
        }
        let after: f64 = polar.remaining.values().sum();
        assert!(after < before);
        // Rolling to a new slot refreshes the budget.
        polar.roll_slot(SLOT_MS);
        assert_eq!(polar.current_slot, Some(1));
    }

    /// The original proximity sort: a stable sort whose comparator
    /// computes both pairs' haversines on every comparison.
    fn reference_proximity_order(grid: &Grid) -> Vec<(u32, u32)> {
        let n = grid.num_regions();
        let mut by_distance: Vec<(u32, u32)> = Vec::with_capacity(n * n);
        for k in 0..n as u32 {
            for j in 0..n as u32 {
                by_distance.push((k, j));
            }
        }
        let dist = |k: u32, j: u32| {
            grid.center(RegionId(k))
                .distance_m(&grid.center(RegionId(j)))
        };
        by_distance.sort_by(|&(a, b), &(c, d)| {
            dist(a, b)
                .partial_cmp(&dist(c, d))
                .expect("distances are finite")
                .then((a, b).cmp(&(c, d)))
        });
        by_distance
    }

    #[test]
    fn proximity_order_matches_the_pairwise_comparator() {
        for (cols, rows) in [(16, 16), (7, 3)] {
            let nyc = Grid::nyc_16x16();
            let grid = Grid::new(nyc.min(), nyc.max(), cols, rows);
            let order: Vec<(u32, u32)> = proximity_order(&grid)
                .into_iter()
                .map(|(_, k, j)| (k, j))
                .collect();
            assert_eq!(order, reference_proximity_order(&grid), "{cols}x{rows}");
        }
    }

    /// Transcription of the pre-BTreeMap blueprint construction, kept
    /// verbatim on `std::collections::HashMap`: the greedy transport
    /// iterates `by_distance` (a Vec), so insertion order — not map
    /// order — drives the arithmetic, and the switch of map type must
    /// be bit-identical per key.
    #[expect(
        clippy::disallowed_types,
        reason = "the reference keeps the map type the BTreeMap blueprint is checked against"
    )]
    fn hashmap_reference_blueprint(
        oracle: &DemandOracle,
        grid: &Grid,
        n_drivers: usize,
    ) -> Vec<std::collections::HashMap<(u32, u32), f64>> {
        let demand = oracle.full_day_forecast();
        let n = grid.num_regions();
        let by_distance = reference_proximity_order(grid);
        let mut blueprint = Vec::with_capacity(demand.len());
        for slot in 0..demand.len() {
            let supply_src = if slot == 0 {
                &demand[0]
            } else {
                &demand[slot - 1]
            };
            let total: f64 = supply_src.iter().sum();
            let mut supply: Vec<f64> = if total > 0.0 {
                supply_src
                    .iter()
                    .map(|&x| x / total * n_drivers as f64)
                    .collect()
            } else {
                vec![n_drivers as f64 / n as f64; n]
            };
            let mut need: Vec<f64> = demand[slot].clone();
            let mut flows = std::collections::HashMap::new();
            for &(k, j) in &by_distance {
                let f = supply[k as usize].min(need[j as usize]);
                if f > 1e-9 {
                    supply[k as usize] -= f;
                    need[j as usize] -= f;
                    flows.insert((k, j), f);
                }
            }
            blueprint.push(flows);
        }
        blueprint
    }

    #[test]
    fn btreemap_blueprint_is_bit_identical_to_hashmap_reference() {
        let grid = Grid::nyc_16x16();
        let oracle = oracle(&grid);
        let polar = Polar::new(PolarConfig::default(), &oracle, &grid, 100);
        let reference = hashmap_reference_blueprint(&oracle, &grid, 100);
        assert_eq!(polar.blueprint.len(), reference.len());
        for (slot, (live, refr)) in polar.blueprint.iter().zip(&reference).enumerate() {
            assert_eq!(live.len(), refr.len(), "slot {slot}: key count differs");
            for (key, &flow) in live {
                let expected = refr
                    .get(key)
                    .unwrap_or_else(|| panic!("slot {slot}: key {key:?} missing in reference"));
                assert_eq!(
                    flow.to_bits(),
                    expected.to_bits(),
                    "slot {slot}: flow for {key:?} differs"
                );
            }
        }
    }

    #[test]
    fn name_reflects_oracle() {
        let grid = Grid::nyc_16x16();
        let polar = Polar::new(PolarConfig::default(), &oracle(&grid), &grid, 10);
        assert_eq!(polar.name(), "POLAR-R");
    }
}
