//! The queueing-based dispatching algorithms of §5 and Appendix C.
//!
//! One implementation hosts all three published variants:
//!
//! * **IRG** — idle-ratio-oriented greedy (Algorithm 2): sort all valid
//!   pairs by `IR = ET/(cost + ET)` (Eq. 17), repeatedly take the
//!   smallest, and after each selection bump the rejoin rate μ of the
//!   rider's destination region (line 11) so later selections see the
//!   updated expected idle time.
//! * **LS** — local search (Algorithm 3): start from the IRG result and
//!   keep replacing a driver's rider with an unassigned valid rider of
//!   strictly smaller idle ratio until a fixed point (convergence proven
//!   in the paper's Lemma 5.1; a sweep cap guards against floating-point
//!   livelock).
//! * **SHORT** — the Appendix C variant for maximizing the number of
//!   served orders: identical machinery with priority `cost + ET`
//!   instead of the ratio.
//!
//! The "current smallest" selection uses a lazy heap with per-region
//! version stamps: entries whose destination region changed since they
//! were pushed are re-keyed instead of trusted, which reproduces the
//! paper's re-sorting semantics in `O(P log P)` per batch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mrvd_sim::{Assignment, BatchContext, DispatchPolicy};

use crate::candidates::{valid_candidates_with, CandidateScratch, CandidateStats};
use crate::config::DispatchConfig;
use crate::oracle::DemandOracle;
use crate::rate_tracker::{RateTracker, RateTrackerStats};
use crate::rates::{estimate_rates, idle_ratio};

/// Whether to refine the greedy result with local search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Algorithm 2 only.
    Greedy,
    /// Algorithm 3 on top, with a sweep cap.
    LocalSearch {
        /// Maximum full sweeps over the assignment set.
        max_sweeps: usize,
    },
}

/// The pair-priority rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityRule {
    /// `IR = ET / (cost + ET)` (Eq. 17) — revenue objective.
    IdleRatio,
    /// `cost + ET` (Appendix C) — served-orders objective.
    TotalTime,
}

impl PriorityRule {
    /// A pair's priority from its trip cost and its destination's idle
    /// time; smaller is better.
    fn key(self, cost_s: f64, et_s: f64) -> f64 {
        match self {
            PriorityRule::IdleRatio => idle_ratio(cost_s, et_s),
            PriorityRule::TotalTime => cost_s + et_s,
        }
    }
}

/// A greedy heap entry: (key, pickup travel ms, rider id, driver id,
/// rider slot, driver slot, destination version).
type Entry = Reverse<(OrdF64, u64, u32, u32, usize, usize, u32)>;

/// One waiting rider's state within a batch, indexed by its view slot.
#[derive(Debug, Clone, Copy)]
struct BatchRider {
    /// Trip cost in seconds.
    cost_s: f64,
    /// Destination region.
    dest: usize,
    /// Slot of the driver assigned to it, or `usize::MAX`.
    driver: usize,
}

impl BatchRider {
    /// Before the batch looks at the rider. Cost and destination are
    /// filled for riders with a candidate only: nothing reads another
    /// rider's, and the placeholders fail loudly if that ever changes (a
    /// NaN key panics in `OrdF64`, `usize::MAX` indexes out of bounds).
    const UNSEEN: Self = Self {
        cost_s: f64::NAN,
        dest: usize::MAX,
        driver: usize::MAX,
    };
}

/// The queueing-theoretic dispatch policy (IRG / LS / SHORT).
pub struct QueueingPolicy {
    cfg: DispatchConfig,
    oracle: DemandOracle,
    mode: SearchMode,
    rule: PriorityRule,
    scratch: CandidateScratch,
    /// Lazy rate state, reused across batches (the per-batch λ/μ/K/ET
    /// entries live here — nothing is cloned per batch).
    tracker: RateTracker,
    /// Reused buffer for the oracle's `|R̂_k|` window counts, filled
    /// densely by the reference-rates path only; the hot path reads
    /// single regions through [`DemandOracle::upcoming_region`].
    upcoming: Vec<f64>,
    /// Reused per-region version stamps for the lazy greedy heap.
    /// Invariant between batches: all zero — `version_touched` undoes
    /// every bump at the end of a batch, so no per-batch
    /// O(num_regions) clear is needed.
    version: Vec<u32>,
    /// Destination regions whose version stamp the current batch bumped.
    version_touched: Vec<u32>,
    /// The greedy's lazy heap; every batch drains it.
    heap: BinaryHeap<Entry>,
    /// Per-rider batch state, rebuilt at the top of each batch.
    riders: Vec<BatchRider>,
    /// The rider slot each driver slot holds, or `usize::MAX`.
    /// Invariant between batches: all `usize::MAX` — the batch resets
    /// the entries of the drivers it assigned, so no per-batch
    /// O(fleet) clear is needed.
    rider_of_driver: Vec<usize>,
}

impl QueueingPolicy {
    /// General constructor.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        cfg: DispatchConfig,
        oracle: DemandOracle,
        mode: SearchMode,
        rule: PriorityRule,
    ) -> Self {
        cfg.validate();
        Self {
            cfg,
            oracle,
            mode,
            rule,
            scratch: CandidateScratch::new(),
            tracker: RateTracker::new(),
            upcoming: Vec::new(),
            version: Vec::new(),
            version_touched: Vec::new(),
            heap: BinaryHeap::new(),
            riders: Vec::new(),
            rider_of_driver: Vec::new(),
        }
    }

    /// IRG (Algorithm 2).
    pub fn irg(cfg: DispatchConfig, oracle: DemandOracle) -> Self {
        Self::new(cfg, oracle, SearchMode::Greedy, PriorityRule::IdleRatio)
    }

    /// LS (Algorithm 3, seeded by IRG) with the default sweep cap of 16.
    pub fn ls(cfg: DispatchConfig, oracle: DemandOracle) -> Self {
        Self::new(
            cfg,
            oracle,
            SearchMode::LocalSearch { max_sweeps: 16 },
            PriorityRule::IdleRatio,
        )
    }

    /// SHORT (Appendix C): greedy on `cost + ET`.
    pub fn short(cfg: DispatchConfig, oracle: DemandOracle) -> Self {
        Self::new(cfg, oracle, SearchMode::Greedy, PriorityRule::TotalTime)
    }

    /// The rate tracker's lifetime counters — how many batches it
    /// prepared, and how many regions and idle-time solves the lazy path
    /// actually computed (vs. every region per batch eagerly).
    pub fn rate_stats(&self) -> RateTrackerStats {
        self.tracker.stats()
    }

    /// The candidate search's lifetime counters: radius queries run, and
    /// queries skipped because their remembered empty answer still held.
    pub fn candidate_stats(&self) -> CandidateStats {
        self.scratch.stats()
    }
}

/// Total order for finite keys in the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("keys are never NaN")
    }
}

impl DispatchPolicy for QueueingPolicy {
    fn name(&self) -> String {
        let algo = match (self.mode, self.rule) {
            (SearchMode::Greedy, PriorityRule::IdleRatio) => "IRG",
            (SearchMode::LocalSearch { .. }, PriorityRule::IdleRatio) => "LS",
            (SearchMode::Greedy, PriorityRule::TotalTime) => "SHORT",
            (SearchMode::LocalSearch { .. }, PriorityRule::TotalTime) => "SHORT-LS",
        };
        let ablation = if self.cfg.uniform_et {
            " (uniform ET)"
        } else {
            ""
        };
        format!("{algo}-{}{ablation}", self.oracle.label())
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let n_riders = ctx.riders.len();
        let n_drivers = ctx.drivers.len();
        if n_riders == 0 || n_drivers == 0 {
            return Vec::new();
        }
        // Algorithm 1, lines 3–6: region state and rates — computed
        // lazily, region by region, at the candidate destinations below
        // by default; the verbatim eager estimator over a dense oracle
        // buffer loads every region under `reference_rates`
        // (byte-identical outputs; the equivalence batteries pin it).
        // Either way the per-batch state lives in policy/tracker-owned
        // buffers reused across batches.
        if self.cfg.reference_rates {
            self.oracle
                .upcoming_riders_into(ctx.now_ms, self.cfg.tc_ms, &mut self.upcoming);
            let est = estimate_rates(ctx, &self.upcoming, &self.cfg);
            let ets = est.expected_idle_times(&self.cfg);
            self.tracker.load_reference(&est, &ets);
        } else {
            self.tracker
                .begin_batch(ctx.grid.num_regions(), ctx.now_ms, &self.cfg);
        }

        // Valid pairs (Algorithm 2, lines 3–5).
        let cands = valid_candidates_with(ctx, self.cfg.max_candidates, &mut self.scratch);
        let rule = self.rule;
        self.riders.clear();
        self.riders.resize(n_riders, BatchRider::UNSEEN);
        if self.rider_of_driver.len() < n_drivers {
            self.rider_of_driver.resize(n_drivers, usize::MAX);
        }
        debug_assert!(
            self.rider_of_driver.iter().all(|&r| r == usize::MAX),
            "driver slots must hold no rider between batches"
        );

        // Greedy selection with a lazy re-keyed heap (lines 7–12). Ties
        // break on the stable *ids*, not the view slots, so the selection
        // order — and with it every downstream μ-bump — is invariant to
        // the live views' slot order. (At most one live entry exists per
        // (rider, driver) pair: each is pushed once up front, and a stale
        // entry is popped before its re-keyed copy is pushed, so the id
        // tie-break is a total order.)
        if self.version.len() != ctx.grid.num_regions() {
            self.version.clear();
            self.version.resize(ctx.grid.num_regions(), 0);
        }
        debug_assert!(
            self.version.iter().all(|&v| v == 0),
            "version stamps must be zero between batches"
        );
        for (r, cand) in cands.pairs.iter().enumerate() {
            if cand.is_empty() {
                // No pair to key — and no reason to cost this trip or to
                // estimate its destination's rates.
                continue;
            }
            let rider = &ctx.riders[r];
            let dest = ctx.grid.region_of(rider.dropoff).idx();
            let cost_s = ctx.travel.travel_time_s(rider.pickup, rider.dropoff);
            self.riders[r].cost_s = cost_s;
            self.riders[r].dest = dest;
            // The only regions this batch reads: every later idle-time
            // read or μ-bump lands on the destination of a rider with a
            // candidate, all filled here before the first bump. (A
            // reference load has already stamped every region, so this
            // is a no-op then.)
            self.tracker.fill(dest, ctx.region_counts, || {
                self.oracle
                    .upcoming_region(ctx.now_ms, self.cfg.tc_ms, dest)
            });
            let key = OrdF64(rule.key(cost_s, self.tracker.et(dest, &self.cfg)));
            for &(d, pickup_ms) in cand {
                let did = ctx.drivers[d].id.0;
                let ver = self.version[dest];
                self.heap
                    .push(Reverse((key, pickup_ms, rider.id.0, did, r, d, ver)));
            }
        }
        while let Some(Reverse((_, pickup_ms, rid, did, r, d, ver))) = self.heap.pop() {
            if self.riders[r].driver != usize::MAX || self.rider_of_driver[d] != usize::MAX {
                continue;
            }
            let BatchRider { cost_s, dest, .. } = self.riders[r];
            if ver != self.version[dest] {
                // Stale: re-key against the current expected idle time.
                let key = OrdF64(rule.key(cost_s, self.tracker.et(dest, &self.cfg)));
                let ver = self.version[dest];
                self.heap
                    .push(Reverse((key, pickup_ms, rid, did, r, d, ver)));
                continue;
            }
            self.riders[r].driver = d;
            self.rider_of_driver[d] = r;
            // Line 11: the driver will rejoin at the destination — bump μ.
            self.tracker.bump_mu(dest, &self.cfg);
            self.version[dest] = self.version[dest].wrapping_add(1);
            self.version_touched.push(dest as u32);
        }
        // Restore the all-zero invariant without an O(num_regions)
        // clear: only bumped destinations moved off zero.
        for k in self.version_touched.drain(..) {
            self.version[k as usize] = 0;
        }

        // Local search refinement (Algorithm 3). Only a driver the greedy
        // assigned can swap, and a swap changes which rider it holds,
        // never whether it holds one: the sweep visits those drivers in
        // id order, each with the riders it is a candidate for (listed
        // under the rider the greedy gave it, in slot order). Each
        // replacement is an explicit (key, rider id) minimum, so the
        // refinement — like the greedy phase — does not depend on the
        // views' slot order.
        if let SearchMode::LocalSearch { max_sweeps } = self.mode {
            let mut sweep: Vec<(usize, usize)> = (0..n_riders)
                .filter(|&r| self.riders[r].driver != usize::MAX)
                .map(|r| (self.riders[r].driver, r))
                .collect();
            sweep.sort_by_key(|&(d, _)| ctx.drivers[d].id);
            let mut riders_of: Vec<Vec<usize>> = vec![Vec::new(); n_riders];
            for (r, cand) in cands.pairs.iter().enumerate() {
                for &(d, _) in cand {
                    let greedy_rider = self.rider_of_driver[d];
                    if greedy_rider != usize::MAX {
                        riders_of[greedy_rider].push(r);
                    }
                }
            }
            for _sweep in 0..max_sweeps {
                let mut changed = false;
                for &(d, greedy_rider) in &sweep {
                    let cur = self.rider_of_driver[d];
                    let cur_et = self.tracker.et(self.riders[cur].dest, &self.cfg);
                    let cur_key = rule.key(self.riders[cur].cost_s, cur_et);
                    // Best strict improvement among unassigned valid riders.
                    let mut best: Option<(usize, f64)> = None;
                    for &r2 in &riders_of[greedy_rider] {
                        let BatchRider {
                            cost_s,
                            dest,
                            driver,
                        } = self.riders[r2];
                        if driver != usize::MAX {
                            continue;
                        }
                        let k2 = rule.key(cost_s, self.tracker.et(dest, &self.cfg));
                        let better = match best {
                            None => k2 < cur_key - 1e-12,
                            Some((br, bk)) => {
                                k2 < cur_key - 1e-12
                                    && (k2, ctx.riders[r2].id) < (bk, ctx.riders[br].id)
                            }
                        };
                        if better {
                            best = Some((r2, k2));
                        }
                    }
                    if let Some((r2, _)) = best {
                        // Swap: free `cur`, take `r2`; move one future
                        // rejoin from dest(cur) to dest(r2).
                        self.riders[cur].driver = usize::MAX;
                        self.riders[r2].driver = d;
                        self.rider_of_driver[d] = r2;
                        let (from, to) = (self.riders[cur].dest, self.riders[r2].dest);
                        self.tracker.unbump_mu(from, &self.cfg);
                        self.tracker.bump_mu(to, &self.cfg);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Emit assignments with the final idle-time estimates (Table 3),
        // in rider-id order — canonical whatever order the views hold —
        // and free the driver slots this batch took.
        let mut out = Vec::new();
        for (r, rider) in self.riders.iter().enumerate() {
            if rider.driver == usize::MAX {
                continue;
            }
            self.rider_of_driver[rider.driver] = usize::MAX;
            out.push(Assignment {
                rider: ctx.riders[r].id,
                driver: ctx.drivers[rider.driver].id,
                estimated_idle_s: Some(self.tracker.et(rider.dest, &self.cfg)),
            });
        }
        out.sort_by_key(|a| a.rider);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::et_for;
    use mrvd_demand::DemandSeries;
    use mrvd_sim::{AvailableDriver, BatchState, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, Point, TravelModel};

    /// Two probe regions with controllable upcoming demand.
    const HOT: Point = Point::new(-73.985, 40.755);
    const COLD: Point = Point::new(-73.80, 40.90);

    /// A single-day series with `hot_count` upcoming riders in the HOT
    /// region and zero elsewhere, for every slot.
    fn oracle_with_hot(grid: &Grid, hot_count: f64) -> DemandOracle {
        let hot_idx = grid.region_of(HOT).idx();
        let series = DemandSeries::from_fn(1, 48, grid.num_regions(), |_, _, r| {
            if r == hot_idx {
                hot_count
            } else {
                0.0
            }
        });
        DemandOracle::real(series, 0)
    }

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

    fn state(grid: &Grid, riders: &[WaitingRider], drivers: &[AvailableDriver]) -> BatchState {
        BatchState::new(grid, riders, drivers, &[])
    }

    #[test]
    fn prefers_the_hot_destination_at_equal_cost() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let base = Point::new(-73.92, 40.80);
        // Two riders with (almost) equal travel cost; one ends HOT, one
        // ends COLD. One driver.
        let to_hot = rider(0, base, HOT);
        let to_cold = rider(1, base, COLD);
        let riders = [to_hot, to_cold];
        let drivers = [driver(0, base)];
        let mut policy =
            QueueingPolicy::irg(DispatchConfig::default(), oracle_with_hot(&grid, 50.0));
        let out = policy.assign(&state(&grid, &riders, &drivers).context(0, &travel));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].rider,
            RiderId(0),
            "should pick the hot-destination rider"
        );
        assert!(out[0].estimated_idle_s.is_some());
    }

    #[test]
    fn prefers_longer_trips_to_the_same_destination() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let near_base = Point::new(-73.99, 40.76);
        let far_base = Point::new(-74.02, 40.60);
        // Both riders end HOT; the far one has a much higher travel cost.
        // Deadlines are generous so one driver can reach either pickup.
        let mut short_trip = rider(0, near_base, HOT);
        let mut long_trip = rider(1, far_base, HOT);
        short_trip.deadline_ms = 1_500_000;
        long_trip.deadline_ms = 1_500_000;
        let riders = [short_trip, long_trip];
        let drivers = [driver(0, Point::new(-74.0, 40.7))];
        let mut policy =
            QueueingPolicy::irg(DispatchConfig::default(), oracle_with_hot(&grid, 5.0));
        let out = policy.assign(&state(&grid, &riders, &drivers).context(0, &travel));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].rider,
            RiderId(1),
            "should pick the long trip (rule a)"
        );
    }

    #[test]
    fn short_rule_prefers_cheap_trips_instead() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let near_base = Point::new(-73.99, 40.76);
        let far_base = Point::new(-74.02, 40.60);
        let mut short_trip = rider(0, near_base, HOT);
        let mut long_trip = rider(1, far_base, HOT);
        short_trip.deadline_ms = 1_500_000;
        long_trip.deadline_ms = 1_500_000;
        let riders = [short_trip, long_trip];
        let drivers = [driver(0, Point::new(-74.0, 40.7))];
        let mut policy =
            QueueingPolicy::short(DispatchConfig::default(), oracle_with_hot(&grid, 5.0));
        let out = policy.assign(&state(&grid, &riders, &drivers).context(0, &travel));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].rider,
            RiderId(0),
            "SHORT minimizes cost + ET, so the short trip wins"
        );
    }

    #[test]
    fn uniform_et_ablation_ignores_destination_hotness() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let base = Point::new(-73.92, 40.80);
        // Hot-destination rider is (slightly) farther from the driver, so
        // with hotness silenced the tie must break toward… both riders
        // have equal cost and equal (uniform) ET; the heap then orders by
        // pickup time, favouring the rider whose pickup is nearer.
        let to_hot = rider(0, Point::new(-73.921, 40.801), HOT);
        let to_cold = rider(1, base, COLD);
        // Costs differ slightly; make them effectively equal by putting
        // both pickups at the same place and dropoffs symmetric: instead
        // simply check the *estimates* are flat.
        let riders = [to_hot, to_cold];
        let drivers = [driver(0, base)];
        let cfg = DispatchConfig {
            uniform_et: true,
            ..DispatchConfig::default()
        };
        let mut policy = QueueingPolicy::irg(cfg.clone(), oracle_with_hot(&grid, 500.0));
        let out = policy.assign(&state(&grid, &riders, &drivers).context(0, &travel));
        assert_eq!(out.len(), 1);
        // Uniform-ET estimate is the constant t_c / 2.
        assert_eq!(out[0].estimated_idle_s, Some(cfg.tc_s() / 2.0));
    }

    #[test]
    fn ls_reaches_a_local_optimum() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // A crowd of riders and a few drivers around Midtown.
        let mut riders = Vec::new();
        for i in 0..12u32 {
            let pickup = Point::new(
                -73.98 + 0.002 * (i % 4) as f64,
                40.75 + 0.002 * (i / 4) as f64,
            );
            let dropoff = if i % 3 == 0 { HOT } else { COLD };
            riders.push(rider(i, pickup, dropoff));
        }
        let drivers: Vec<AvailableDriver> = (0..4u32)
            .map(|i| driver(i, Point::new(-73.979 + 0.001 * i as f64, 40.751)))
            .collect();
        let cfg = DispatchConfig::default();
        let oracle = oracle_with_hot(&grid, 30.0);
        let mut policy = QueueingPolicy::ls(cfg.clone(), oracle);
        let s = state(&grid, &riders, &drivers);
        let c = s.context(0, &travel);
        let out = policy.assign(&c);
        assert!(!out.is_empty());
        // Recompute the final region state exactly as the policy would,
        // then verify no unassigned valid rider strictly improves any
        // driver's idle ratio — the fixed-point property of Algorithm 3.
        let oracle = oracle_with_hot(&grid, 30.0);
        let upcoming = oracle.upcoming_riders(0, cfg.tc_ms);
        let est = estimate_rates(&c, &upcoming, &cfg);
        let tc_s = cfg.tc_s();
        let mut mu = est.mu.clone();
        let mut cap = est.capacity_k.clone();
        let assigned: std::collections::HashMap<u32, u32> =
            out.iter().map(|a| (a.driver.0, a.rider.0)).collect();
        let taken: std::collections::HashSet<u32> = out.iter().map(|a| a.rider.0).collect();
        let dest = |r: &WaitingRider| grid.region_of(r.dropoff).idx();
        for a in &out {
            let r = &riders[a.rider.0 as usize];
            let k = dest(r);
            mu[k] += 1.0 / tc_s;
            cap[k] += 1;
        }
        let et: Vec<f64> = (0..grid.num_regions())
            .map(|k| et_for(est.lambda[k], mu[k], cap[k], cfg.beta, tc_s))
            .collect();
        let cost = |r: &WaitingRider| travel.travel_time_s(r.pickup, r.dropoff);
        for (&d, &r_cur) in &assigned {
            let cur = &riders[r_cur as usize];
            let cur_ir = idle_ratio(cost(cur), et[dest(cur)]);
            for r2 in &riders {
                if taken.contains(&r2.id.0) {
                    continue;
                }
                if !c.is_valid_pair(r2, &drivers[d as usize]) {
                    continue;
                }
                let ir2 = idle_ratio(cost(r2), et[dest(r2)]);
                assert!(
                    ir2 >= cur_ir - 1e-9,
                    "driver {d}: unassigned rider {} has IR {ir2} < current {cur_ir}",
                    r2.id
                );
            }
        }
    }

    #[test]
    fn respects_candidate_validity() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // Rider with a tight deadline; only the near driver qualifies.
        let mut r = rider(0, Point::new(-73.98, 40.75), HOT);
        r.deadline_ms = 30_000;
        let riders = [r];
        let drivers = [
            driver(0, Point::new(-74.02, 40.60)),   // far
            driver(1, Point::new(-73.981, 40.751)), // near
        ];
        let mut policy =
            QueueingPolicy::irg(DispatchConfig::default(), oracle_with_hot(&grid, 5.0));
        let out = policy.assign(&state(&grid, &riders, &drivers).context(0, &travel));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].driver, DriverId(1));
    }

    #[test]
    fn fills_only_the_destinations_of_riders_with_candidates() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        // Rider 0 stands next to the driver; rider 1 is ~17 km away with
        // 30 s to go, so it has no candidate. The pickups are occupied
        // regions and HOT carries demand, but the batch reads one region:
        // rider 0's destination.
        let near = rider(0, Point::new(-73.98, 40.75), HOT);
        let mut far = rider(1, Point::new(-74.02, 40.60), COLD);
        far.deadline_ms = 30_000;
        let riders = [near, far];
        let drivers = [driver(0, Point::new(-73.981, 40.751))];
        let mut policy =
            QueueingPolicy::irg(DispatchConfig::default(), oracle_with_hot(&grid, 5.0));
        let out = policy.assign(&state(&grid, &riders, &drivers).context(0, &travel));
        assert_eq!(out.len(), 1);
        let stats = policy.rate_stats();
        assert_eq!((stats.batches, stats.regions_filled), (1, 1));
    }

    #[test]
    fn empty_batches_return_empty() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::new(8.0);
        let mut policy =
            QueueingPolicy::irg(DispatchConfig::default(), oracle_with_hot(&grid, 5.0));
        assert!(policy
            .assign(&state(&grid, &[], &[]).context(0, &travel))
            .is_empty());
        let drivers = [driver(0, HOT)];
        assert!(policy
            .assign(&state(&grid, &[], &drivers).context(0, &travel))
            .is_empty());
    }

    #[test]
    fn names_encode_variant_and_oracle() {
        let grid = Grid::nyc_16x16();
        let mk = |mode, rule| {
            QueueingPolicy::new(
                DispatchConfig::default(),
                oracle_with_hot(&grid, 1.0),
                mode,
                rule,
            )
        };
        assert_eq!(
            mk(SearchMode::Greedy, PriorityRule::IdleRatio).name(),
            "IRG-R"
        );
        assert_eq!(
            mk(
                SearchMode::LocalSearch { max_sweeps: 4 },
                PriorityRule::IdleRatio
            )
            .name(),
            "LS-R"
        );
        assert_eq!(
            mk(SearchMode::Greedy, PriorityRule::TotalTime).name(),
            "SHORT-R"
        );
    }
}
