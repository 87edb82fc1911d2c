//! Lazy per-region rate estimation for the dispatch hot path.
//!
//! The paper scores a pair by the expected idle time ET of the rider's
//! destination region (Algorithm 2, Eq. 17), and each region is an
//! independent double-sided queue: ET_k depends only on region k's
//! λ/μ/K (Eqs. 18–19), which depend only on k's counts and its predicted
//! arrivals. A batch therefore needs rates only where it looks — the
//! destinations of its candidate pairs — and the [`RateTracker`]
//! computes nothing else:
//!
//! * [`RateTracker::begin_batch`] only opens a new epoch. It writes no
//!   region: every entry carries the epoch that filled it, and an entry
//!   from an older epoch is stale.
//! * [`RateTracker::fill`] computes one region, at most once per batch:
//!   its counts from the batch's [`RegionCounts`] (the rejoining-in-window
//!   count is two binary searches), its window demand from a caller
//!   closure (the policy passes
//!   [`DemandOracle::upcoming_region`](crate::DemandOracle::upcoming_region)),
//!   and λ/μ/K through the shared [`region_rates`] formula — so a filled
//!   region is bit-identical to the reference estimator by construction.
//! * [`RateTracker::et`] solves the region's reneging queue (Eqs.
//!   10/13/16) on first read and caches it for the batch;
//!   [`RateTracker::bump_mu`] / [`RateTracker::unbump_mu`] apply
//!   Algorithm 2's μ-bumps and re-solve.
//!
//! One rule covers every read — `et`, the bumps and
//! [`RateTracker::region`]: a region nothing filled this batch reads as
//! the all-zero baseline `(0, 0, 0, +0.0, +0.0, K = 0)`, exactly what
//! [`region_rates`] gives a region with no riders, drivers, rejoins or
//! demand. The first touch of a region in a batch fixes its entry: `fill`
//! computes it, any other touch starts it from the baseline, and later
//! `fill`s of that region in the batch do nothing. Callers fill every
//! region they will read before reading any.
//!
//! [`RateTracker::begin_batch_sparse`] is the eager variant: it fills
//! every occupied or demand-bearing region through the same `fill`. No
//! policy calls it; the repository benchmark's rate probe and the tests
//! do. [`estimate_rates`](crate::rates::estimate_rates) itself is kept
//! verbatim as the reference the tests compare the tracker against.

use mrvd_sim::{BatchContext, RegionCounts};
use mrvd_spatial::RegionId;

use crate::config::DispatchConfig;
use crate::rates::{et_for, region_rates, RegionEstimate};

/// Lifetime counters of a [`RateTracker`], for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateTrackerStats {
    /// Batches prepared ([`RateTracker::begin_batch`], also through
    /// [`RateTracker::begin_batch_sparse`]).
    pub batches: u64,
    /// Expected-idle-time solves performed (lazy evaluations plus
    /// μ-bump recomputations).
    pub ets_computed: u64,
    /// Regions whose counts and rates were computed ([`RateTracker::fill`]
    /// calls that did work).
    pub regions_filled: u64,
}

/// One region's entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Counts and rates, including any bumps applied.
    est: RegionEstimate,
    /// The idle time solved from `est`, once read or bumped.
    et: Option<f64>,
    /// The epoch that wrote this slot; any other value makes it stale.
    filled: u64,
}

/// Lazy per-region rate state, owned by a policy and reused across
/// batches (no per-batch allocations or resets). See the module docs.
#[derive(Debug, Default)]
pub struct RateTracker {
    slots: Vec<Slot>,
    /// The current batch's stamp. Slots start at 0 and the first batch
    /// is epoch 1, so fresh slots are stale.
    epoch: u64,
    now_ms: u64,
    /// End of the current batch's rejoin window, `now + t_c`.
    window_end_ms: u64,
    tc_s: f64,
    batches: u64,
    ets_computed: u64,
    regions_filled: u64,
}

impl RateTracker {
    /// An empty tracker; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a batch over `n` regions at `now_ms`. Writes no region:
    /// until [`RateTracker::fill`] computes one, it reads as the
    /// baseline. Slots kept across a size change carry an older epoch,
    /// so they are stale like every other.
    pub fn begin_batch(&mut self, n: usize, now_ms: u64, cfg: &DispatchConfig) {
        self.slots.resize(n, Slot::default());
        self.epoch += 1;
        self.batches += 1;
        self.now_ms = now_ms;
        self.window_end_ms = now_ms + cfg.tc_ms;
        self.tc_s = cfg.tc_s();
    }

    /// Computes region `k`'s counts and λ/μ/K for the current batch from
    /// `counts` and `upcoming()`, the oracle's `|R̂_k|` for
    /// `[now, now + t_c)`. Does nothing — and does not call `upcoming` —
    /// if `k` was already filled or read this batch.
    pub fn fill(&mut self, k: usize, counts: &RegionCounts, upcoming: impl FnOnce() -> f64) {
        if self.slots[k].filled == self.epoch {
            return;
        }
        let waiting = counts.waiting()[k];
        let available = counts.available()[k];
        let rejoining =
            counts.rejoining_between(RegionId(k as u32), self.now_ms, self.window_end_ms);
        let (lambda, mu, capacity_k) =
            region_rates(waiting, available, rejoining, upcoming(), self.tc_s);
        self.slots[k] = Slot {
            est: RegionEstimate {
                waiting,
                available,
                rejoining,
                lambda,
                mu,
                capacity_k,
            },
            et: None,
            filled: self.epoch,
        };
        self.regions_filled += 1;
    }

    /// Opens a batch and eagerly fills the union of the batch's
    /// [`RegionCounts::occupied_regions`] (a superset of every region
    /// with a waiting rider, available driver or pending rejoin) and
    /// `upcoming_active` (the oracle regions with nonzero window demand,
    /// e.g. [`crate::oracle::SparseUpcoming::active`]). Every region
    /// outside both lists has the all-zero inputs whose rates are the
    /// baseline, so every read matches the reference estimator. No
    /// policy calls this; it serves the benchmark's rate probe and tests.
    ///
    /// `upcoming[k]` is the oracle's `|R̂_k|` for `[now, now + t_c)`.
    ///
    /// # Panics
    /// Panics if `upcoming` does not cover the grid's regions.
    pub fn begin_batch_sparse(
        &mut self,
        ctx: &BatchContext<'_>,
        upcoming: &[f64],
        upcoming_active: &[u32],
        cfg: &DispatchConfig,
    ) {
        let n = ctx.grid.num_regions();
        assert_eq!(
            upcoming.len(),
            n,
            "RateTracker::begin_batch_sparse: oracle regions != grid regions"
        );
        self.begin_batch(n, ctx.now_ms, cfg);
        let rc = ctx.region_counts;
        let occupied = rc.occupied_regions().iter().map(|r| r.idx());
        let active = upcoming_active.iter().map(|&k| k as usize);
        for k in occupied.chain(active) {
            self.fill(k, rc, || upcoming[k]);
        }
    }

    /// Region `k`'s slot for the current batch, started from the
    /// baseline if nothing filled it.
    fn current(&mut self, k: usize) -> &mut Slot {
        let epoch = self.epoch;
        let slot = &mut self.slots[k];
        if slot.filled != epoch {
            *slot = Slot {
                filled: epoch,
                ..Slot::default()
            };
        }
        slot
    }

    /// The expected idle time of region `k` for the current batch,
    /// computed (and cached) on first access — Eqs. 10/13/16, with the
    /// infinite case clamped to `t_c` and the uniform-ET ablation mapped
    /// to the constant `t_c / 2`, exactly as
    /// [`RegionEstimates::expected_idle_times`](crate::rates::RegionEstimates::expected_idle_times).
    pub fn et(&mut self, k: usize, cfg: &DispatchConfig) -> f64 {
        let tc_s = cfg.tc_s();
        if cfg.uniform_et {
            return tc_s / 2.0;
        }
        let slot = self.current(k);
        if let Some(et) = slot.et {
            return et;
        }
        let e = slot.est;
        let et = et_for(e.lambda, e.mu, e.capacity_k, cfg.beta, tc_s);
        slot.et = Some(et);
        self.ets_computed += 1;
        et
    }

    /// Algorithm 2, line 11: one future rejoin moves into region `k` —
    /// bump μ and the cap, and refresh the idle time the next selection
    /// will read (unless the ablation silences it).
    pub fn bump_mu(&mut self, k: usize, cfg: &DispatchConfig) {
        let est = &mut self.current(k).est;
        est.mu += 1.0 / cfg.tc_s();
        est.capacity_k += 1;
        self.resolve(k, cfg);
    }

    /// Reverts one [`RateTracker::bump_mu`] on region `k` (a local-search
    /// swap moving the rejoin elsewhere).
    pub fn unbump_mu(&mut self, k: usize, cfg: &DispatchConfig) {
        let est = &mut self.current(k).est;
        est.mu -= 1.0 / cfg.tc_s();
        est.capacity_k = est.capacity_k.saturating_sub(1);
        self.resolve(k, cfg);
    }

    /// Re-solves a bumped region's idle time at once, so every bump
    /// counts one solve whether or not the region is read again.
    fn resolve(&mut self, k: usize, cfg: &DispatchConfig) {
        self.slots[k].et = None;
        if !cfg.uniform_et {
            self.et(k, cfg);
        }
    }

    /// Region `k`'s counts and rates for the current batch, including
    /// any bumps applied — the all-zero baseline if nothing filled or
    /// touched it this batch.
    pub fn region(&self, k: usize) -> RegionEstimate {
        let slot = &self.slots[k];
        if slot.filled == self.epoch {
            slot.est
        } else {
            RegionEstimate::default()
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RateTrackerStats {
        RateTrackerStats {
            batches: self.batches,
            ets_computed: self.ets_computed,
            regions_filled: self.regions_filled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{estimate_rates, RegionEstimates};
    use mrvd_sim::{AvailableDriver, BatchState, BusyDriver, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, Point};

    const P: Point = Point::new(-73.985, 40.755);
    const Q: Point = Point::new(-73.80, 40.90);

    fn rider(id: u32, p: Point) -> WaitingRider {
        WaitingRider {
            id: RiderId(id),
            pickup: p,
            dropoff: p,
            request_ms: 0,
            deadline_ms: 600_000,
        }
    }

    fn driver(id: u32, p: Point) -> AvailableDriver {
        AvailableDriver {
            id: DriverId(id),
            pos: p,
            available_since_ms: 0,
        }
    }

    fn busy(id: u32, dropoff_ms: u64, p: Point) -> BusyDriver {
        BusyDriver {
            id: DriverId(id),
            dropoff_ms,
            dropoff_pos: p,
        }
    }

    /// A region entry with its floats as bit patterns, for exact
    /// comparison.
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

    /// The active list of a dense upcoming buffer: every region whose
    /// value carries a nonzero bit pattern (what `SparseUpcoming` hands
    /// the benchmark probe).
    fn active_of(upcoming: &[f64]) -> Vec<u32> {
        upcoming
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(k, _)| k as u32)
            .collect()
    }

    /// One batch on the eager prefill: the dense buffer plus its active
    /// list.
    fn begin(t: &mut RateTracker, ctx: &BatchContext<'_>, upcoming: &[f64], cfg: &DispatchConfig) {
        t.begin_batch_sparse(ctx, upcoming, &active_of(upcoming), cfg);
    }

    /// One batch on the lazy path, every region filled in a scrambled
    /// order (37 is coprime to the grids' power-of-two region counts).
    fn begin_lazy(
        t: &mut RateTracker,
        ctx: &BatchContext<'_>,
        upcoming: &[f64],
        cfg: &DispatchConfig,
    ) {
        let n = ctx.grid.num_regions();
        t.begin_batch(n, ctx.now_ms, cfg);
        for i in 0..n {
            let k = (i * 37 + 11) % n;
            t.fill(k, ctx.region_counts, || upcoming[k]);
        }
    }

    fn assert_tracker_matches(t: &mut RateTracker, est: &RegionEstimates, cfg: &DispatchConfig) {
        let ets = est.expected_idle_times(cfg);
        for (k, et) in ets.iter().enumerate() {
            assert_eq!(bits(t.region(k)), bits(est.region(k)), "region {k}");
            assert_eq!(t.et(k, cfg).to_bits(), et.to_bits(), "ET[{k}]");
        }
    }

    #[test]
    fn live_and_scan_paths_match_the_reference_estimator() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        let riders = [rider(0, P), rider(1, P), rider(2, Q)];
        let drivers = [driver(0, P), driver(1, Q), driver(2, Q)];
        let busys = [
            busy(9, 100_000, P),
            busy(10, 2_000_000, Q),
            busy(11, 5_000, Q),
        ];
        let scanned = BatchState::new(&grid, &riders, &drivers, &busys);
        // Counts maintained the way the engine does: through a history
        // that also removes entries, leaving stale occupied listings.
        let mut live = RegionCounts::new(grid.num_regions());
        for r in &riders {
            live.add_waiting(grid.region_of(r.pickup));
        }
        live.add_waiting(RegionId(3));
        live.remove_waiting(RegionId(3));
        for d in &drivers {
            live.add_available(grid.region_of(d.pos));
        }
        for b in &busys {
            live.add_rejoining(grid.region_of(b.dropoff_pos), b.dropoff_ms);
        }
        let mut upcoming = vec![0.0; grid.num_regions()];
        upcoming[grid.region_of(P).idx()] = 12.0;

        let scan_ctx = scanned.context(0, &travel);
        let live_ctx = BatchContext {
            region_counts: &live,
            ..scanned.context(0, &travel)
        };
        let est = estimate_rates(&scan_ctx, &upcoming, &cfg);
        for c in [&live_ctx, &scan_ctx] {
            let mut t = RateTracker::new();
            begin(&mut t, c, &upcoming, &cfg);
            assert_tracker_matches(&mut t, &est, &cfg);
            begin_lazy(&mut t, c, &upcoming, &cfg);
            assert_tracker_matches(&mut t, &est, &cfg);
        }
    }

    #[test]
    fn et_is_lazy_and_cached_within_a_batch() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        let upcoming = vec![3.0; grid.num_regions()];
        let state = BatchState::new(&grid, &[rider(0, P)], &[], &[]);
        let c = state.context(0, &travel);
        let mut t = RateTracker::new();
        begin(&mut t, &c, &upcoming, &cfg);
        assert_eq!(t.stats().ets_computed, 0, "nothing evaluated yet");
        let k = grid.region_of(P).idx();
        let a = t.et(k, &cfg);
        assert_eq!(t.stats().ets_computed, 1);
        let b = t.et(k, &cfg);
        assert_eq!(t.stats().ets_computed, 1, "second read hits the cache");
        assert_eq!(a.to_bits(), b.to_bits());
        // A new batch invalidates the cache lazily.
        begin(&mut t, &c, &upcoming, &cfg);
        t.et(k, &cfg);
        assert_eq!(t.stats().ets_computed, 2);
    }

    #[test]
    fn bump_and_unbump_round_trip_matches_fresh_solve() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        let riders = [rider(0, P), rider(1, P)];
        let mut upcoming = vec![0.0; grid.num_regions()];
        let k = grid.region_of(P).idx();
        upcoming[k] = 6.0;
        let state = BatchState::new(&grid, &riders, &[driver(0, P)], &[]);
        let mut t = RateTracker::new();
        begin(&mut t, &state.context(0, &travel), &upcoming, &cfg);
        let tc_s = cfg.tc_s();
        t.bump_mu(k, &cfg);
        let bumped = t.et(k, &cfg);
        let e = t.region(k);
        let expect = et_for(e.lambda, e.mu, e.capacity_k, cfg.beta, tc_s);
        assert_eq!(bumped.to_bits(), expect.to_bits());
        t.unbump_mu(k, &cfg);
        assert_eq!(t.region(k).capacity_k, 1);
    }

    #[test]
    fn sparse_live_path_matches_the_dense_reference() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        let riders = [rider(0, P), rider(1, P), rider(2, Q)];
        let drivers = [driver(0, P), driver(1, Q), driver(2, Q)];
        let busys = [
            busy(9, 100_000, P),
            busy(10, 2_000_000, Q),
            busy(11, 5_000, Q),
        ];
        let state = BatchState::new(&grid, &riders, &drivers, &busys);
        let mut upcoming = vec![0.0; grid.num_regions()];
        upcoming[grid.region_of(P).idx()] = 12.0;
        // A region with demand but no riders/drivers: only the active
        // list can reach it.
        upcoming[7] = 3.5;

        let ctx = state.context(0, &travel);
        let est = estimate_rates(&ctx, &upcoming, &cfg);

        let mut t = RateTracker::new();
        begin(&mut t, &ctx, &upcoming, &cfg);
        assert_tracker_matches(&mut t, &est, &cfg);

        // A second batch over the same world must not see the first
        // batch's entries: every region is refilled or reads baseline.
        begin(&mut t, &ctx, &upcoming, &cfg);
        assert_tracker_matches(&mut t, &est, &cfg);
        assert_eq!(t.stats().batches, 2);
    }

    #[test]
    fn sparse_batches_reset_regions_that_empty_out() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        // World A occupies P and Q; world B empties Q entirely and has
        // zero demand — every world-A region must fall back to baseline.
        let state_a = BatchState::new(
            &grid,
            &[rider(0, P), rider(1, Q)],
            &[driver(0, Q)],
            &[busy(9, 100_000, Q)],
        );
        let mut upcoming_a = vec![0.0; grid.num_regions()];
        upcoming_a[grid.region_of(Q).idx()] = 9.0;
        let state_b = BatchState::new(&grid, &[rider(0, P)], &[], &[]);
        let upcoming_b = vec![0.0; grid.num_regions()];
        let ctx_b = state_b.context(0, &travel);

        let mut t = RateTracker::new();
        begin(&mut t, &state_a.context(0, &travel), &upcoming_a, &cfg);
        begin(&mut t, &ctx_b, &upcoming_b, &cfg);
        let est_b = estimate_rates(&ctx_b, &upcoming_b, &cfg);
        assert_tracker_matches(&mut t, &est_b, &cfg);
        let q = grid.region_of(Q).idx();
        assert_eq!(
            t.region(q).lambda.to_bits(),
            0.0f64.to_bits(),
            "Q is baseline"
        );
    }

    #[test]
    fn sparse_recovers_from_dense_fills() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        let riders = [rider(0, P)];
        let drivers = [driver(0, Q)];
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let live = state.context(0, &travel);
        let dense_up = vec![2.0; grid.num_regions()];
        let sparse_up = vec![0.0; grid.num_regions()];

        // A dense batch writes every region, its idle time included;
        // the next sparse batch must read none of those entries.
        let mut t = RateTracker::new();
        begin(&mut t, &live, &dense_up, &cfg);
        assert_tracker_matches(&mut t, &estimate_rates(&live, &dense_up, &cfg), &cfg);
        begin(&mut t, &live, &sparse_up, &cfg);
        let est = estimate_rates(&live, &sparse_up, &cfg);
        assert_tracker_matches(&mut t, &est, &cfg);

        // Neither may a change of region count: the 256-region batch's
        // entries that survive on a 16-region grid are stale.
        let coarse = Grid::new(Point::new(-74.03, 40.58), Point::new(-73.77, 40.92), 4, 4);
        let coarse_state = BatchState::new(&coarse, &riders, &drivers, &[]);
        let coarse_ctx = coarse_state.context(0, &travel);
        let coarse_up = vec![0.0; coarse.num_regions()];
        let mut t = RateTracker::new();
        begin(&mut t, &live, &dense_up, &cfg);
        begin(&mut t, &coarse_ctx, &coarse_up, &cfg);
        let est = estimate_rates(&coarse_ctx, &coarse_up, &cfg);
        assert_tracker_matches(&mut t, &est, &cfg);
    }

    #[test]
    fn unfilled_regions_read_as_baseline() {
        let grid = Grid::nyc_16x16();
        let n = grid.num_regions();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig::default();
        let state = BatchState::new(
            &grid,
            &[rider(0, P)],
            &[driver(0, P)],
            &[busy(9, 100_000, P)],
        );
        let ctx = state.context(0, &travel);
        let rc = ctx.region_counts;
        let p = grid.region_of(P).idx();
        let baseline = bits(RegionEstimate::default());
        let baseline_et = et_for(0.0, 0.0, 0, cfg.beta, cfg.tc_s());

        // Batch A fills P; batch B fills nothing, so P reads baseline.
        let mut t = RateTracker::new();
        t.begin_batch(n, 0, &cfg);
        t.fill(p, rc, || 12.0);
        let filled = bits(t.region(p));
        assert_ne!(filled, baseline);
        t.et(p, &cfg);
        t.begin_batch(n, 0, &cfg);
        assert_eq!(bits(t.region(p)), baseline, "batch A's fill leaked");
        assert_eq!(t.et(p, &cfg).to_bits(), baseline_et.to_bits());
        // That read fixed P's entry for batch B: a later fill is a no-op.
        t.fill(p, rc, || unreachable!("P was already read this batch"));
        assert_eq!(bits(t.region(p)), baseline);
        // A fill in the next batch computes P again.
        t.begin_batch(n, 0, &cfg);
        t.fill(p, rc, || 12.0);
        assert_eq!(bits(t.region(p)), filled);
        assert_eq!(t.stats().regions_filled, 2);

        // A dense batch writes every region, its idle time included;
        // none survives into the next lazy batch, where a bump starts
        // from the baseline.
        let dense = vec![2.0; n];
        begin(&mut t, &ctx, &dense, &cfg);
        assert_tracker_matches(&mut t, &estimate_rates(&ctx, &dense, &cfg), &cfg);
        t.begin_batch(n, 0, &cfg);
        for k in 0..n {
            assert_eq!(
                bits(t.region(k)),
                baseline,
                "region {k} after a dense batch"
            );
        }
        t.bump_mu(p, &cfg);
        let bumped = t.region(p);
        assert_eq!((bumped.waiting, bumped.capacity_k), (0, 1));
        assert_eq!(bumped.mu.to_bits(), (1.0 / cfg.tc_s()).to_bits());

        // A grid-size change: entries kept through a shrink and entries
        // regrown afterwards are all stale.
        t.begin_batch(n, 0, &cfg);
        t.fill(3, rc, || 5.0);
        t.fill(p, rc, || 12.0);
        assert_ne!(bits(t.region(3)), baseline);
        t.begin_batch(16, 0, &cfg);
        for k in 0..16 {
            assert_eq!(bits(t.region(k)), baseline, "region {k} after a shrink");
        }
        t.begin_batch(n, 0, &cfg);
        for k in 0..n {
            assert_eq!(bits(t.region(k)), baseline, "region {k} after a regrow");
        }
    }

    #[test]
    fn uniform_et_ablation_is_flat_and_free() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let cfg = DispatchConfig {
            uniform_et: true,
            ..DispatchConfig::default()
        };
        let upcoming = vec![40.0; grid.num_regions()];
        let state = BatchState::new(&grid, &[rider(0, P)], &[], &[]);
        let mut t = RateTracker::new();
        begin(&mut t, &state.context(0, &travel), &upcoming, &cfg);
        assert_eq!(t.et(3, &cfg), cfg.tc_s() / 2.0);
        t.bump_mu(3, &cfg);
        assert_eq!(t.et(3, &cfg), cfg.tc_s() / 2.0);
        assert_eq!(t.stats().ets_computed, 0, "the ablation never solves");
    }
}
