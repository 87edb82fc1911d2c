//! Incremental, lazy per-region rate estimation for the dispatch hot
//! path.
//!
//! [`estimate_rates`](crate::rates::estimate_rates) rebuilds every
//! per-region count from full rider/driver/busy scans and then solves the
//! reneging queue for *every* region, every executed batch — even when one
//! rider is waiting and a single destination region matters. The
//! [`RateTracker`] replaces that on the hot path:
//!
//! * **Counts** come from the batch's per-region counts
//!   ([`mrvd_sim::BatchContext::region_counts`]) — no scans; the
//!   rejoining-in-window count is two binary searches per region over
//!   the rejoin-time multisets. Only the regions those counts list as
//!   occupied, plus the oracle's active regions, are written; every other
//!   region keeps the all-zero baseline.
//! * **λ/μ/K** are derived through the shared [`region_rates`] formula,
//!   so the tracker is bit-identical to the reference by construction.
//! * **Expected idle times** (the per-region queueing solve, Eqs.
//!   10/13/16) are computed *lazily*: only for regions a policy actually
//!   asks about — destinations of current candidate pairs plus regions
//!   touched by the greedy/local-search μ-bumps — with an epoch stamp
//!   invalidating the cache between batches.
//!
//! `estimate_rates` itself is kept verbatim as the reference path for
//! differential testing (the same pattern as
//! `RegionIndex::rebuild_reference` / `Simulator::run_scheduled_reference`);
//! [`RateTracker::load_reference`] lets a policy run the reference
//! estimator end-to-end while sharing the greedy machinery.

use mrvd_sim::{BatchContext, RegionCounts};
use mrvd_spatial::RegionId;

use crate::config::DispatchConfig;
use crate::rates::{et_for, region_rates, RegionEstimates};

/// Lifetime counters of a [`RateTracker`], for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateTrackerStats {
    /// Batches prepared ([`RateTracker::begin_batch_sparse`] +
    /// [`RateTracker::load_reference`] calls).
    pub batches: u64,
    /// Expected-idle-time solves performed (lazy evaluations plus
    /// μ-bump recomputations; eager reference loads count one solve per
    /// region).
    pub ets_computed: u64,
}

/// Incremental per-region rate state, owned by a policy and reused
/// across batches (no per-batch allocations). See the module docs.
#[derive(Debug, Default)]
pub struct RateTracker {
    waiting: Vec<u32>,
    available: Vec<u32>,
    rejoining: Vec<u32>,
    lambda: Vec<f64>,
    mu: Vec<f64>,
    capacity_k: Vec<u64>,
    et: Vec<f64>,
    /// `et[k]` is valid for the current batch iff `et_epoch[k] == epoch`.
    et_epoch: Vec<u64>,
    epoch: u64,
    /// Regions the last *sparse* batch set away from the all-zero
    /// baseline — exactly the entries the next sparse batch re-zeroes.
    touched: Vec<u32>,
    /// Set when a dense fill (reference load, resize) left entries
    /// outside `touched` non-baseline; the next sparse batch then does
    /// one full reset before going incremental.
    dense_dirty: bool,
    batches: u64,
    ets_computed: u64,
}

impl RateTracker {
    /// An empty tracker; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, n: usize) {
        if self.waiting.len() != n {
            self.waiting.resize(n, 0);
            self.available.resize(n, 0);
            self.rejoining.resize(n, 0);
            self.lambda.resize(n, 0.0);
            self.mu.resize(n, 0.0);
            self.capacity_k.resize(n, 0);
            self.et.resize(n, 0.0);
            self.et_epoch.resize(n, 0);
            // Surviving entries of the old size may be non-baseline.
            self.dense_dirty = true;
        }
        // A new epoch lazily invalidates every cached idle time.
        self.epoch += 1;
        self.batches += 1;
    }

    /// Prepares the tracker for one batch: per-region counts and λ/μ/K.
    /// Instead of writing all `num_regions` entries it resets only the
    /// regions the previous batch touched and fills only the union of
    /// the batch's [`RegionCounts::occupied_regions`] (a superset of
    /// every region with a waiting rider, available driver or pending
    /// rejoin) and `upcoming_active` (the oracle regions with nonzero
    /// window demand, e.g. [`crate::oracle::SparseUpcoming::active`]).
    /// Every other region keeps the exact `(0, 0, 0, +0.0, +0.0, K=0)`
    /// baseline — bit-identical to what a dense loop computes for it,
    /// since [`region_rates`] of all-zero inputs is the baseline.
    /// Expected idle times stay unevaluated until [`RateTracker::et`]
    /// asks for them.
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
        self.resize(n);
        let rc = ctx.region_counts;
        if self.dense_dirty {
            self.waiting.fill(0);
            self.available.fill(0);
            self.rejoining.fill(0);
            self.lambda.fill(0.0);
            self.mu.fill(0.0);
            self.capacity_k.fill(0);
            self.touched.clear();
            self.dense_dirty = false;
        } else {
            let mut touched = std::mem::take(&mut self.touched);
            for &k in &touched {
                let k = k as usize;
                self.waiting[k] = 0;
                self.available[k] = 0;
                self.rejoining[k] = 0;
                self.lambda[k] = 0.0;
                self.mu[k] = 0.0;
                self.capacity_k[k] = 0;
            }
            touched.clear();
            self.touched = touched;
        }
        let window_end = ctx.now_ms + cfg.tc_ms;
        let tc_s = cfg.tc_s();
        // Duplicates between the two lists (and inside the occupied
        // superset) are harmless: every write is an idempotent set.
        for &r in rc.occupied_regions() {
            let k = r.idx();
            self.fill_region(rc, k, ctx.now_ms, window_end, upcoming[k], tc_s);
        }
        for &r in upcoming_active {
            let k = r as usize;
            self.fill_region(rc, k, ctx.now_ms, window_end, upcoming[k], tc_s);
        }
    }

    /// One region of the sparse fill: batch counts → λ/μ/K via the
    /// shared formula, and a `touched` entry so the next batch resets it.
    fn fill_region(
        &mut self,
        rc: &RegionCounts,
        k: usize,
        now_ms: u64,
        window_end: u64,
        upcoming_k: f64,
        tc_s: f64,
    ) {
        self.waiting[k] = rc.waiting()[k];
        self.available[k] = rc.available()[k];
        self.rejoining[k] = rc.rejoining_between(RegionId(k as u32), now_ms, window_end);
        let (l, m, c) = region_rates(
            self.waiting[k],
            self.available[k],
            self.rejoining[k],
            upcoming_k,
            tc_s,
        );
        self.lambda[k] = l;
        self.mu[k] = m;
        self.capacity_k[k] = c;
        self.touched.push(k as u32);
    }

    /// Loads the *eager reference* estimates for one batch — the output
    /// of the verbatim [`estimate_rates`](crate::rates::estimate_rates) /
    /// [`RegionEstimates::expected_idle_times`] pair — so a policy can
    /// run the reference rate path through the same greedy machinery
    /// (differential testing; `DispatchConfig::reference_rates`).
    pub fn load_reference(&mut self, est: &RegionEstimates, ets: &[f64]) {
        let n = est.lambda.len();
        assert_eq!(ets.len(), n, "RateTracker::load_reference: length mismatch");
        self.resize(n);
        self.waiting.copy_from_slice(&est.waiting);
        self.available.copy_from_slice(&est.available);
        self.rejoining.copy_from_slice(&est.rejoining);
        self.lambda.copy_from_slice(&est.lambda);
        self.mu.copy_from_slice(&est.mu);
        self.capacity_k.copy_from_slice(&est.capacity_k);
        self.et.copy_from_slice(ets);
        self.et_epoch.fill(self.epoch);
        self.ets_computed += n as u64;
        self.dense_dirty = true;
    }

    /// The expected idle time of region `k` for the current batch,
    /// computed (and cached) on first access — Eqs. 10/13/16, with the
    /// infinite case clamped to `t_c` and the uniform-ET ablation mapped
    /// to the constant `t_c / 2`, exactly as
    /// [`RegionEstimates::expected_idle_times`].
    pub fn et(&mut self, k: usize, cfg: &DispatchConfig) -> f64 {
        let tc_s = cfg.tc_s();
        if cfg.uniform_et {
            return tc_s / 2.0;
        }
        if self.et_epoch[k] != self.epoch {
            self.et[k] = et_for(
                self.lambda[k],
                self.mu[k],
                self.capacity_k[k],
                cfg.beta,
                tc_s,
            );
            self.et_epoch[k] = self.epoch;
            self.ets_computed += 1;
        }
        self.et[k]
    }

    /// Algorithm 2, line 11: one future rejoin moves into region `k` —
    /// bump μ and the cap, and refresh the idle time the next selection
    /// will read (unless the ablation silences it).
    pub fn bump_mu(&mut self, k: usize, cfg: &DispatchConfig) {
        let tc_s = cfg.tc_s();
        self.mu[k] += 1.0 / tc_s;
        self.capacity_k[k] += 1;
        if !cfg.uniform_et {
            self.et[k] = et_for(
                self.lambda[k],
                self.mu[k],
                self.capacity_k[k],
                cfg.beta,
                tc_s,
            );
            self.et_epoch[k] = self.epoch;
            self.ets_computed += 1;
        }
    }

    /// Reverts one [`RateTracker::bump_mu`] on region `k` (a local-search
    /// swap moving the rejoin elsewhere).
    pub fn unbump_mu(&mut self, k: usize, cfg: &DispatchConfig) {
        let tc_s = cfg.tc_s();
        self.mu[k] -= 1.0 / tc_s;
        self.capacity_k[k] = self.capacity_k[k].saturating_sub(1);
        if !cfg.uniform_et {
            self.et[k] = et_for(
                self.lambda[k],
                self.mu[k],
                self.capacity_k[k],
                cfg.beta,
                tc_s,
            );
            self.et_epoch[k] = self.epoch;
            self.ets_computed += 1;
        }
    }

    /// Waiting riders `|R_k|` of the current batch.
    pub fn waiting(&self) -> &[u32] {
        &self.waiting
    }

    /// Available drivers `|D_k|` of the current batch.
    pub fn available(&self) -> &[u32] {
        &self.available
    }

    /// Rejoining-in-window drivers `|D̂_k|` of the current batch.
    pub fn rejoining(&self) -> &[u32] {
        &self.rejoining
    }

    /// λ(k) of the current batch (Eq. 18).
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// μ(k) of the current batch (Eq. 19), including any bumps applied.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// The congestion cap `K` per region, including any bumps applied.
    pub fn capacity_k(&self) -> &[u64] {
        &self.capacity_k
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RateTrackerStats {
        RateTrackerStats {
            batches: self.batches,
            ets_computed: self.ets_computed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::estimate_rates;
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

    /// The active list of a dense upcoming buffer: every region whose
    /// value carries a nonzero bit pattern (what `SparseUpcoming` hands
    /// the policy on the hot path).
    fn active_of(upcoming: &[f64]) -> Vec<u32> {
        upcoming
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(k, _)| k as u32)
            .collect()
    }

    /// One batch on the production fill: the dense buffer plus its
    /// active list.
    fn begin(t: &mut RateTracker, ctx: &BatchContext<'_>, upcoming: &[f64], cfg: &DispatchConfig) {
        t.begin_batch_sparse(ctx, upcoming, &active_of(upcoming), cfg);
    }

    fn assert_tracker_matches(t: &mut RateTracker, est: &RegionEstimates, cfg: &DispatchConfig) {
        let ets = est.expected_idle_times(cfg);
        assert_eq!(t.waiting(), &est.waiting[..]);
        assert_eq!(t.available(), &est.available[..]);
        assert_eq!(t.rejoining(), &est.rejoining[..]);
        for (k, et) in ets.iter().enumerate() {
            assert_eq!(t.lambda()[k].to_bits(), est.lambda[k].to_bits(), "λ[{k}]");
            assert_eq!(t.mu()[k].to_bits(), est.mu[k].to_bits(), "μ[{k}]");
            assert_eq!(t.capacity_k()[k], est.capacity_k[k], "K[{k}]");
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
        let expect = et_for(t.lambda()[k], t.mu()[k], t.capacity_k()[k], cfg.beta, tc_s);
        assert_eq!(bumped.to_bits(), expect.to_bits());
        t.unbump_mu(k, &cfg);
        assert_eq!(t.capacity_k()[k], 1);
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

        // A second sparse batch over the same world exercises the
        // touched-list reset instead of the first batch's dense reset.
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
        assert_eq!(t.lambda()[q].to_bits(), 0.0f64.to_bits(), "Q is baseline");
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

        // A reference load writes every region; the next sparse batch
        // must wipe them all before going incremental.
        let mut t = RateTracker::new();
        let est_dense = estimate_rates(&live, &dense_up, &cfg);
        let ets_dense = est_dense.expected_idle_times(&cfg);
        t.load_reference(&est_dense, &ets_dense);
        begin(&mut t, &live, &sparse_up, &cfg);
        let est = estimate_rates(&live, &sparse_up, &cfg);
        assert_tracker_matches(&mut t, &est, &cfg);

        // A change of region count resets densely too: the touched list
        // of a 256-region batch indexes past a 16-region grid.
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
