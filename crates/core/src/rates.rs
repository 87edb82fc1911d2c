//! Per-region arrival-rate estimation (Eqs. 18–19) and the expected-idle-
//! time table that drives the idle ratio (Eq. 17).

use mrvd_queueing::{expected_idle_time, QueueParams, Reneging};
use mrvd_sim::BatchContext;

use crate::config::DispatchConfig;

/// Per-region state estimated at the top of a batch (Algorithm 1,
/// lines 3–6, and Algorithm 2, line 6).
#[derive(Debug, Clone)]
pub struct RegionEstimates {
    /// Waiting riders `|R_k|` in each region.
    pub waiting: Vec<u32>,
    /// Available drivers `|D_k|`.
    pub available: Vec<u32>,
    /// Busy drivers rejoining in the window `|D̂_k|`.
    pub rejoining: Vec<u32>,
    /// Rider arrival rate λ(k), per second (Eq. 18).
    pub lambda: Vec<f64>,
    /// Driver rejoin rate μ(k), per second (Eq. 19).
    pub mu: Vec<f64>,
    /// Driver-side congestion cap `K` per region (available + rejoining).
    pub capacity_k: Vec<u64>,
}

/// Estimates all per-region rates for the current batch.
///
/// `upcoming_riders[k]` is the oracle's `|R̂_k|` for the window
/// `[now, now + t_c)`; waiting/available/rejoining are counted from the
/// batch context.
pub fn estimate_rates(
    ctx: &BatchContext<'_>,
    upcoming_riders: &[f64],
    cfg: &DispatchConfig,
) -> RegionEstimates {
    let n = ctx.grid.num_regions();
    assert_eq!(
        upcoming_riders.len(),
        n,
        "estimate_rates: oracle regions != grid regions"
    );
    let tc_s = cfg.tc_s();
    let mut waiting = vec![0u32; n];
    let mut available = vec![0u32; n];
    let mut rejoining = vec![0u32; n];
    for r in ctx.riders {
        waiting[ctx.grid.region_of(r.pickup).idx()] += 1;
    }
    for d in ctx.drivers {
        available[ctx.grid.region_of(d.pos).idx()] += 1;
    }
    let window_end = ctx.now_ms + cfg.tc_ms;
    for b in ctx.busy {
        // Strictly inside the open window (now, now + t_c): a driver
        // dropping off exactly at `now` has already been moved to the
        // available set by the engine and must not be counted twice in
        // `capacity_k`/μ, and one dropping off exactly at the window end
        // rejoins only once the window has closed.
        if b.dropoff_ms > ctx.now_ms && b.dropoff_ms < window_end {
            rejoining[ctx.grid.region_of(b.dropoff_pos).idx()] += 1;
        }
    }
    let mut lambda = vec![0.0; n];
    let mut mu = vec![0.0; n];
    let mut capacity_k = vec![0u64; n];
    for k in 0..n {
        let (l, m, c) = region_rates(
            waiting[k],
            available[k],
            rejoining[k],
            upcoming_riders[k],
            tc_s,
        );
        lambda[k] = l;
        mu[k] = m;
        capacity_k[k] = c;
    }
    RegionEstimates {
        waiting,
        available,
        rejoining,
        lambda,
        mu,
        capacity_k,
    }
}

/// One region's counts and rates — a row of [`RegionEstimates`].
/// `Default` is the all-zero baseline that [`region_rates`] gives a
/// region with no riders, drivers, rejoins or predicted demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegionEstimate {
    /// Waiting riders `|R_k|`.
    pub waiting: u32,
    /// Available drivers `|D_k|`.
    pub available: u32,
    /// Busy drivers rejoining in the window `|D̂_k|`.
    pub rejoining: u32,
    /// λ(k), per second (Eq. 18).
    pub lambda: f64,
    /// μ(k), per second (Eq. 19).
    pub mu: f64,
    /// The congestion cap `K`.
    pub capacity_k: u64,
}

impl RegionEstimates {
    /// Region `k`'s row.
    pub fn region(&self, k: usize) -> RegionEstimate {
        RegionEstimate {
            waiting: self.waiting[k],
            available: self.available[k],
            rejoining: self.rejoining[k],
            lambda: self.lambda[k],
            mu: self.mu[k],
            capacity_k: self.capacity_k[k],
        }
    }

    /// Computes the expected idle time (seconds) for every region from
    /// the current rate estimates (Eqs. 10/13/16). Infinite values (a
    /// region where no riders are expected) are clamped to `t_c` — the
    /// driver will be re-evaluated next window. With `cfg.uniform_et`
    /// every region gets the constant `t_c / 2` (the `ablation`
    /// experiment).
    pub fn expected_idle_times(&self, cfg: &DispatchConfig) -> Vec<f64> {
        let tc_s = cfg.tc_s();
        if cfg.uniform_et {
            return vec![tc_s / 2.0; self.lambda.len()];
        }
        self.lambda
            .iter()
            .zip(&self.mu)
            .zip(&self.capacity_k)
            .map(|((&l, &m), &k)| et_for(l, m, k, cfg.beta, tc_s))
            .collect()
    }
}

/// λ(k), μ(k) and the congestion cap `K` for one region from its counts
/// (Eqs. 18–19) — one shared implementation, so the eager reference
/// estimator above and the incremental [`crate::RateTracker`] are
/// bit-identical by construction.
#[inline]
pub fn region_rates(
    waiting: u32,
    available: u32,
    rejoining: u32,
    upcoming: f64,
    tc_s: f64,
) -> (f64, f64, u64) {
    let (r_k, d_k) = (waiting as f64, available as f64);
    let r_hat = upcoming.max(0.0);
    let d_hat = rejoining as f64;
    // Eq. 18: the backlog joins the arrival stream when riders exceed
    // drivers; Eq. 19: the driver surplus joins the rejoin stream
    // otherwise.
    let (lambda, mu) = if r_k <= d_k {
        (r_hat / tc_s, (d_hat + d_k - r_k) / tc_s)
    } else {
        ((r_hat + r_k - d_k) / tc_s, d_hat / tc_s)
    };
    (lambda, mu, (available + rejoining) as u64)
}

/// Expected idle time for one region; shared by the batch-level table and
/// the incremental updates inside the greedy/local-search loops.
pub fn et_for(lambda: f64, mu: f64, capacity_k: u64, beta: f64, tc_s: f64) -> f64 {
    let params = QueueParams::new(lambda, mu, capacity_k, Reneging::Exp { beta });
    let et = expected_idle_time(&params).expect("reneging queues always converge");
    if et.is_finite() {
        et
    } else {
        tc_s
    }
}

/// The idle ratio of Eq. 17: `IR = ET / (cost + ET)`, with the `ET = ∞`
/// limit mapped to 1. Smaller is better.
pub fn idle_ratio(cost_s: f64, et_s: f64) -> f64 {
    assert!(cost_s >= 0.0, "idle_ratio: negative cost");
    if et_s.is_infinite() {
        return 1.0;
    }
    if cost_s + et_s == 0.0 {
        // Zero-cost, zero-idle: define as 0 (best possible).
        return 0.0;
    }
    et_s / (cost_s + et_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_sim::{AvailableDriver, BatchState, BusyDriver, DriverId, RiderId, WaitingRider};
    use mrvd_spatial::{ConstantSpeedModel, Grid, Point};

    fn rider(id: u32, p: Point) -> WaitingRider {
        WaitingRider {
            id: RiderId(id),
            pickup: p,
            dropoff: p,
            request_ms: 0,
            deadline_ms: 60_000,
        }
    }

    fn driver(id: u32, p: Point) -> AvailableDriver {
        AvailableDriver {
            id: DriverId(id),
            pos: p,
            available_since_ms: 0,
        }
    }

    #[test]
    fn eq18_19_balance_backlog_and_surplus() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let p = Point::new(-73.985, 40.755);
        let k = grid.region_of(p).idx();
        let cfg = DispatchConfig {
            tc_ms: 600_000, // 10 min
            ..DispatchConfig::default()
        };
        // 3 waiting riders, 1 driver, 0 rejoining, 5 predicted riders.
        let riders = [rider(0, p), rider(1, p), rider(2, p)];
        let drivers = [driver(0, p)];
        let mut upcoming = vec![0.0; grid.num_regions()];
        upcoming[k] = 5.0;
        let state = BatchState::new(&grid, &riders, &drivers, &[]);
        let est = estimate_rates(&state.context(0, &travel), &upcoming, &cfg);
        // |R_k| > |D_k|: λ = (5 + 3 − 1)/600 s, μ = 0/600.
        assert!((est.lambda[k] - 7.0 / 600.0).abs() < 1e-12);
        assert_eq!(est.mu[k], 0.0);
        assert_eq!(est.capacity_k[k], 1);

        // Flip: 1 rider, 3 drivers, 2 rejoining.
        let riders = [rider(0, p)];
        let drivers = [driver(0, p), driver(1, p), driver(2, p)];
        let busy = [
            BusyDriver {
                id: DriverId(9),
                dropoff_ms: 100_000,
                dropoff_pos: p,
            },
            BusyDriver {
                id: DriverId(10),
                dropoff_ms: 550_000,
                dropoff_pos: p,
            },
        ];
        let state = BatchState::new(&grid, &riders, &drivers, &busy);
        let est = estimate_rates(&state.context(0, &travel), &upcoming, &cfg);
        // |R_k| ≤ |D_k|: λ = 5/600, μ = (2 + 3 − 1)/600.
        assert!((est.lambda[k] - 5.0 / 600.0).abs() < 1e-12);
        assert!((est.mu[k] - 4.0 / 600.0).abs() < 1e-12);
        assert_eq!(est.capacity_k[k], 5);
    }

    #[test]
    fn rejoins_outside_window_are_ignored() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let p = Point::new(-73.985, 40.755);
        let cfg = DispatchConfig {
            tc_ms: 300_000,
            ..DispatchConfig::default()
        };
        let busy = [BusyDriver {
            id: DriverId(0),
            dropoff_ms: 400_000, // beyond the 5-minute window
            dropoff_pos: p,
        }];
        let state = BatchState::new(&grid, &[], &[], &busy);
        let est = estimate_rates(
            &state.context(0, &travel),
            &vec![0.0; grid.num_regions()],
            &cfg,
        );
        assert_eq!(est.rejoining[grid.region_of(p).idx()], 0);
    }

    #[test]
    fn dropoff_exactly_on_the_batch_slot_is_not_double_counted() {
        // A dropoff landing exactly at the batch timestamp means the
        // engine has already moved that driver to the available set; a
        // stale busy entry at `now` (possible only in a hand-built state)
        // must not be counted again in μ/`capacity_k`. The window end is
        // likewise exclusive.
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let p = Point::new(-73.985, 40.755);
        let k = grid.region_of(p).idx();
        let cfg = DispatchConfig {
            tc_ms: 300_000,
            ..DispatchConfig::default()
        };
        let now = 600_000;
        let drivers = [driver(0, p)]; // the just-dropped-off driver, available
        let busy = [
            BusyDriver {
                id: DriverId(1),
                dropoff_ms: now, // exactly the batch slot: already available
                dropoff_pos: p,
            },
            BusyDriver {
                id: DriverId(2),
                dropoff_ms: now + cfg.tc_ms, // exactly the window end
                dropoff_pos: p,
            },
            BusyDriver {
                id: DriverId(3),
                dropoff_ms: now + 1, // strictly inside
                dropoff_pos: p,
            },
        ];
        let state = BatchState::new(&grid, &[], &drivers, &busy);
        let est = estimate_rates(
            &state.context(now, &travel),
            &vec![0.0; grid.num_regions()],
            &cfg,
        );
        assert_eq!(est.rejoining[k], 1, "only the strictly-inside dropoff");
        assert_eq!(est.capacity_k[k], 2, "1 available + 1 rejoining");
        assert!((est.mu[k] - 2.0 / cfg.tc_s()).abs() < 1e-12);
    }

    #[test]
    fn hot_regions_have_smaller_et() {
        let cfg = DispatchConfig::default();
        let tc = cfg.tc_s();
        // Hot: many upcoming riders, few drivers.
        let hot = et_for(0.05, 0.002, 3, cfg.beta, tc);
        // Cold: no upcoming riders.
        let cold = et_for(0.0, 0.002, 3, cfg.beta, tc);
        assert!(hot < cold, "hot {hot} vs cold {cold}");
        assert_eq!(cold, tc); // clamped infinite
    }

    #[test]
    fn idle_ratio_obeys_the_two_rules() {
        // Rule (a): higher travel cost → smaller IR.
        assert!(idle_ratio(900.0, 100.0) < idle_ratio(300.0, 100.0));
        // Rule (b): smaller expected idle time → smaller IR.
        assert!(idle_ratio(600.0, 50.0) < idle_ratio(600.0, 200.0));
        // Bounds.
        assert_eq!(idle_ratio(100.0, f64::INFINITY), 1.0);
        assert_eq!(idle_ratio(0.0, 0.0), 0.0);
        let ir = idle_ratio(500.0, 500.0);
        assert!((0.0..=1.0).contains(&ir));
    }

    #[test]
    fn uniform_et_ablation_flattens_regions() {
        let grid = Grid::nyc_16x16();
        let travel = ConstantSpeedModel::default();
        let p = Point::new(-73.985, 40.755);
        let state = BatchState::new(&grid, &[rider(0, p), rider(1, p)], &[], &[]);
        let mut upcoming = vec![0.0; grid.num_regions()];
        upcoming[10] = 40.0;
        let cfg = DispatchConfig {
            uniform_et: true,
            ..DispatchConfig::default()
        };
        let est = estimate_rates(&state.context(0, &travel), &upcoming, &cfg);
        let ets = est.expected_idle_times(&cfg);
        assert!(ets.windows(2).all(|w| w[0] == w[1]));
    }
}
