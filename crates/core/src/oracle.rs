//! The demand oracle: how many riders will appear in each region during
//! the scheduling window `[t̄, t̄ + t_c]` (the `|R̂_k|` of Algorithm 1).
//!
//! Two variants, matching the paper's `-P` (predicted) and `-R` (real)
//! policy flavours. The predicted variant consults a fitted
//! [`Predictor`]; windows extending past the current slot are forecast
//! *recursively* — each future slot is predicted from a scratch series in
//! which the preceding future slots hold their own predictions, never the
//! realized future (the honest-online property the prediction tests
//! enforce).

use std::cell::RefCell;

use mrvd_demand::{DemandSeries, SLOT_MS};
use mrvd_prediction::Predictor;

/// Demand source for the dispatching policies.
pub enum DemandOracle {
    /// Ground-truth counts of the simulated day (IRG-R / LS-R / POLAR-R).
    Real {
        /// Full series: training days followed by the simulated day.
        series: DemandSeries,
        /// Index of the simulated day within `series`.
        day: usize,
    },
    /// A fitted predictor consulted online (IRG-P / LS-P / POLAR-P).
    Predicted {
        /// The fitted model (fit must already have happened).
        predictor: Box<dyn Predictor + Send>,
        /// Full series: training days followed by the simulated day,
        /// whose realized counts the predictor may read only up to the
        /// current slot.
        series: DemandSeries,
        /// Index of the simulated day within `series`.
        day: usize,
        /// Per-slot forecast cache: `cache[s]` holds the chain forecast
        /// for slot `s` computed when the current slot first reached the
        /// window containing it.
        cache: RefCell<ForecastCache>,
    },
}

/// Cache of chained forecasts keyed by the base slot they were computed
/// from (forecasts are recomputed whenever the base slot advances, i.e.
/// every 30 simulated minutes).
#[derive(Default)]
pub struct ForecastCache {
    base_slot: Option<usize>,
    /// `frames[i]` = per-region forecast for slot `base_slot + i`.
    frames: Vec<Vec<f64>>,
    scratch: Option<DemandSeries>,
}

impl DemandOracle {
    /// Builds the real-demand oracle.
    pub fn real(series: DemandSeries, day: usize) -> Self {
        assert!(day < series.days(), "DemandOracle: day out of range");
        DemandOracle::Real { series, day }
    }

    /// Builds the predicted-demand oracle from an already-fitted model.
    pub fn predicted(
        predictor: Box<dyn Predictor + Send>,
        series: DemandSeries,
        day: usize,
    ) -> Self {
        assert!(day < series.days(), "DemandOracle: day out of range");
        DemandOracle::Predicted {
            predictor,
            series,
            day,
            cache: RefCell::new(ForecastCache::default()),
        }
    }

    /// A short label for policy names ("P" or "R").
    pub fn label(&self) -> &'static str {
        match self {
            DemandOracle::Real { .. } => "R",
            DemandOracle::Predicted { .. } => "P",
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.series().regions()
    }

    fn series(&self) -> &DemandSeries {
        match self {
            DemandOracle::Real { series, .. } | DemandOracle::Predicted { series, .. } => series,
        }
    }

    /// Calls `f(base_slot, slot, overlap)` for every slot of the
    /// simulated day overlapping `[now_ms, now_ms + tc_ms)`, in slot
    /// order, with the fraction of the slot the window covers. Windows
    /// are truncated at the end of the day; an empty one calls nothing.
    fn for_each_window_slot(&self, now_ms: u64, tc_ms: u64, mut f: impl FnMut(usize, usize, f64)) {
        let spd = self.series().slots_per_day();
        let end_ms = (now_ms + tc_ms).min(spd as u64 * SLOT_MS);
        if now_ms >= end_ms {
            return;
        }
        let s0 = (now_ms / SLOT_MS) as usize;
        let s_last = ((end_ms - 1) / SLOT_MS) as usize;
        for s in s0..=s_last.min(spd - 1) {
            let slot_start = s as u64 * SLOT_MS;
            let slot_end = slot_start + SLOT_MS;
            let overlap = (end_ms.min(slot_end) - now_ms.max(slot_start)) as f64 / SLOT_MS as f64;
            f(s0, s, overlap);
        }
    }

    /// Expected new riders per region during `[now_ms, now_ms + tc_ms)` of
    /// the simulated day — slot counts (real or forecast) scaled by each
    /// slot's overlap with the window, accumulated from `+0.0` in slot
    /// order. Windows are truncated at the end of the day. The dispatch
    /// hot path reads single regions through
    /// [`DemandOracle::upcoming_region`] instead.
    pub fn upcoming_riders(&self, now_ms: u64, tc_ms: u64) -> Vec<f64> {
        let mut out = vec![0.0; self.regions()];
        self.for_each_window_slot(now_ms, tc_ms, |s0, s, overlap| {
            self.with_slot_counts(s0, s, |frame| {
                for (o, &v) in out.iter_mut().zip(frame) {
                    *o += overlap * v;
                }
            });
        });
        out
    }

    /// Region `k`'s entry of [`DemandOracle::upcoming_riders`],
    /// bit for bit: the same `overlap × frame[k]` products accumulated
    /// from `+0.0` in the same slot order, without touching any other
    /// region. The dispatch hot path reads only the regions a batch
    /// needs through this.
    pub fn upcoming_region(&self, now_ms: u64, tc_ms: u64, k: usize) -> f64 {
        let mut acc = 0.0;
        self.for_each_window_slot(now_ms, tc_ms, |s0, s, overlap| {
            acc += self.with_slot_counts(s0, s, |frame| overlap * frame[k]);
        });
        acc
    }

    /// Per-region counts for `slot`, given the current slot is
    /// `base_slot`: realized values for the real oracle, chained forecasts
    /// for the predicted one. The frame is *borrowed* — straight from the
    /// series for the real oracle, from the forecast cache for the
    /// predicted one — so no per-slot `Vec` is cloned on this path.
    fn with_slot_counts<R>(&self, base_slot: usize, slot: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        match self {
            DemandOracle::Real { series, day } => f(series.frame(*day, slot)),
            DemandOracle::Predicted {
                predictor,
                series,
                day,
                cache,
            } => {
                let mut cache = cache.borrow_mut();
                cache.ensure(predictor.as_ref(), series, *day, base_slot, slot);
                f(&cache.frames[slot - base_slot])
            }
        }
    }

    /// Chain-forecasts the whole simulated day from its first slot —
    /// the offline view POLAR builds its blueprint from. For the real
    /// oracle this returns the realized counts (POLAR-R).
    pub fn full_day_forecast(&self) -> Vec<Vec<f64>> {
        (0..self.series().slots_per_day())
            .map(|s| self.with_slot_counts(0, s, |frame| frame.to_vec()))
            .collect()
    }
}

/// Reusable sparse evaluation of [`DemandOracle::upcoming_riders`].
///
/// No policy calls this: the queueing policies read single regions
/// through [`DemandOracle::upcoming_region`]. It survives for the
/// repository benchmark's rate probe (paired with
/// [`crate::RateTracker::begin_batch_sparse`]) and for tests.
///
/// `SparseUpcoming` keeps a dense `values` buffer, but only re-zeroes
/// the entries the *previous* batch set (`active`) and only accumulates
/// over the union of regions whose slot frames carry a nonzero bit
/// pattern anywhere in the window. The union is cached per
/// `(base slot, last slot)` window — between 30-simulated-minute slot
/// boundaries a batch pays O(active ∪ union), not O(num_regions).
///
/// Bit-identity with the dense path is unconditional: membership uses
/// the bit pattern (`v.to_bits() != 0`, so a `-0.0` frame entry counts
/// as demand), every excluded region therefore sees only exact `+0.0`
/// frame values — which leave the dense accumulator at `+0.0`, the very
/// value the sparse path leaves untouched — and included regions
/// accumulate the same `overlap × frame` products in the same slot
/// order as the dense loop.
#[derive(Default)]
pub struct SparseUpcoming {
    values: Vec<f64>,
    /// Regions written by the last [`SparseUpcoming::compute`] — the
    /// entries to re-zero on the next call.
    active: Vec<u32>,
    /// Cache key of `union`: the `(base slot, last slot)` window it was
    /// built for.
    window: Option<(usize, usize)>,
    /// Sorted regions whose frame value has a nonzero bit pattern in
    /// any slot of the cached window.
    union: Vec<u32>,
}

impl SparseUpcoming {
    /// Fills [`SparseUpcoming::values`] exactly as
    /// [`DemandOracle::upcoming_riders`] would, touching only the
    /// previously-active and currently-demanded regions.
    pub fn compute(&mut self, oracle: &DemandOracle, now_ms: u64, tc_ms: u64) {
        let regions = oracle.regions();
        if self.values.len() != regions {
            self.values.clear();
            self.values.resize(regions, 0.0);
            self.active.clear();
            self.window = None;
        }
        for &r in &self.active {
            self.values[r as usize] = 0.0;
        }
        self.active.clear();
        let spd = match oracle {
            DemandOracle::Real { series, .. } | DemandOracle::Predicted { series, .. } => {
                series.slots_per_day()
            }
        };
        let end_ms = (now_ms + tc_ms).min(spd as u64 * SLOT_MS);
        if now_ms >= end_ms {
            return;
        }
        let s0 = (now_ms / SLOT_MS) as usize;
        let s_last = (((end_ms - 1) / SLOT_MS) as usize).min(spd - 1);
        if self.window != Some((s0, s_last)) {
            self.union.clear();
            for s in s0..=s_last {
                let union = &mut self.union;
                oracle.with_slot_counts(s0, s, |frame| {
                    for (r, &v) in frame.iter().enumerate() {
                        if v.to_bits() != 0 {
                            union.push(r as u32);
                        }
                    }
                });
            }
            self.union.sort_unstable();
            self.union.dedup();
            self.window = Some((s0, s_last));
        }
        for s in s0..=s_last {
            let slot_start = s as u64 * SLOT_MS;
            let slot_end = slot_start + SLOT_MS;
            let overlap = (end_ms.min(slot_end) - now_ms.max(slot_start)) as f64 / SLOT_MS as f64;
            let (values, union) = (&mut self.values, &self.union);
            oracle.with_slot_counts(s0, s, |frame| {
                for &r in union {
                    values[r as usize] += overlap * frame[r as usize];
                }
            });
        }
        self.active.extend_from_slice(&self.union);
    }

    /// The dense per-region expected-rider buffer (length = region
    /// count); identical bit-for-bit to what the dense path fills.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Regions the last [`SparseUpcoming::compute`] wrote — a superset
    /// of the regions with nonzero [`SparseUpcoming::values`], sorted
    /// ascending.
    pub fn active(&self) -> &[u32] {
        &self.active
    }
}

impl ForecastCache {
    /// Makes `frames[slot - base_slot]` available: on a base-slot change
    /// the scratch series is re-synchronized with the realized series and
    /// the chain restarted, then the chain is extended up to `slot`.
    ///
    /// Re-synchronizing only rewrites the slots the *previous* chain
    /// overwrote with its own predictions — `[prev_base, prev_base +
    /// frames.len())` — instead of the whole day: every other slot of the
    /// scratch still holds its realized value, so an O(chain length ×
    /// regions) restore replaces the old O(slots × regions) full-day
    /// rewrite on every 30-simulated-minute base advance.
    fn ensure(
        &mut self,
        predictor: &(dyn Predictor + Send),
        series: &DemandSeries,
        day: usize,
        base_slot: usize,
        slot: usize,
    ) {
        if self.base_slot != Some(base_slot) {
            let scratch = self.scratch.get_or_insert_with(|| series.clone());
            if let Some(prev_base) = self.base_slot {
                let dirtied =
                    prev_base..(prev_base + self.frames.len()).min(series.slots_per_day());
                for s in dirtied {
                    for r in 0..series.regions() {
                        scratch.set(day, s, r, series.get(day, s, r));
                    }
                }
            }
            self.base_slot = Some(base_slot);
            self.frames.clear();
        }
        let offset = slot - base_slot;
        while self.frames.len() <= offset {
            let s = base_slot + self.frames.len();
            // Split borrow: take scratch out, predict, put back.
            let mut scratch = self.scratch.take().expect("scratch initialized");
            let frame = predictor.predict(&scratch, day, s);
            for (r, &v) in frame.iter().enumerate() {
                scratch.set(day, s, r, v);
            }
            self.scratch = Some(scratch);
            self.frames.push(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_prediction::HistoricalAverage;

    fn series() -> DemandSeries {
        // 3 days × 4 slots × 2 regions; slot value = day*4 + slot.
        DemandSeries::from_fn(3, 4, 2, |d, t, r| (d * 4 + t) as f64 + r as f64 * 0.1)
    }

    // SLOT_MS is 30 min; our test series pretends 4 slots/day, which the
    // oracle supports (it uses series.slots_per_day()).

    #[test]
    fn real_oracle_scales_partial_slots() {
        let o = DemandOracle::real(series(), 2);
        // Window = exactly slot 1 of day 2 (value 9.0 / 9.1).
        let w = o.upcoming_riders(SLOT_MS, SLOT_MS);
        assert!((w[0] - 9.0).abs() < 1e-9);
        assert!((w[1] - 9.1).abs() < 1e-9);
        // Half a slot starting mid-slot 1: 0.5×9.0 + ... window ends mid
        // slot 1 → only slot 1, overlap 0.5.
        let w = o.upcoming_riders(SLOT_MS + SLOT_MS / 4, SLOT_MS / 2);
        assert!((w[0] - 4.5).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn real_oracle_spans_slots() {
        let o = DemandOracle::real(series(), 2);
        // Window covering last half of slot 0 and first half of slot 1:
        // 0.5×8 + 0.5×9 = 8.5.
        let w = o.upcoming_riders(SLOT_MS / 2, SLOT_MS);
        assert!((w[0] - 8.5).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn window_truncates_at_day_end() {
        let o = DemandOracle::real(series(), 2);
        // Start in the last slot, window runs past the day: only the
        // remaining part of slot 3 counts (value 11).
        let w = o.upcoming_riders(3 * SLOT_MS + SLOT_MS / 2, 10 * SLOT_MS);
        assert!((w[0] - 5.5).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn predicted_oracle_uses_the_model() {
        let s = series();
        let mut ha = HistoricalAverage;
        use mrvd_prediction::Predictor as _;
        ha.fit(&s, 2);
        let o = DemandOracle::predicted(Box::new(ha), s.clone(), 2);
        let w = o.upcoming_riders(SLOT_MS, SLOT_MS);
        // HA averages the previous 15 global slots of the scratch series;
        // prediction must be finite, non-negative and *not* equal to the
        // realized value 9.0 (HA lags a ramp).
        assert!(w[0].is_finite() && w[0] >= 0.0);
        assert!(w[0] < 9.0);
    }

    #[test]
    fn chained_forecast_does_not_read_realized_future() {
        let s = series();
        let mut ha = HistoricalAverage;
        use mrvd_prediction::Predictor as _;
        ha.fit(&s, 2);
        // Two oracles whose series differ ONLY in future slots (≥ slot 1
        // of day 2).
        let mut s_mut = s.clone();
        for t in 1..4 {
            for r in 0..2 {
                s_mut.set(2, t, r, 999.0);
            }
        }
        let o1 = DemandOracle::predicted(Box::new(HistoricalAverage), s, 2);
        let o2 = DemandOracle::predicted(Box::new(HistoricalAverage), s_mut, 2);
        // Window starting at slot 1 covering slots 1–3 (forecast chain).
        let w1 = o1.upcoming_riders(SLOT_MS, 3 * SLOT_MS);
        let w2 = o2.upcoming_riders(SLOT_MS, 3 * SLOT_MS);
        assert_eq!(w1, w2, "forecast leaked realized future values");
    }

    #[test]
    fn partial_scratch_restore_matches_a_fresh_oracle() {
        // The forecast cache only restores the slots the previous chain
        // dirtied when its base slot moves. Walking the day forward —
        // and jumping back to slot 0 as POLAR's full-day view does —
        // must therefore produce exactly what a freshly built oracle
        // produces at every base.
        let s = series();
        let mut ha = HistoricalAverage;
        use mrvd_prediction::Predictor as _;
        ha.fit(&s, 2);
        let walked = DemandOracle::predicted(Box::new(HistoricalAverage), s.clone(), 2);
        let windows = [
            (0, 2 * SLOT_MS),            // base 0, chain of 2
            (SLOT_MS, 3 * SLOT_MS),      // base 1, chain to the day end
            (0, 4 * SLOT_MS),            // back to base 0, full chain
            (2 * SLOT_MS, SLOT_MS),      // base 2
            (3 * SLOT_MS, 10 * SLOT_MS), // base 3, truncated window
        ];
        for (now, tc) in windows {
            let fresh = DemandOracle::predicted(Box::new(HistoricalAverage), s.clone(), 2);
            assert_eq!(
                walked.upcoming_riders(now, tc),
                fresh.upcoming_riders(now, tc),
                "stale scratch at now={now}"
            );
        }
        // The full-day view (base 0) after a mid-day base is also clean.
        let fresh = DemandOracle::predicted(Box::new(HistoricalAverage), s.clone(), 2);
        assert_eq!(walked.full_day_forecast(), fresh.full_day_forecast());
    }

    /// 3 days × 4 slots × 6 regions: 0–2 carry demand, 3 is always
    /// +0.0, 4 holds a -0.0 (nonzero bit pattern), 5 is +0.0 except in
    /// slot 2.
    fn signed_zero_series() -> DemandSeries {
        DemandSeries::from_fn(3, 4, 6, |d, t, r| match r {
            3 => 0.0,
            4 => -0.0,
            5 => {
                if t == 2 {
                    7.5
                } else {
                    0.0
                }
            }
            _ => (d * 4 + t) as f64 + r as f64 * 0.1,
        })
    }

    /// `(now, tc)` windows over [`signed_zero_series`]'s 4-slot day.
    const WINDOWS: [(u64, u64); 8] = [
        (0, SLOT_MS),                // slot 0 only
        (SLOT_MS / 2, SLOT_MS),      // spans slots 0–1: a new window
        (SLOT_MS / 2 + 1, SLOT_MS),  // same (s0, s_last) → cached union
        (2 * SLOT_MS, SLOT_MS / 3),  // slot 2 (region 5 active)
        (3 * SLOT_MS, 10 * SLOT_MS), // truncated at day end
        (4 * SLOT_MS, SLOT_MS),      // empty window
        (SLOT_MS, 0),                // empty window
        (SLOT_MS, 2 * SLOT_MS),      // back to a live window
    ];

    #[test]
    fn upcoming_region_matches_the_dense_window_bitwise() {
        // Region 4's -0.0 frames must accumulate onto +0.0 exactly as
        // the dense buffer does.
        let o = DemandOracle::real(signed_zero_series(), 2);
        for (now, tc) in WINDOWS {
            let dense = o.upcoming_riders(now, tc);
            for (k, v) in dense.iter().enumerate() {
                assert_eq!(
                    o.upcoming_region(now, tc, k).to_bits(),
                    v.to_bits(),
                    "region {k} diverged at now={now} tc={tc}"
                );
            }
        }
    }

    #[test]
    fn upcoming_region_matches_a_fresh_predicted_oracle() {
        // The lazy oracle reads single regions in scrambled order and
        // never reads base slot 1, so its forecast cache jumps from base
        // 0 to base 2 and later back to 0. Every read must still equal a
        // freshly built oracle's dense window.
        let s = signed_zero_series();
        let lazy = DemandOracle::predicted(Box::new(HistoricalAverage), s.clone(), 2);
        for (now, tc) in [
            (0, 2 * SLOT_MS),
            (SLOT_MS / 2, 2 * SLOT_MS),
            (2 * SLOT_MS, SLOT_MS),
            (2 * SLOT_MS + SLOT_MS / 3, SLOT_MS),
            (3 * SLOT_MS, 10 * SLOT_MS),
            (0, 4 * SLOT_MS),
        ] {
            let fresh = DemandOracle::predicted(Box::new(HistoricalAverage), s.clone(), 2)
                .upcoming_riders(now, tc);
            for k in [4, 1, 5, 0, 3, 2] {
                assert_eq!(
                    lazy.upcoming_region(now, tc, k).to_bits(),
                    fresh[k].to_bits(),
                    "region {k} diverged at now={now} tc={tc}"
                );
            }
        }
    }

    #[test]
    fn sparse_upcoming_matches_dense_bitwise() {
        // Region 4's -0.0 must stay in the union.
        let o = DemandOracle::real(signed_zero_series(), 2);
        let mut sparse = SparseUpcoming::default();
        for (now, tc) in WINDOWS {
            sparse.compute(&o, now, tc);
            let dense = o.upcoming_riders(now, tc);
            assert_eq!(sparse.values().len(), dense.len());
            for (k, (a, b)) in sparse.values().iter().zip(&dense).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "region {k} diverged at now={now} tc={tc}: sparse {a} dense {b}"
                );
            }
            // Every nonzero value is covered by the active list.
            for (k, v) in sparse.values().iter().enumerate() {
                if v.to_bits() != 0 {
                    assert!(sparse.active().contains(&(k as u32)));
                }
            }
        }
    }

    #[test]
    fn sparse_upcoming_matches_dense_for_the_predicted_oracle() {
        let s = series();
        let mut ha = HistoricalAverage;
        use mrvd_prediction::Predictor as _;
        ha.fit(&s, 2);
        let o = DemandOracle::predicted(Box::new(HistoricalAverage), s.clone(), 2);
        let reference = DemandOracle::predicted(Box::new(HistoricalAverage), s, 2);
        let mut sparse = SparseUpcoming::default();
        // Walk the day forward across base advances — both oracles see
        // the same call sequence so their forecast caches stay in step.
        for (now, tc) in [
            (0, 2 * SLOT_MS),
            (SLOT_MS / 2, 2 * SLOT_MS),
            (SLOT_MS, 3 * SLOT_MS),
            (2 * SLOT_MS, SLOT_MS),
            (3 * SLOT_MS, 10 * SLOT_MS),
        ] {
            sparse.compute(&o, now, tc);
            let dense = reference.upcoming_riders(now, tc);
            let bits: Vec<u64> = sparse.values().iter().map(|v| v.to_bits()).collect();
            let dense_bits: Vec<u64> = dense.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, dense_bits, "diverged at now={now}");
        }
    }

    #[test]
    fn full_day_forecast_has_all_slots() {
        let o = DemandOracle::real(series(), 1);
        let f = o.full_day_forecast();
        assert_eq!(f.len(), 4);
        assert!((f[2][0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_zero() {
        let o = DemandOracle::real(series(), 2);
        let w = o.upcoming_riders(SLOT_MS, 0);
        assert_eq!(w, vec![0.0, 0.0]);
    }
}
