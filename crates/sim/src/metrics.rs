//! Simulation outputs.

use mrvd_spatial::RegionId;
use mrvd_stats::SummaryStats;

use crate::types::{DriverId, Millis, RiderId};

/// One completed assignment, with everything the evaluation joins on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentRecord {
    /// The served rider.
    pub rider: RiderId,
    /// The serving driver.
    pub driver: DriverId,
    /// Batch timestamp at which the pair was formed.
    pub batch_ms: Millis,
    /// When the driver reached the pickup (≤ the rider's deadline).
    pub pickup_ms: Millis,
    /// When the rider was dropped off (driver rejoins here).
    pub dropoff_ms: Millis,
    /// Revenue `α · cost(s_i, e_i)` in cost units (seconds at α = 1).
    pub revenue: f64,
    /// The driver's idle interval ψ that *ended* with this assignment:
    /// batch time minus the driver's availability start, in ms.
    pub driver_idle_ms: Millis,
    /// Region of the rider's destination (where the driver will rejoin).
    pub dropoff_region: RegionId,
    /// The policy's idle-time estimate for after this dropoff (seconds),
    /// when the policy provides one.
    pub estimated_idle_s: Option<f64>,
}

/// One reneged rider, charged at the exact deadline.
///
/// The batch loop of the paper's Algorithm 1 only *observes* reneges at
/// the next batch boundary, quantizing their timestamps by up to Δ; the
/// event-driven engine records the true `deadline_ms` instead (the
/// quantity Alwan–Ata–Zhou's abandonment dynamics depend on). The legacy
/// reference loop still reports the quantized batch timestamp here —
/// that difference is pinned by a regression test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenegeRecord {
    /// The rider who gave up.
    pub rider: RiderId,
    /// When the rider posted the order.
    pub request_ms: Millis,
    /// When the rider left the platform (the exact pickup deadline under
    /// the event engine; the first batch timestamp past it under the
    /// legacy reference loop).
    pub renege_ms: Millis,
}

impl RenegeRecord {
    /// How long the rider waited before giving up, in seconds.
    pub fn wait_s(&self) -> f64 {
        (self.renege_ms - self.request_ms) as f64 / 1000.0
    }
}

/// Aggregate result of one simulated day.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Policy display name.
    pub policy: String,
    /// Total revenue `Σ α·cost(s_i, e_i)` over served riders (Eq. 1).
    pub total_revenue: f64,
    /// Number of served riders.
    pub served: usize,
    /// Number of riders who reneged (deadline passed unassigned).
    pub reneged: usize,
    /// Total riders that entered the platform.
    pub total_riders: usize,
    /// Riders still waiting when the horizon ended.
    pub still_waiting: usize,
    /// Wall-clock seconds spent inside `DispatchPolicy::assign`, per
    /// executed batch.
    pub batch_time: SummaryStats,
    /// Number of batch slots in the horizon, `⌈horizon / Δ⌉` — the
    /// batches the paper's literal loop would run.
    pub batches: usize,
    /// Batch slots at which the policy actually ran; the event-driven
    /// engine skips slots where nothing changed since the previous
    /// invocation, so this is ≤ [`SimResult::batches`].
    pub ticks_executed: usize,
    /// State-transition events the engine applied at their true times
    /// (admissions, reneges, dropoffs, shift changes). Zero under the
    /// legacy reference loop, which scans instead of queueing events.
    pub events_processed: usize,
    /// Mutations applied to the live availability index (one per insert,
    /// one per remove, two per move) while maintaining it incrementally
    /// across the whole run. Zero under the legacy reference loop, which
    /// rebuilds its index from scratch every batch instead.
    pub index_ops: usize,
    /// Cumulative count of regions whose index bucket changed between
    /// consecutive *executed* batches (the dirty-set size drained at each
    /// policy invocation). Low numbers relative to
    /// `ticks_executed × num_regions` are what make incremental
    /// maintenance pay off.
    pub index_regions_dirtied: usize,
    /// Mutations applied to the live per-region batch-state counts
    /// ([`crate::RegionCounts`]: waiting/available/rejoining) while
    /// maintaining them incrementally across the whole run. Zero under
    /// the legacy reference loop, which rebuilds its counts from scratch
    /// every batch instead.
    pub counts_ops: usize,
    /// Cumulative count of regions whose live batch-state counts changed
    /// between consecutive *executed* batches (the counts' dirty-set size
    /// drained at each policy invocation). Low numbers relative to
    /// `ticks_executed × num_regions` are what make incremental rate
    /// estimation pay off.
    pub counts_regions_dirtied: usize,
    /// Mutations applied to the live batch views ([`crate::BatchViews`]:
    /// the waiting/available/busy slices policies see) while maintaining
    /// them incrementally across the whole run. Zero under the legacy
    /// reference loop, which rebuilds the views by full scans every batch.
    pub views_ops: usize,
    /// Cumulative count of view entries touched between consecutive
    /// *executed* batches (adds plus swap_remove targets and relocated
    /// fillers, drained at each policy invocation). Low numbers relative
    /// to `ticks_executed × world size` are what make the incremental
    /// views pay off.
    pub views_entries_dirtied: usize,
    /// Complete assignment log (chronological).
    pub assignments: Vec<AssignmentRecord>,
    /// Complete renege log (chronological).
    pub reneges: Vec<RenegeRecord>,
}

impl SimResult {
    /// Served riders as a fraction of all riders.
    pub fn service_rate(&self) -> f64 {
        if self.total_riders == 0 {
            0.0
        } else {
            self.served as f64 / self.total_riders as f64
        }
    }

    /// Mean wall-clock time per batch slot, in seconds: total policy
    /// time over all `⌈horizon/Δ⌉` slots, charging skipped slots their
    /// true cost of zero. This keeps the number comparable with the
    /// legacy loop (which executed every slot, measuring ≈0 on the empty
    /// ones) and across policies with different skip rates — the
    /// denominator is the batch grid, not the executed subset.
    pub fn mean_batch_time_s(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_time.mean() * self.batch_time.count() as f64 / self.batches as f64
        }
    }

    /// Mean wall-clock time per *executed* batch, in seconds — what one
    /// dispatch round costs when the policy actually runs.
    pub fn mean_executed_batch_time_s(&self) -> f64 {
        self.batch_time.mean()
    }

    /// Batch slots the engine skipped because nothing changed.
    pub fn ticks_skipped(&self) -> usize {
        self.batches - self.ticks_executed
    }

    /// Fraction of batch slots skipped (0 under the legacy loop).
    pub fn skip_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ticks_skipped() as f64 / self.batches as f64
        }
    }

    /// Mean time reneged riders waited before giving up, in seconds —
    /// exact under the event engine, quantized up by ≤ Δ under the
    /// legacy reference loop.
    pub fn mean_renege_wait_s(&self) -> f64 {
        if self.reneges.is_empty() {
            return 0.0;
        }
        self.reneges.iter().map(RenegeRecord::wait_s).sum::<f64>() / self.reneges.len() as f64
    }

    /// Joins each assignment's idle-time *estimate* with the *realized*
    /// idle interval that followed it: for consecutive assignments
    /// `(i, i+1)` of the same driver, the estimate attached at `i`
    /// (made for the dropoff region of order `i`) is realized as order
    /// `i+1`'s `driver_idle_ms`. Returns `(estimated_s, real_s)` pairs —
    /// the data behind the paper's Table 3 and Figure 6.
    pub fn idle_estimate_pairs(&self) -> Vec<(f64, f64)> {
        self.idle_estimate_pairs_by_region()
            .into_iter()
            .map(|(_, e, r)| (e, r))
            .collect()
    }

    /// Like [`SimResult::idle_estimate_pairs`], tagged with the region in
    /// which the driver idled (the dropoff region of the first order of
    /// each pair) — the per-region breakdown of Figure 6.
    pub fn idle_estimate_pairs_by_region(&self) -> Vec<(RegionId, f64, f64)> {
        // Assignment indices per driver, in chronological order (the log
        // itself is chronological). BTreeMap: the pairs are emitted
        // per-driver in ascending driver id, so the output order is a
        // function of the log alone — a HashMap here leaked hash order
        // into the Figure 6 data.
        let mut per_driver: std::collections::BTreeMap<DriverId, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, a) in self.assignments.iter().enumerate() {
            per_driver.entry(a.driver).or_default().push(i);
        }
        let mut pairs = Vec::new();
        for seq in per_driver.values() {
            for w in seq.windows(2) {
                let (cur, next) = (&self.assignments[w[0]], &self.assignments[w[1]]);
                if let Some(est) = cur.estimated_idle_s {
                    let real_ms = next.batch_ms - next.driver_idle_ms; // = availability start
                    debug_assert_eq!(real_ms, cur.dropoff_ms);
                    pairs.push((cur.dropoff_region, est, next.driver_idle_ms as f64 / 1000.0));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrvd_spatial::RegionId;

    fn rec(
        driver: u32,
        batch_ms: Millis,
        idle_ms: Millis,
        dropoff_ms: Millis,
        est: Option<f64>,
    ) -> AssignmentRecord {
        AssignmentRecord {
            rider: RiderId(0),
            driver: DriverId(driver),
            batch_ms,
            pickup_ms: batch_ms,
            dropoff_ms,
            revenue: 1.0,
            driver_idle_ms: idle_ms,
            dropoff_region: RegionId(0),
            estimated_idle_s: est,
        }
    }

    #[test]
    fn idle_pairs_join_consecutive_assignments() {
        let result = SimResult {
            policy: "test".into(),
            total_revenue: 0.0,
            served: 2,
            reneged: 0,
            total_riders: 2,
            still_waiting: 0,
            batch_time: SummaryStats::new(),
            batches: 2,
            ticks_executed: 2,
            events_processed: 0,
            index_ops: 0,
            index_regions_dirtied: 0,
            counts_ops: 0,
            counts_regions_dirtied: 0,
            views_ops: 0,
            views_entries_dirtied: 0,
            assignments: vec![
                // Driver 0: drops off at 100_000, estimated idle 30 s,
                // next assignment at batch 140_000 → realized 40 s.
                rec(0, 10_000, 10_000, 100_000, Some(30.0)),
                rec(0, 140_000, 40_000, 200_000, Some(9.0)),
                // Driver 1: one assignment only → no pair.
                rec(1, 15_000, 15_000, 90_000, Some(5.0)),
            ],
            reneges: vec![],
        };
        let pairs = result.idle_estimate_pairs();
        assert_eq!(pairs, vec![(30.0, 40.0)]);
    }

    #[test]
    fn baselines_without_estimates_yield_no_pairs() {
        let result = SimResult {
            policy: "RAND".into(),
            total_revenue: 0.0,
            served: 2,
            reneged: 0,
            total_riders: 2,
            still_waiting: 0,
            batch_time: SummaryStats::new(),
            batches: 2,
            ticks_executed: 2,
            events_processed: 0,
            index_ops: 0,
            index_regions_dirtied: 0,
            counts_ops: 0,
            counts_regions_dirtied: 0,
            views_ops: 0,
            views_entries_dirtied: 0,
            assignments: vec![
                rec(0, 10_000, 10_000, 100_000, None),
                rec(0, 140_000, 40_000, 200_000, None),
            ],
            reneges: vec![],
        };
        assert!(result.idle_estimate_pairs().is_empty());
    }

    #[test]
    fn idle_pairs_are_emitted_in_driver_id_order() {
        // Assignments logged with interleaved driver ids: the per-region
        // pairs must come out grouped by ascending driver id regardless
        // of log interleaving — the ordering a HashMap grouping leaked
        // hash state into before the BTreeMap conversion.
        let result = SimResult {
            policy: "test".into(),
            total_revenue: 0.0,
            served: 6,
            reneged: 0,
            total_riders: 6,
            still_waiting: 0,
            batch_time: SummaryStats::new(),
            batches: 4,
            ticks_executed: 4,
            events_processed: 0,
            index_ops: 0,
            index_regions_dirtied: 0,
            counts_ops: 0,
            counts_regions_dirtied: 0,
            views_ops: 0,
            views_entries_dirtied: 0,
            assignments: vec![
                rec(7, 10_000, 10_000, 100_000, Some(30.0)),
                rec(2, 12_000, 12_000, 110_000, Some(20.0)),
                rec(5, 14_000, 14_000, 120_000, Some(10.0)),
                rec(2, 150_000, 40_000, 210_000, Some(1.0)),
                rec(7, 160_000, 60_000, 220_000, Some(2.0)),
                rec(5, 170_000, 50_000, 230_000, Some(3.0)),
            ],
            reneges: vec![],
        };
        let pairs = result.idle_estimate_pairs();
        // Driver 2's pair first, then 5's, then 7's.
        assert_eq!(pairs, vec![(20.0, 40.0), (10.0, 50.0), (30.0, 60.0)]);

        // Same join rebuilt through an unordered grouping yields the
        // same multiset — only the emission order was at stake.
        let mut by_driver: std::collections::HashMap<DriverId, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, a) in result.assignments.iter().enumerate() {
            by_driver.entry(a.driver).or_default().push(i);
        }
        let mut reference: Vec<(f64, f64)> = Vec::new();
        for seq in by_driver.values() {
            for w in seq.windows(2) {
                let (cur, next) = (&result.assignments[w[0]], &result.assignments[w[1]]);
                if let Some(est) = cur.estimated_idle_s {
                    reference.push((est, next.driver_idle_ms as f64 / 1000.0));
                }
            }
        }
        reference.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut sorted = pairs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(sorted, reference);
    }

    #[test]
    fn batch_time_mean_is_normalized_over_all_slots() {
        let mut bt = SummaryStats::new();
        bt.push(0.002);
        bt.push(0.004);
        let result = SimResult {
            policy: "x".into(),
            total_revenue: 0.0,
            served: 0,
            reneged: 0,
            total_riders: 0,
            still_waiting: 0,
            batch_time: bt,
            batches: 6,
            ticks_executed: 2,
            events_processed: 0,
            index_ops: 0,
            index_regions_dirtied: 0,
            counts_ops: 0,
            counts_regions_dirtied: 0,
            views_ops: 0,
            views_entries_dirtied: 0,
            assignments: vec![],
            reneges: vec![],
        };
        // 6 ms of policy time spread over 6 slots (4 skipped at zero
        // cost) → 1 ms per slot, 3 ms per executed batch.
        assert!((result.mean_batch_time_s() - 0.001).abs() < 1e-12);
        assert!((result.mean_executed_batch_time_s() - 0.003).abs() < 1e-12);
        assert_eq!(result.ticks_skipped(), 4);
    }

    #[test]
    fn service_rate_is_fraction_served() {
        let result = SimResult {
            policy: "x".into(),
            total_revenue: 0.0,
            served: 3,
            reneged: 1,
            total_riders: 4,
            still_waiting: 0,
            batch_time: SummaryStats::new(),
            batches: 0,
            ticks_executed: 0,
            events_processed: 0,
            index_ops: 0,
            index_regions_dirtied: 0,
            counts_ops: 0,
            counts_regions_dirtied: 0,
            views_ops: 0,
            views_entries_dirtied: 0,
            assignments: vec![],
            reneges: vec![],
        };
        assert_eq!(result.service_rate(), 0.75);
    }
}
