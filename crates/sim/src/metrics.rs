//! Simulation outputs, and the one definition of "same outputs":
//! [`SimResult::digest`] and [`SimResult::first_difference`].

use std::fmt::Debug;

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

/// How [`SimResult::first_difference`] compares two renege logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenegeMatch {
    /// Record by record, in log order: rider, request and renege time.
    /// Two event-engine runs renege at identical event times.
    Exact,
    /// Only the set of riders who reneged. The legacy reference loop
    /// charges a renege at the first batch past its deadline, up to Δ
    /// late, so against it only the riders can match.
    RiderSet,
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
    /// The digest of no run (the FNV-1a offset basis): where a
    /// [`SimResult::fold_digest`] chain starts.
    pub const EMPTY_DIGEST: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a (64-bit) digest of the simulated outputs: the counts,
    /// the revenue bits, and the assignment and renege logs. It reads no
    /// wall-clock field, so two runs of the same behaviour digest alike.
    /// It leaves out the engine counters and three assignment fields
    /// (`driver_idle_ms`, `dropoff_region`, `estimated_idle_s`);
    /// [`SimResult::first_difference`] compares those three too.
    pub fn digest(&self) -> u64 {
        self.fold_digest(Self::EMPTY_DIGEST)
    }

    /// Folds this run into the running digest `hash`, so several runs
    /// digest into one value: `b.fold_digest(a.digest())`.
    pub fn fold_digest(&self, mut hash: u64) -> u64 {
        let mut fold = |value: u64| {
            for byte in value.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for count in [
            self.served,
            self.reneged,
            self.still_waiting,
            self.total_riders,
        ] {
            fold(count as u64);
        }
        fold(self.total_revenue.to_bits());
        fold(self.batches as u64);
        for a in &self.assignments {
            for value in [
                u64::from(a.rider.0),
                u64::from(a.driver.0),
                a.batch_ms,
                a.pickup_ms,
                a.dropoff_ms,
                a.revenue.to_bits(),
            ] {
                fold(value);
            }
        }
        for x in &self.reneges {
            for value in [u64::from(x.rider.0), x.request_ms, x.renege_ms] {
                fold(value);
            }
        }
        hash
    }

    /// The first difference between the simulated outputs of two runs,
    /// or `None` if they match. Floats compare by bits, so a NaN matches
    /// the same NaN.
    ///
    /// The assignment logs are compared first, record by record over
    /// all nine fields, because the first differing record says where
    /// two runs diverge; the renege logs next, as `reneges` says; then
    /// the counts and `total_revenue`, which can still differ when both
    /// logs match. The engine counters and wall-clock fields are not
    /// outputs and are not compared.
    pub fn first_difference(&self, other: &SimResult, reneges: RenegeMatch) -> Option<String> {
        let idle = |r: &AssignmentRecord| r.estimated_idle_s.map(f64::to_bits);
        for (i, (a, b)) in self.assignments.iter().zip(&other.assignments).enumerate() {
            let fields = [
                ("rider", a.rider == b.rider),
                ("driver", a.driver == b.driver),
                ("batch_ms", a.batch_ms == b.batch_ms),
                ("pickup_ms", a.pickup_ms == b.pickup_ms),
                ("dropoff_ms", a.dropoff_ms == b.dropoff_ms),
                ("revenue", a.revenue.to_bits() == b.revenue.to_bits()),
                ("driver_idle_ms", a.driver_idle_ms == b.driver_idle_ms),
                ("dropoff_region", a.dropoff_region == b.dropoff_region),
                ("estimated_idle_s", idle(a) == idle(b)),
            ];
            if let Some(diff) = field_difference(&fields, a, b) {
                return Some(format!(
                    "assignment {i} (rider {}, driver {}, batch_ms {}): {diff}",
                    a.rider.0, a.driver.0, a.batch_ms
                ));
            }
        }
        if let Some(diff) = len_difference("assignments", &self.assignments, &other.assignments) {
            return Some(diff);
        }
        match reneges {
            RenegeMatch::Exact => {
                for (i, (a, b)) in self.reneges.iter().zip(&other.reneges).enumerate() {
                    let fields = [
                        ("rider", a.rider == b.rider),
                        ("request_ms", a.request_ms == b.request_ms),
                        ("renege_ms", a.renege_ms == b.renege_ms),
                    ];
                    if let Some(diff) = field_difference(&fields, a, b) {
                        return Some(format!("renege {i} (rider {}): {diff}", a.rider.0));
                    }
                }
                if let Some(diff) = len_difference("reneges", &self.reneges, &other.reneges) {
                    return Some(diff);
                }
            }
            RenegeMatch::RiderSet => {
                let riders = |r: &SimResult| {
                    let mut ids: Vec<u32> = r.reneges.iter().map(|x| x.rider.0).collect();
                    ids.sort_unstable();
                    ids
                };
                let (a, b) = (riders(self), riders(other));
                if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
                    return Some(format!(
                        "reneged riders, in id order, differ at {i}: {:?} vs {:?}",
                        a.get(i),
                        b.get(i)
                    ));
                }
            }
        }
        let counts = [
            ("served", self.served, other.served),
            ("reneged", self.reneged, other.reneged),
            ("still_waiting", self.still_waiting, other.still_waiting),
            ("total_riders", self.total_riders, other.total_riders),
            ("batches", self.batches, other.batches),
        ];
        if let Some((name, a, b)) = counts.into_iter().find(|&(_, a, b)| a != b) {
            return Some(format!("{name}: {a} vs {b}"));
        }
        (self.total_revenue.to_bits() != other.total_revenue.to_bits()).then(|| {
            format!(
                "total_revenue: {:?} vs {:?} (bits {:#x} vs {:#x})",
                self.total_revenue,
                other.total_revenue,
                self.total_revenue.to_bits(),
                other.total_revenue.to_bits()
            )
        })
    }

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
    /// the data behind the paper's Table 3 and Figure 6. A pair whose
    /// driver went off shift in between is skipped: its idle interval
    /// restarted when the driver came back, so the realized idle after
    /// the dropoff is unknown.
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
                // A driver who went off shift between the two orders
                // became available again when it came back, not at the
                // dropoff: the gap censors the realized idle interval.
                let Some(est) = cur.estimated_idle_s else {
                    continue;
                };
                if next.batch_ms - next.driver_idle_ms == cur.dropoff_ms {
                    pairs.push((cur.dropoff_region, est, next.driver_idle_ms as f64 / 1000.0));
                }
            }
        }
        pairs
    }
}

/// `"<field>: <a> vs <b>"` for the first field whose two sides differ
/// (`fields` pairs each name with whether its sides are equal), showing
/// both whole records.
fn field_difference<T: Debug>(fields: &[(&str, bool)], a: &T, b: &T) -> Option<String> {
    let (name, _) = fields.iter().find(|(_, same)| !same)?;
    Some(format!("{name}: {a:?} vs {b:?}"))
}

/// `"<log>: <m> vs <n> records"` when two logs, equal over their common
/// prefix, differ in length.
fn len_difference<T>(log: &str, a: &[T], b: &[T]) -> Option<String> {
    (a.len() != b.len()).then(|| {
        format!(
            "{log}: {} vs {} records, equal over the first {}",
            a.len(),
            b.len(),
            a.len().min(b.len())
        )
    })
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

    /// A run with these logs, its counts and revenue taken from them and
    /// every engine counter zero.
    fn run(assignments: Vec<AssignmentRecord>, reneges: Vec<RenegeRecord>) -> SimResult {
        SimResult {
            policy: "test".into(),
            total_revenue: assignments.iter().map(|a| a.revenue).sum(),
            served: assignments.len(),
            reneged: reneges.len(),
            total_riders: assignments.len() + reneges.len(),
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
            assignments,
            reneges,
        }
    }

    /// Two assignments, one renege and one rider still waiting.
    fn sample() -> SimResult {
        let assignments = vec![
            AssignmentRecord {
                rider: RiderId(4),
                revenue: 305.25,
                dropoff_region: RegionId(17),
                ..rec(1, 3_000, 3_000, 400_250, Some(42.5))
            },
            AssignmentRecord {
                rider: RiderId(9),
                pickup_ms: 61_000,
                revenue: 189.5,
                dropoff_region: RegionId(3),
                ..rec(0, 6_000, 6_000, 250_500, None)
            },
        ];
        let reneges = vec![RenegeRecord {
            rider: RiderId(7),
            request_ms: 1_500,
            renege_ms: 93_200,
        }];
        SimResult {
            still_waiting: 1,
            total_riders: 4,
            batches: 1_200,
            ..run(assignments, reneges)
        }
    }

    #[test]
    fn digest_is_the_pinned_fnv_fold() {
        // The value the FNV-1a fold gave before it moved here (then
        // `fold_result` in the `scale` experiment); every pinned digest
        // depends on it staying bit for bit.
        let r = sample();
        assert_eq!(r.digest(), 0xaec8_77f6_194f_78bf);
        assert_eq!(r.fold_digest(r.digest()), 0x35e6_99d8_f9e8_bde9);
    }

    #[test]
    fn equal_results_have_no_first_difference() {
        let (a, mut b) = (sample(), sample());
        // Wall-clock fields and engine counters are not outputs.
        b.batch_time.push(0.5);
        b.events_processed = 99;
        assert_eq!(a.first_difference(&b, RenegeMatch::Exact), None);
        assert_eq!(a.first_difference(&b, RenegeMatch::RiderSet), None);
    }

    #[test]
    fn first_difference_names_the_field_of_each_mutation() {
        let a = sample();
        let diff = |mutate: &dyn Fn(&mut SimResult), reneges: RenegeMatch| {
            let mut b = sample();
            mutate(&mut b);
            a.first_difference(&b, reneges)
        };
        let exact = |mutate: &dyn Fn(&mut SimResult)| {
            diff(mutate, RenegeMatch::Exact).expect("a difference")
        };
        assert_eq!(exact(&|b| b.still_waiting = 2), "still_waiting: 1 vs 2");
        let revenue = exact(&|b| b.total_revenue = f64::from_bits(b.total_revenue.to_bits() + 1));
        assert!(
            revenue.starts_with("total_revenue: 494.75 vs 494.75000000000006"),
            "{revenue}"
        );
        // `driver_idle_ms` is not in the digest, but it is an output.
        let idle = |b: &mut SimResult| b.assignments[1].driver_idle_ms += 1;
        let mut b = sample();
        idle(&mut b);
        assert_eq!(a.digest(), b.digest());
        let msg = exact(&idle);
        assert!(
            msg.starts_with("assignment 1 (rider 9, driver 0, batch_ms 6000): driver_idle_ms: "),
            "{msg}"
        );
        assert_eq!(
            exact(&|b| {
                b.assignments.pop();
            }),
            "assignments: 2 vs 1 records, equal over the first 1"
        );
        let late = |b: &mut SimResult| b.reneges[0].renege_ms += 1;
        let msg = exact(&late);
        assert!(msg.starts_with("renege 0 (rider 7): renege_ms: "), "{msg}");
        assert_eq!(diff(&late, RenegeMatch::RiderSet), None);
        let other_rider = |b: &mut SimResult| b.reneges[0].rider = RiderId(8);
        assert_eq!(
            diff(&other_rider, RenegeMatch::RiderSet).as_deref(),
            Some("reneged riders, in id order, differ at 0: Some(7) vs Some(8)")
        );
    }

    #[test]
    fn equal_nan_estimates_compare_equal() {
        let (mut a, mut b) = (sample(), sample());
        a.assignments[1].estimated_idle_s = Some(f64::NAN);
        b.assignments[1].estimated_idle_s = Some(f64::NAN);
        assert_eq!(a.first_difference(&b, RenegeMatch::Exact), None);
        b.assignments[1].estimated_idle_s = None;
        let msg = a
            .first_difference(&b, RenegeMatch::Exact)
            .expect("NaN vs None");
        assert!(msg.contains("estimated_idle_s: "), "{msg}");
    }

    #[test]
    fn idle_pairs_join_consecutive_assignments() {
        let result = run(
            vec![
                // Driver 0: drops off at 100_000, estimated idle 30 s,
                // next assignment at batch 140_000 → realized 40 s.
                rec(0, 10_000, 10_000, 100_000, Some(30.0)),
                rec(0, 140_000, 40_000, 200_000, Some(9.0)),
                // Driver 1: one assignment only → no pair.
                rec(1, 15_000, 15_000, 90_000, Some(5.0)),
            ],
            vec![],
        );
        let pairs = result.idle_estimate_pairs();
        assert_eq!(pairs, vec![(30.0, 40.0)]);
    }

    #[test]
    fn idle_pairs_skip_a_driver_who_went_off_shift_in_between() {
        // Driver 0 drops off at 95.258 s, goes off shift at 1 200 s and
        // comes back at 2 400 s; its next order, at 3 000 s, ends an
        // idle interval of 600 s that began at the wake-up, not at the
        // dropoff. Driver 1 idles straight through and keeps its pair.
        let result = run(
            vec![
                rec(0, 0, 0, 95_258, Some(4_371.0)),
                rec(1, 0, 0, 50_000, Some(20.0)),
                rec(0, 3_000_000, 600_000, 3_100_000, None),
                rec(1, 80_000, 30_000, 150_000, None),
            ],
            vec![],
        );
        assert_eq!(result.idle_estimate_pairs(), vec![(20.0, 30.0)]);
    }

    #[test]
    fn baselines_without_estimates_yield_no_pairs() {
        let result = run(
            vec![
                rec(0, 10_000, 10_000, 100_000, None),
                rec(0, 140_000, 40_000, 200_000, None),
            ],
            vec![],
        );
        assert!(result.idle_estimate_pairs().is_empty());
    }

    #[test]
    fn idle_pairs_are_emitted_in_driver_id_order() {
        // Assignments logged with interleaved driver ids: the per-region
        // pairs must come out grouped by ascending driver id regardless
        // of log interleaving — the ordering a HashMap grouping leaked
        // hash state into before the BTreeMap conversion.
        let result = run(
            vec![
                rec(7, 10_000, 10_000, 100_000, Some(30.0)),
                rec(2, 12_000, 12_000, 110_000, Some(20.0)),
                rec(5, 14_000, 14_000, 120_000, Some(10.0)),
                rec(2, 150_000, 40_000, 210_000, Some(1.0)),
                rec(7, 160_000, 60_000, 220_000, Some(2.0)),
                rec(5, 170_000, 50_000, 230_000, Some(3.0)),
            ],
            vec![],
        );
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
            batch_time: bt,
            batches: 6,
            ticks_executed: 2,
            ..run(vec![], vec![])
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
            served: 3,
            reneged: 1,
            total_riders: 4,
            ..run(vec![], vec![])
        };
        assert_eq!(result.service_rate(), 0.75);
    }
}
