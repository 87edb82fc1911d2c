//! The metric table and the statistics the harness reports.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of every
//! metric name, unit, direction and bound: `--list` prints them, the
//! output is checked against them, and a test pins `BENCHMARK.json` to
//! exactly this set.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the dispatcher sees, measured with tracing off. Times
/// are at the reference host speed (see [`crate::speed`]): `setup_s`,
/// `sim_s` and each batch percentile are medians over the run's
/// repetitions. `README.md` gives the measured spreads behind each bound.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sim_s", "s", Better::Lower, 0.25),
    e2e("batch_p50_us", "us", Better::Lower, 0.25),
    e2e("batch_p99_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("revenue", "cost-s", Better::Higher, 0.03),
    e2e("service_rate", "fraction", Better::Higher, 0.05),
];

/// One layer each, named after the crates; measured on the traced run.
pub const PER_LAYER: [MetricSpec; 31] = [
    layer("demand.profile_s", "s", Better::Lower),
    layer("demand.trips_s", "s", Better::Lower),
    layer("demand.count_s", "s", Better::Lower),
    layer("demand.fleet_s", "s", Better::Lower),
    layer("demand.trips", "count", Better::Higher),
    layer("demand.regions", "count", Better::Higher),
    layer("sim.engine_s", "s", Better::Lower),
    layer("sim.engine_share", "fraction", Better::Lower),
    layer("sim.events", "count", Better::Lower),
    layer("sim.engine_ns_per_event", "ns", Better::Lower),
    layer("sim.ticks_executed", "count", Better::Lower),
    layer("sim.skip_rate", "fraction", Better::Higher),
    layer("sim.event_shards", "count", Better::Lower),
    layer("sim.views_ops", "count", Better::Lower),
    layer("sim.index_ops", "count", Better::Lower),
    layer("sim.counts_ops", "count", Better::Lower),
    layer("dispatch.calls", "count", Better::Lower),
    layer("dispatch.busy_s", "s", Better::Lower),
    layer("dispatch.riders_per_call", "count", Better::Lower),
    layer("dispatch.drivers_per_call", "count", Better::Lower),
    layer("dispatch.assigned", "count", Better::Higher),
    layer("dispatch.assign_yield", "fraction", Better::Higher),
    layer("candidates.busy_s", "s", Better::Lower),
    layer("candidates.share", "fraction", Better::Lower),
    layer("candidates.pairs", "count", Better::Lower),
    layer("candidates.rider_hit_rate", "fraction", Better::Higher),
    layer("rates.busy_s", "s", Better::Lower),
    layer("rates.share", "fraction", Better::Lower),
    layer("rates.et_solves", "count", Better::Lower),
    layer("select.busy_s", "s", Better::Lower),
    layer("trace.overhead_s", "s", Better::Lower),
];

/// Whether `name` is a valid metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// ascending: the smallest sample with at least `p` % of the samples at
/// or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    // Multiplying before dividing keeps `p · n / 100` exact for whole p.
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile `p` of each repetition's samples (each sorted
/// ascending), then the lower median over the repetitions. `None` when
/// no repetition has a sample.
pub fn median_percentile(reps: &[Vec<u64>], p: f64) -> Option<u64> {
    let per_rep: Vec<u64> = reps.iter().filter_map(|r| nearest_rank(r, p)).collect();
    median_of(&per_rep)
}

/// Lower median (`None` when empty): the middle value of an odd count,
/// the smaller middle value of an even count — always a measured sample.
pub fn median_of(values: &[u64]) -> Option<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    nearest_rank(&v, 50.0)
}
