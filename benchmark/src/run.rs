//! Repetitions, output checks and the reported numbers.
//!
//! One repetition ("op") generates the world, builds the policy and
//! simulates one day. It fails if it panics or fails a check:
//! the rider balance, one assignment per served rider, one `assign`
//! call per executed tick, a digest identical across the run's
//! repetitions (traced and untraced alike), and at seed 1 the digest
//! pinned in [`crate::workload::WORKLOADS`].
//!
//! A repetition keeps its wall times raw, with the host-speed samples
//! taken out, and the scale of each phase; the reductions report every
//! time at the reference host speed (see [`crate::speed`]).

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use mrvd_core::{DemandOracle, DispatchConfig, Near};
use mrvd_sim::{DispatchPolicy, DriverSchedule, ShardedEventQueue, SimResult, Simulator};
use mrvd_spatial::ConstantSpeedModel;

use crate::clock;
use crate::metrics::{median_of, median_percentile, MetricSpec, END_TO_END, PER_LAYER};
use crate::timed::{Probe, Span, TimedPolicy};
use crate::workload::{sim_config, DemandTimes, PolicyKind, World, WorldSize};

/// The seed whose digests are pinned.
pub const PINNED_SEED: u64 = 1;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name (for messages and the trace file).
    pub name: &'static str,
    /// The world to simulate.
    pub size: WorldSize,
    /// The policy.
    pub policy: PolicyKind,
    /// Expected digest at [`PINNED_SEED`].
    pub pinned_digest: u64,
    /// Benchmark seed.
    pub seed: u64,
    /// Per-layer run (untraced + traced pairs) instead of end-to-end.
    pub trace: bool,
    /// Fixed repetition count; `None` runs repetitions while the next
    /// one is expected to end within `seconds`.
    pub reps: Option<usize>,
    /// Time budget of the run, seconds.
    pub seconds: f64,
}

/// Counters of the layer probes on a traced repetition.
#[derive(Debug, Clone)]
pub struct ProbeTotals {
    /// Time in the candidate probe, ns.
    pub candidates_ns: u64,
    /// Valid pairs found.
    pub pairs: u64,
    /// Riders with at least one candidate.
    pub riders_hit: u64,
    /// Time in the rate probe, ns.
    pub rates_ns: u64,
    /// Time inside the wrapper (probes plus `assign`), ns.
    pub wrapper_ns: u64,
    /// Every span of the repetition.
    pub spans: Vec<Span>,
}

/// Everything one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// From the first demand call until the policy is built, ns. Like
    /// every wall time here, it leaves out the host-speed samples and is
    /// not yet scaled.
    pub setup_ns: u64,
    /// The demand calls inside setup.
    pub demand: DemandTimes,
    /// Trips generated.
    pub trips: usize,
    /// Grid regions.
    pub regions: usize,
    /// Wall time of `run_scheduled`, ns.
    pub sim_ns: u64,
    /// Time inside `assign`, per executed batch in call order, ns.
    pub batch_ns: Vec<u64>,
    /// FNV-1a digest of the simulated outputs.
    pub digest: u64,
    /// The simulation result, without its logs.
    pub result: SimResult,
    /// Event-queue shards the engine used.
    pub event_shards: usize,
    /// `assign` calls.
    pub calls: u64,
    /// Total time inside `assign`, ns.
    pub busy_ns: u64,
    /// Riders offered, summed over calls.
    pub riders: u64,
    /// Drivers offered, summed over calls.
    pub drivers: u64,
    /// Assignments returned.
    pub assigned: u64,
    /// Idle-time solves of the policy's own rate tracker.
    pub et_solves: u64,
    /// Probe counters of a traced repetition.
    pub probe: Option<ProbeTotals>,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Host-speed scale of set-up (see [`crate::speed`]).
    pub setup_scale: f64,
    /// Host-speed scale of the simulation.
    pub sim_scale: f64,
}

/// FNV-1a (64-bit) fold of one little-endian `u64` into `hash`.
fn fnv_u64(hash: &mut u64, value: u64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a digest of the simulated outputs of one run: counts, revenue
/// bits and the full assignment and renege streams, folded exactly as
/// the `scale` experiment folds them. Nothing wall-clock-dependent.
pub fn digest(r: &SimResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv_u64(&mut hash, r.served as u64);
    fnv_u64(&mut hash, r.reneged as u64);
    fnv_u64(&mut hash, r.still_waiting as u64);
    fnv_u64(&mut hash, r.total_riders as u64);
    fnv_u64(&mut hash, r.total_revenue.to_bits());
    fnv_u64(&mut hash, r.batches as u64);
    for a in &r.assignments {
        fnv_u64(&mut hash, u64::from(a.rider.0));
        fnv_u64(&mut hash, u64::from(a.driver.0));
        fnv_u64(&mut hash, a.batch_ms);
        fnv_u64(&mut hash, a.pickup_ms);
        fnv_u64(&mut hash, a.dropoff_ms);
        fnv_u64(&mut hash, a.revenue.to_bits());
    }
    for x in &r.reneges {
        fnv_u64(&mut hash, u64::from(x.rider.0));
        fnv_u64(&mut hash, x.request_ms);
        fnv_u64(&mut hash, x.renege_ms);
    }
    hash
}

/// Generates the world, builds the policy and simulates one day.
pub fn run_rep(size: &WorldSize, policy: PolicyKind, seed: u64, traced: bool) -> Rep {
    let (world, demand) = World::generate(size, seed);
    match policy {
        PolicyKind::IrgR => {
            let p = PolicyKind::irg(world.series.clone());
            let setup_ns = end_setup(&demand);
            let cfg = DispatchConfig::default();
            let probe = traced.then(|| {
                let oracle = DemandOracle::real(world.series.clone(), 0);
                Probe::new(cfg.max_candidates, Some((oracle, cfg.clone())))
            });
            simulate(size, seed, &world, p, probe, setup_ns, demand, |p| {
                p.rate_stats().ets_computed
            })
        }
        PolicyKind::Near => {
            let p = Near::default();
            let setup_ns = end_setup(&demand);
            let probe = traced.then(|| Probe::new(p.max_candidates, None));
            simulate(size, seed, &world, p, probe, setup_ns, demand, |_| 0)
        }
    }
}

/// Set-up time so far, without the host-speed samples taken inside it.
fn end_setup(demand: &DemandTimes) -> u64 {
    clock::since_ns(demand.started).saturating_sub(demand.speed.spent_ns())
}

#[allow(clippy::too_many_arguments)]
fn simulate<P: DispatchPolicy>(
    size: &WorldSize,
    seed: u64,
    world: &World,
    policy: P,
    probe: Option<Probe>,
    setup_ns: u64,
    mut demand: DemandTimes,
    et_solves: impl Fn(&P) -> u64,
) -> Rep {
    demand.speed.bracket();
    let setup_scale = demand.speed.scale();
    let travel = ConstantSpeedModel::default();
    let config = sim_config(size, seed);
    let event_shards = ShardedEventQueue::auto_shard_count(world.grid.num_regions());
    let sim = Simulator::new(config, &travel, &world.grid);
    let schedule = DriverSchedule::constant(world.fleet.len());
    let mut timed = TimedPolicy::new(policy, probe);
    let t = clock::now();
    let mut result = sim.run_scheduled(&world.trips, &world.fleet, &schedule, &mut timed);
    let sim_ns = clock::since_ns(t).saturating_sub(timed.speed.spent_ns());
    timed.speed.bracket();

    let mut failures = Vec::new();
    if result.served + result.reneged + result.still_waiting != result.total_riders {
        failures.push(format!(
            "rider balance: served {} + reneged {} + waiting {} != riders {}",
            result.served, result.reneged, result.still_waiting, result.total_riders
        ));
    }
    if result.assignments.len() != result.served {
        failures.push(format!(
            "{} assignments logged for {} served riders",
            result.assignments.len(),
            result.served
        ));
    }
    let calls = timed.batch_ns.len() as u64;
    if calls != result.ticks_executed as u64 {
        failures.push(format!(
            "{calls} assign calls for {} executed ticks",
            result.ticks_executed
        ));
    }
    let digest = digest(&result);
    // The logs are digested; dropping them keeps one run's memory flat.
    result.assignments = Vec::new();
    result.reneges = Vec::new();

    let busy_ns = timed.batch_ns.iter().sum();
    let probe = timed.probe.take().map(|p| ProbeTotals {
        candidates_ns: p.candidates_ns,
        pairs: p.pairs,
        riders_hit: p.riders_hit,
        rates_ns: p.rates_ns,
        wrapper_ns: p
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum(),
        spans: p.spans,
    });
    Rep {
        setup_ns,
        demand,
        trips: world.trips.len(),
        regions: world.grid.num_regions(),
        sim_ns,
        batch_ns: std::mem::take(&mut timed.batch_ns),
        digest,
        result,
        event_shards,
        calls,
        busy_ns,
        riders: timed.riders,
        drivers: timed.drivers,
        assigned: timed.assigned,
        et_solves: et_solves(timed.inner()),
        probe,
        failures,
        setup_scale,
        sim_scale: timed.speed.scale(),
    }
}

/// Runs one repetition, turning a panic into a failed op.
fn attempt(spec: &RunSpec, traced: bool) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_rep(&spec.size, spec.policy, spec.seed, traced)
    }))
    .map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// The run-level checks of one op: its digest and `assign` call count
/// must equal the run's first (`reference`), and at [`PINNED_SEED`] the
/// digest must equal the pinned one.
fn check(
    op: Result<Rep, String>,
    reference: &mut Option<(u64, u64)>,
    spec: &RunSpec,
) -> Result<Rep, Vec<String>> {
    let mut rep = op.map_err(|e| vec![e])?;
    let (digest, calls) = *reference.get_or_insert((rep.digest, rep.calls));
    if rep.digest != digest {
        rep.failures.push(format!(
            "digest {:016x} differs from the run's first {digest:016x}",
            rep.digest
        ));
    }
    if rep.calls != calls {
        rep.failures.push(format!(
            "{} assign calls, the run's first op made {calls}",
            rep.calls
        ));
    }
    if spec.seed == PINNED_SEED && rep.digest != spec.pinned_digest {
        rep.failures.push(format!(
            "digest {:016x} != pinned {:016x} at seed {PINNED_SEED}",
            rep.digest, spec.pinned_digest
        ));
    }
    if rep.failures.is_empty() {
        Ok(rep)
    } else {
        Err(rep.failures)
    }
}

/// The measured outcome of a run.
pub struct Outcome {
    /// Ops attempted (repetitions; a traced pair counts two).
    pub attempted: u64,
    /// Ops that panicked or failed a check.
    pub failed: u64,
    /// Every reported metric with its value, in table order; empty when
    /// any op failed.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Spans of the traced repetition the per-layer metrics come from.
    pub spans: Vec<Span>,
}

/// Runs the repetitions of `spec` and reduces them to metrics.
pub fn run(spec: &RunSpec) -> Outcome {
    let started = clock::now();
    let mut longest_ns = 0u64;
    // One entry per repetition (end-to-end) or per pair (per-layer).
    let mut units: Vec<Vec<Result<Rep, String>>> = Vec::new();
    // Read after the first op, before later ops add retained results, so
    // the peak is one day's and does not grow with the repetition count.
    let mut peak_kb = None;
    loop {
        let t = clock::now();
        let mut unit = vec![attempt(spec, false)];
        peak_kb = peak_kb.or_else(peak_rss_kb);
        if spec.trace {
            unit.push(attempt(spec, true));
        }
        units.push(unit);
        longest_ns = longest_ns.max(clock::since_ns(t));
        let done = match spec.reps {
            Some(n) => units.len() >= n.max(1),
            None => {
                let next_end = clock::since_ns(started).saturating_add(longest_ns);
                next_end as f64 > spec.seconds * 1e9
            }
        };
        if done {
            break;
        }
    }

    // Check every op; the first successful one sets the reference.
    let mut attempted = 0;
    let mut failed = 0;
    let mut reference = None;
    let mut good: Vec<Vec<Rep>> = Vec::new();
    for unit in units {
        let mut reps = Vec::new();
        for op in unit {
            attempted += 1;
            match check(op, &mut reference, spec) {
                Ok(rep) => {
                    eprintln!(
                        "[{}] op {attempted}: wall setup {:.4} s, sim {:.4} s; host-speed scale {:.3}, {:.3}",
                        spec.name,
                        secs(rep.setup_ns),
                        secs(rep.sim_ns),
                        rep.setup_scale,
                        rep.sim_scale
                    );
                    reps.push(rep);
                }
                Err(problems) => {
                    failed += 1;
                    for p in problems {
                        eprintln!("[{}] op {attempted} failed: {p}", spec.name);
                    }
                }
            }
        }
        good.push(reps);
    }
    // With no failed op every unit is complete.
    let (metrics, spans) = match (failed, spec.trace) {
        (0, true) => per_layer(good),
        (0, false) => (end_to_end(&good.concat(), peak_kb), Vec::new()),
        _ => (Vec::new(), Vec::new()),
    };
    Outcome {
        attempted,
        failed,
        metrics,
        spans,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A wall time at the reference host speed, ns.
fn scaled(ns: u64, scale: f64) -> u64 {
    (ns as f64 * scale).round() as u64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn pick(table: &'static [MetricSpec], values: Vec<(&str, f64)>) -> Vec<(MetricSpec, f64)> {
    table
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .unwrap_or(f64::NAN);
            (*m, v)
        })
        .collect()
}

/// End-to-end metrics over untraced repetitions, every time at the
/// reference host speed and the median over the repetitions; a batch
/// percentile is taken within each repetition first.
fn end_to_end(reps: &[Rep], peak_kb: Option<u64>) -> Vec<(MetricSpec, f64)> {
    let setup: Vec<u64> = reps
        .iter()
        .map(|r| scaled(r.setup_ns, r.setup_scale))
        .collect();
    let sim: Vec<u64> = reps.iter().map(|r| scaled(r.sim_ns, r.sim_scale)).collect();
    let batches: Vec<Vec<u64>> = reps
        .iter()
        .map(|r| {
            let mut b: Vec<u64> = r
                .batch_ns
                .iter()
                .map(|&ns| scaled(ns, r.sim_scale))
                .collect();
            b.sort_unstable();
            b
        })
        .collect();
    let us = |p| median_percentile(&batches, p).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let first = &reps[0].result;
    pick(
        &END_TO_END,
        vec![
            ("setup_s", median_of(&setup).map_or(f64::NAN, secs)),
            ("sim_s", median_of(&sim).map_or(f64::NAN, secs)),
            ("batch_p50_us", us(50.0)),
            ("batch_p99_us", us(99.0)),
            (
                "peak_rss_mb",
                peak_kb.map_or(f64::NAN, |kb| kb as f64 / 1024.0),
            ),
            ("revenue", first.total_revenue),
            ("service_rate", first.service_rate()),
        ],
    )
}

/// Per-layer metrics from the traced repetition with the median traced
/// simulation time, and its untraced partner for the overhead. Times are
/// at the reference host speed, each scaled by its own phase's speed.
fn per_layer(mut pairs: Vec<Vec<Rep>>) -> (Vec<(MetricSpec, f64)>, Vec<Span>) {
    pairs.sort_by_key(|p| scaled(p[1].sim_ns, p[1].sim_scale));
    let mut pair = pairs.swap_remove((pairs.len() - 1) / 2);
    let traced = pair.pop().expect("a pair holds a traced rep");
    let untraced = pair.pop().expect("a pair holds an untraced rep");
    let probe = traced.probe.expect("traced reps carry probe totals");
    let r = &traced.result;
    let setup = |ns| secs(scaled(ns, traced.setup_scale));
    let sim = |ns| secs(scaled(ns, traced.sim_scale));
    let sim_s = sim(traced.sim_ns);
    let busy_s = sim(traced.busy_ns);
    let engine_s = sim_s - sim(probe.wrapper_ns);
    let cand_s = sim(probe.candidates_ns);
    let rates_s = sim(probe.rates_ns);
    let calls = traced.calls as f64;
    let metrics = pick(
        &PER_LAYER,
        vec![
            ("demand.profile_s", setup(traced.demand.profile_ns)),
            ("demand.trips_s", setup(traced.demand.trips_ns)),
            ("demand.count_s", setup(traced.demand.count_ns)),
            ("demand.fleet_s", setup(traced.demand.fleet_ns)),
            ("demand.trips", traced.trips as f64),
            ("demand.regions", traced.regions as f64),
            ("sim.engine_s", engine_s),
            ("sim.engine_share", ratio(engine_s, engine_s + busy_s)),
            ("sim.events", r.events_processed as f64),
            (
                "sim.engine_ns_per_event",
                ratio(engine_s * 1e9, r.events_processed as f64),
            ),
            ("sim.ticks_executed", r.ticks_executed as f64),
            ("sim.skip_rate", r.skip_rate()),
            ("sim.event_shards", traced.event_shards as f64),
            ("sim.views_ops", r.views_ops as f64),
            ("sim.index_ops", r.index_ops as f64),
            ("sim.counts_ops", r.counts_ops as f64),
            ("dispatch.calls", calls),
            ("dispatch.busy_s", busy_s),
            (
                "dispatch.riders_per_call",
                ratio(traced.riders as f64, calls),
            ),
            (
                "dispatch.drivers_per_call",
                ratio(traced.drivers as f64, calls),
            ),
            ("dispatch.assigned", traced.assigned as f64),
            (
                "dispatch.assign_yield",
                ratio(traced.assigned as f64, traced.riders as f64),
            ),
            ("candidates.busy_s", cand_s),
            ("candidates.share", ratio(cand_s, busy_s)),
            ("candidates.pairs", probe.pairs as f64),
            (
                "candidates.rider_hit_rate",
                ratio(probe.riders_hit as f64, traced.riders as f64),
            ),
            ("rates.busy_s", rates_s),
            ("rates.share", ratio(rates_s, busy_s)),
            ("rates.et_solves", traced.et_solves as f64),
            ("select.busy_s", busy_s - cand_s - rates_s),
            (
                "trace.overhead_s",
                sim_s - secs(scaled(untraced.sim_ns, untraced.sim_scale)),
            ),
        ],
    );
    (metrics, probe.spans)
}

/// The process's peak resident set (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Writes `spans` as JSON lines to `<dir>/trace-<workload>.jsonl`.
pub fn write_trace(dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.batch
        )?;
    }
    out.flush()?;
    eprintln!("[out] wrote {} spans to {}", spans.len(), path.display());
    Ok(())
}

/// Prints one `name value unit` line per metric, the op counts, and as
/// the last line the JSON summary. Returns whether the run is correct:
/// no failed op and every metric finite.
pub fn report(outcome: &Outcome, expected: &[MetricSpec]) -> bool {
    let complete = outcome.metrics.len() == expected.len()
        && outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let correct = outcome.failed == 0 && complete;
    let mut json = Vec::new();
    for (m, v) in &outcome.metrics {
        println!("{} {v} {}", m.name, m.unit);
        if v.is_finite() {
            json.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
    }
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    correct
}
