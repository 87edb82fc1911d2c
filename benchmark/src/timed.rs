//! Timing the dispatch layer from outside the program.
//!
//! [`TimedPolicy`] wraps a production policy and times each call of its
//! `assign`. It forwards every other trait method, so the engine treats
//! the wrapped policy exactly like the bare one: same skipped ticks,
//! same pickups, same digest. Between batches, outside the timed calls,
//! it samples the host speed (see [`crate::speed`]).
//!
//! On the traced run a [`Probe`] also runs, before the policy, the same
//! public calls the policy makes into its two costly layers, on the
//! same `BatchContext`: candidate search (`valid_candidates_with` with
//! its own scratch) and, for the queueing policies, rate estimation
//! (`SparseUpcoming::compute`, `RateTracker::begin_batch_sparse`, and one
//! idle-time solve per candidate destination). The probe owns all of its
//! state, so the policy's decisions are unchanged. Spans stay in memory
//! until the run ends.

use std::time::Instant;

use mrvd_core::{
    valid_candidates_with, CandidateScratch, DemandOracle, DispatchConfig, RateTracker,
    SparseUpcoming,
};
use mrvd_sim::{Assignment, BatchContext, DispatchPolicy};

use crate::clock;
use crate::speed::SpeedProbe;

/// A span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One executed batch: the probes plus the policy's `assign`.
    Batch,
    /// The candidate-search probe.
    Candidates,
    /// The rate-estimation probe (empty for policies without rates).
    Rates,
    /// The policy's own `assign`.
    Assign,
}

impl SpanName {
    /// The name written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Batch => "batch",
            SpanName::Candidates => "candidates",
            SpanName::Rates => "rates",
            SpanName::Assign => "assign",
        }
    }
}

/// One traced interval; times are ns since the start of the simulation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub name: SpanName,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in the span list.
    pub parent: Option<u32>,
    /// Executed-batch index (the span's request identifier).
    pub batch: u32,
}

/// The rate layer as the queueing policy drives it, on probe-owned state.
struct RateProbe {
    oracle: DemandOracle,
    cfg: DispatchConfig,
    upcoming: SparseUpcoming,
    tracker: RateTracker,
    dest: Vec<usize>,
}

/// Counters and spans of the traced run.
pub struct Probe {
    epoch: Instant,
    max_candidates: usize,
    scratch: CandidateScratch,
    rates: Option<RateProbe>,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Time in the candidate probe, ns.
    pub candidates_ns: u64,
    /// Valid pairs found.
    pub pairs: u64,
    /// Riders with at least one candidate driver.
    pub riders_hit: u64,
    /// Time in the rate probe, ns.
    pub rates_ns: u64,
}

impl Probe {
    /// A probe mirroring a policy with candidate budget `max_candidates`
    /// and, when `rates` is given, the queueing policy's rate layer over
    /// that oracle and configuration.
    pub fn new(max_candidates: usize, rates: Option<(DemandOracle, DispatchConfig)>) -> Self {
        Self {
            epoch: clock::now(),
            max_candidates,
            scratch: CandidateScratch::new(),
            rates: rates.map(|(oracle, cfg)| RateProbe {
                oracle,
                cfg,
                upcoming: SparseUpcoming::default(),
                tracker: RateTracker::new(),
                dest: Vec::new(),
            }),
            spans: Vec::new(),
            candidates_ns: 0,
            pairs: 0,
            riders_hit: 0,
            rates_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        clock::between_ns(self.epoch, t)
    }

    fn push(&mut self, name: SpanName, start: Instant, end: Instant, parent: u32, batch: u32) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Some(parent),
            batch,
        };
        self.spans.push(span);
    }

    /// Runs the layer probes on one batch under the open span `parent`.
    fn observe(&mut self, ctx: &BatchContext<'_>, parent: u32, batch: u32) {
        let t0 = clock::now();
        let cands = valid_candidates_with(ctx, self.max_candidates, &mut self.scratch);
        let t1 = clock::now();
        self.candidates_ns += clock::between_ns(t0, t1);
        self.pairs += cands.num_pairs() as u64;
        self.riders_hit += cands.pairs.iter().filter(|c| !c.is_empty()).count() as u64;
        self.push(SpanName::Candidates, t0, t1, parent, batch);

        let t2 = clock::now();
        // The queueing policy estimates rates only when someone can be
        // matched, and solves idle times only at candidate destinations.
        if let Some(r) = self
            .rates
            .as_mut()
            .filter(|_| !ctx.riders.is_empty() && !ctx.drivers.is_empty())
        {
            r.upcoming.compute(&r.oracle, ctx.now_ms, r.cfg.tc_ms);
            r.tracker
                .begin_batch_sparse(ctx, r.upcoming.values(), r.upcoming.active(), &r.cfg);
            r.dest.clear();
            r.dest.extend(
                ctx.riders
                    .iter()
                    .zip(&cands.pairs)
                    .filter(|(_, c)| !c.is_empty())
                    .map(|(rider, _)| ctx.grid.region_of(rider.dropoff).idx()),
            );
            for &k in &r.dest {
                std::hint::black_box(r.tracker.et(k, &r.cfg));
            }
        }
        let t3 = clock::now();
        self.rates_ns += clock::between_ns(t2, t3);
        self.push(SpanName::Rates, t2, t3, parent, batch);
    }
}

/// A transparent timing wrapper around a dispatch policy.
pub struct TimedPolicy<P> {
    inner: P,
    /// Time inside the wrapped `assign`, per executed batch, ns.
    pub batch_ns: Vec<u64>,
    /// Waiting riders offered, summed over calls.
    pub riders: u64,
    /// Available drivers offered, summed over calls.
    pub drivers: u64,
    /// Assignments returned, summed over calls.
    pub assigned: u64,
    /// The layer probes of a traced run.
    pub probe: Option<Probe>,
    /// Host-speed samples, taken between batches.
    pub speed: SpeedProbe,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`; `probe` turns tracing on.
    pub fn new(inner: P, probe: Option<Probe>) -> Self {
        Self {
            inner,
            batch_ns: Vec::new(),
            riders: 0,
            drivers: 0,
            assigned: 0,
            probe,
            speed: SpeedProbe::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: DispatchPolicy> DispatchPolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let batch = u32::try_from(self.batch_ns.len()).unwrap_or(u32::MAX);
        let root = self.probe.as_mut().map(|p| {
            let id = u32::try_from(p.spans.len()).unwrap_or(u32::MAX);
            let at = p.ns(clock::now());
            p.spans.push(Span {
                name: SpanName::Batch,
                start_ns: at,
                end_ns: at,
                parent: None,
                batch,
            });
            p.observe(ctx, id, batch);
            id
        });
        let t = clock::now();
        let out = self.inner.assign(ctx);
        let end = clock::now();
        self.batch_ns.push(clock::between_ns(t, end));
        self.riders += ctx.riders.len() as u64;
        self.drivers += ctx.drivers.len() as u64;
        self.assigned += out.len() as u64;
        if let (Some(p), Some(root)) = (self.probe.as_mut(), root) {
            p.push(SpanName::Assign, t, end, root, batch);
            p.spans[root as usize].end_ns = p.ns(end);
        }
        self.speed.tick_at(end);
        out
    }

    fn teleports_pickup(&self) -> bool {
        self.inner.teleports_pickup()
    }

    fn invoke_every_batch(&self) -> bool {
        self.inner.invoke_every_batch()
    }
}
