//! Rate-estimation cost on the dispatch hot path: one IRG batch on the
//! lazy `RateTracker` (counts, rates and idle times computed only at the
//! batch's candidate destinations) against the verbatim eager reference
//! on the same context, `estimate_rates` + `expected_idle_times` (full
//! rider/driver/busy scans + a queueing solve for every region). The
//! `tracker` arm times a whole batch, candidate search and selection
//! included; the `eager_estimate` arm times only the estimation the
//! tracker replaces, from an oracle window computed once outside the
//! loop. The eager cost grows with the region count, so the last arm
//! runs on the 64×64 grid of the `city-*` benchmark workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrvd_bench::BatchFixture;
use mrvd_core::{estimate_rates, DispatchConfig, QueueingPolicy};
use mrvd_sim::DispatchPolicy;
use mrvd_spatial::ConstantSpeedModel;

fn bench_rate_paths(c: &mut Criterion) {
    let travel = ConstantSpeedModel::default();
    let cfg = DispatchConfig::default();
    let mut g = c.benchmark_group("irg_batch_by_rate_path");
    g.sample_size(20);
    // (grid side, riders, available, busy): the sparse-change fine-Δ
    // regime first, then denser batches where candidate work grows
    // alongside, then a `city-irg`-sized batch on its grid.
    for &(side, riders, avail, busy) in &[
        (16u32, 1usize, 4000usize, 200usize),
        (16, 5, 500, 50),
        (16, 20, 2000, 400),
        (64, 20, 2000, 400),
    ] {
        let mut fixture = BatchFixture::rush_hour(side, riders, avail, busy, 7);
        // Anchored riders guarantee every batch assigns: the tracker
        // path then pays its region fill, lazy idle-time solve and
        // μ-bump resolve, the representative executed-batch cost rather
        // than the no-candidate floor.
        fixture.anchor_riders_to_drivers();
        let state = fixture.batch_state();
        let ctx = state.context(fixture.now_ms, &travel);
        let size = format!("{side}x{side}/{riders}r/{avail}d/{busy}b");
        let upcoming = fixture.oracle().upcoming_riders(fixture.now_ms, cfg.tc_ms);
        g.bench_with_input(BenchmarkId::new("eager_estimate", &size), &(), |b, ()| {
            b.iter(|| estimate_rates(&ctx, &upcoming, &cfg).expected_idle_times(&cfg))
        });
        g.bench_with_input(BenchmarkId::new("tracker", &size), &(), |b, ()| {
            let mut policy = QueueingPolicy::irg(cfg.clone(), fixture.oracle());
            b.iter(|| policy.assign(&ctx))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rate_paths);
criterion_main!(benches);
