//! Rate-estimation cost on the dispatch hot path: the lazy `RateTracker`
//! (counts, rates and idle times computed only at the batch's candidate
//! destinations) against the verbatim eager `estimate_rates` reference
//! (full rider/driver/busy scans + a queueing solve for every region per
//! batch). Both paths produce bit-identical assignments — the difference
//! is pure estimation overhead, which is what dominates IRG/LS/SHORT
//! batches once candidate generation runs off the live index (the
//! fine-Δ regime of the `delta` sweep). The eager cost grows with the
//! region count, so the last arm runs on the 64×64 grid of the `city-*`
//! benchmark workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrvd_bench::BatchFixture;
use mrvd_core::{DispatchConfig, QueueingPolicy};
use mrvd_sim::DispatchPolicy;
use mrvd_spatial::ConstantSpeedModel;

fn bench_rate_paths(c: &mut Criterion) {
    let travel = ConstantSpeedModel::default();
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
        g.bench_with_input(BenchmarkId::new("reference", &size), &(), |b, ()| {
            let mut policy = QueueingPolicy::irg(
                DispatchConfig {
                    reference_rates: true,
                    ..DispatchConfig::default()
                },
                fixture.oracle(),
            );
            b.iter(|| policy.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("tracker", &size), &(), |b, ()| {
            let mut policy = QueueingPolicy::irg(DispatchConfig::default(), fixture.oracle());
            b.iter(|| policy.assign(&ctx))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rate_paths);
criterion_main!(benches);
