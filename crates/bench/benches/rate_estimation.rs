//! Rate-estimation cost on the dispatch hot path: the incremental lazy
//! `RateTracker` (the batch's per-region counts, idle times solved only
//! for touched regions) against the verbatim eager
//! `estimate_rates` reference (full rider/driver/busy scans + a
//! 256-region queueing solve per batch). Both paths produce bit-identical
//! assignments — the difference is pure estimation overhead, which is
//! what dominates IRG/LS/SHORT batches once candidate generation runs
//! off the live index (the fine-Δ regime of `BENCH_delta.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrvd_bench::BatchFixture;
use mrvd_core::{DispatchConfig, QueueingPolicy};
use mrvd_sim::DispatchPolicy;
use mrvd_spatial::ConstantSpeedModel;

fn bench_rate_paths(c: &mut Criterion) {
    let travel = ConstantSpeedModel::default();
    let mut g = c.benchmark_group("irg_batch_by_rate_path");
    g.sample_size(20);
    // (riders, available, busy): the sparse-change fine-Δ regime first,
    // then denser batches where candidate work grows alongside.
    for &(riders, avail, busy) in &[(1usize, 4000usize, 200usize), (5, 500, 50), (20, 2000, 400)] {
        let mut fixture = BatchFixture::rush_hour(riders, avail, busy, 7);
        // Anchored riders guarantee every batch assigns (the same
        // regime the `delta` subcommand's microbench reports).
        fixture.anchor_riders_to_drivers();
        let state = fixture.batch_state();
        let ctx = state.context(fixture.now_ms, &travel);
        let size = format!("{riders}r/{avail}d/{busy}b");
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
