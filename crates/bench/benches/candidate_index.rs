//! Candidate-generation cost: a query against an availability index that
//! is already built (the engine's live index, maintained by incremental
//! insert/remove at event times) against a from-scratch `BatchState`
//! rebuild plus the same query (what the legacy reference loop pays
//! every batch). Both produce identical candidate sets; the difference
//! is the per-batch rebuild the incremental index removes from the
//! dispatch hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrvd_bench::BatchFixture;
use mrvd_core::{valid_candidates_with, CandidateScratch};
use mrvd_spatial::ConstantSpeedModel;

fn bench_candidates(c: &mut Criterion) {
    let travel = ConstantSpeedModel::default();
    let mut g = c.benchmark_group("candidate_generation");
    g.sample_size(20);
    // Few riders over a large fleet is the regime where the per-batch
    // rebuild dominates useful work (e.g. fine-grained Δ: most executed
    // batches carry a handful of state changes).
    for &(riders, avail) in &[(1usize, 4000usize), (5, 500), (20, 2000), (50, 8000)] {
        let f = BatchFixture::rush_hour(16, riders, avail, 0, 7);
        let size = format!("{riders}r/{avail}d");
        g.bench_with_input(BenchmarkId::new("rebuild", &size), &f, |b, f| {
            let mut state = f.batch_state();
            let mut scratch = CandidateScratch::new();
            b.iter(|| {
                state.rebuild(
                    f.riders.iter().copied(),
                    f.drivers.iter().copied(),
                    f.busy.iter().copied(),
                );
                valid_candidates_with(&state.context(f.now_ms, &travel), 32, &mut scratch)
            })
        });
        g.bench_with_input(BenchmarkId::new("live-index", &size), &f, |b, f| {
            let state = f.batch_state();
            let mut scratch = CandidateScratch::new();
            b.iter(|| valid_candidates_with(&state.context(f.now_ms, &travel), 32, &mut scratch))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_candidates);
criterion_main!(benches);
