//! Candidate-generation cost over an availability index that is already
//! built (the engine's live index, maintained by incremental
//! insert/remove at event times), in two states of the caller's scratch,
//! against a from-scratch `BatchState` rebuild plus the same queries
//! (what the legacy reference loop pays every batch):
//!
//! - `cold`: a fresh scratch per iteration, so every rider's box scan
//!   runs;
//! - `warm`: one scratch across iterations on an unchanged context, so a
//!   rider whose scan found no driver is answered from the scratch's
//!   memory of it, as in a batch where nothing moved near that rider.
//!
//! All arms produce identical candidate sets. The sizes are the paper's
//! 16×16 grid, plus two `city-*`-shaped batches of 20 riders on the
//! 64×64 grid. With 2 500 available drivers the 32-candidate budget binds
//! for two riders (36 and 50 valid drivers). The dense batch, 8 000
//! drivers, is the regime where candidate search skips most exact
//! distances: the budget binds for 8 riders (37 to 150 valid drivers),
//! who hold 627 of the batch's 686 valid pairs. Its deadlines, 5 to
//! 180 s, leave the other riders few drivers at any fleet size.

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
    for &(side, riders, avail) in &[
        (16u32, 1usize, 4000usize),
        (16, 5, 500),
        (16, 20, 2000),
        (16, 50, 8000),
        (64, 20, 2_500),
        (64, 20, 8_000),
    ] {
        let f = BatchFixture::rush_hour(side, riders, avail, 0, 7);
        let size = format!("{side}x{side}/{riders}r/{avail}d");
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
        g.bench_with_input(BenchmarkId::new("cold", &size), &f, |b, f| {
            let state = f.batch_state();
            b.iter(|| {
                let mut scratch = CandidateScratch::new();
                valid_candidates_with(&state.context(f.now_ms, &travel), 32, &mut scratch)
            })
        });
        g.bench_with_input(BenchmarkId::new("warm", &size), &f, |b, f| {
            let state = f.batch_state();
            let mut scratch = CandidateScratch::new();
            b.iter(|| valid_candidates_with(&state.context(f.now_ms, &travel), 32, &mut scratch))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_candidates);
criterion_main!(benches);
