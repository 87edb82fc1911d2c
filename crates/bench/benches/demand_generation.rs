//! Demand-generation cost on the `city-*` world (64×64 grid over the NYC
//! extent, 50K orders): one whole NYC-like day, and one origin's row of
//! centre distances — the part of the gravity kernel that every occupied
//! (slot, origin) cell pays once per destination region.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrvd_demand::{NycLikeConfig, NycLikeGenerator};
use mrvd_spatial::{Grid, NYC_EXTENT};

fn bench_generation(c: &mut Criterion) {
    let grid = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, 64, 64);
    let gen = NycLikeGenerator::with_grid(
        grid.clone(),
        NycLikeConfig {
            orders_per_day: 50_000.0,
            seed: 1,
            ..NycLikeConfig::default()
        },
    );
    let mut g = c.benchmark_group("demand_generation");
    g.sample_size(10);
    g.bench_function("generate_day_trips/64x64-50k", |b| {
        b.iter(|| gen.generate_day_trips(black_box(0)))
    });
    let origin = grid.at(32, 32).expect("inside a 64×64 grid");
    let mut row = Vec::new();
    g.bench_function("center_distances_from/64x64", |b| {
        b.iter(|| {
            grid.center_distances_from(black_box(origin), &mut row);
            row.last().copied()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
