//! Demand-generation cost on the `city-*` world (64×64 grid over the NYC
//! extent, 50K orders): one whole NYC-like day; the day's gravity-kernel
//! table, built once per generated day; and one origin's gravity row, the
//! kernel-weighted destination row and its cumulative that every occupied
//! (slot, origin) cell builds once.

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
    g.bench_function("center_table/64x64", |b| {
        b.iter(|| black_box(&gen).gravity_kernel())
    });
    let kernel = gen.gravity_kernel();
    let origin = grid.at(32, 32).expect("inside a 64×64 grid");
    // Slot 17 (08:30), in the morning peak.
    let dest_w = gen.profile().dest_weights(17);
    let mut cum = Vec::new();
    g.bench_function("gravity_row/64x64", |b| {
        b.iter(|| {
            gen.gravity_cum_into(&kernel, black_box(origin), &dest_w, &mut cum);
            cum.last().copied()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_generation);
criterion_main!(benches);
