//! Per-batch running time of every dispatching algorithm — the quantity
//! the paper plots in Figures 7(b)–10(b). The batch state is a fixed
//! rush-hour snapshot; the rider-pool size is swept like the paper's
//! driver sweep (more drivers ⇒ more riders served per batch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrvd_bench::BatchFixture;
use mrvd_core::{DispatchConfig, Ltg, Near, Polar, PolarConfig, QueueingPolicy, Rand};
use mrvd_sim::DispatchPolicy;
use mrvd_spatial::ConstantSpeedModel;

fn bench_policies(c: &mut Criterion) {
    let travel = ConstantSpeedModel::default();
    let mut g = c.benchmark_group("batch_assign");
    g.sample_size(20);
    for &(riders, avail, busy) in &[
        (200usize, 20usize, 500usize),
        (600, 60, 1500),
        (1200, 120, 3000),
    ] {
        let f = BatchFixture::rush_hour(16, riders, avail, busy, 7);
        let state = f.batch_state();
        let ctx = state.context(f.now_ms, &travel);
        let size = format!("{riders}r/{avail}d");
        g.bench_with_input(BenchmarkId::new("IRG", &size), &f, |b, f| {
            let mut p = QueueingPolicy::irg(DispatchConfig::default(), f.oracle());
            b.iter(|| p.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("LS", &size), &f, |b, f| {
            let mut p = QueueingPolicy::ls(DispatchConfig::default(), f.oracle());
            b.iter(|| p.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("SHORT", &size), &f, |b, f| {
            let mut p = QueueingPolicy::short(DispatchConfig::default(), f.oracle());
            b.iter(|| p.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("LTG", &size), &f, |b, _| {
            let mut p = Ltg::default();
            b.iter(|| p.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("NEAR", &size), &f, |b, _| {
            let mut p = Near::default();
            b.iter(|| p.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("RAND", &size), &f, |b, _| {
            let mut p = Rand::new(3);
            b.iter(|| p.assign(&ctx))
        });
        g.bench_with_input(BenchmarkId::new("POLAR", &size), &f, |b, f| {
            let mut p = Polar::new(
                PolarConfig::default(),
                &f.oracle(),
                &f.grid,
                f.drivers.len(),
            );
            b.iter(|| p.assign(&ctx))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
