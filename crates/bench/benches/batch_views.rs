//! Per-batch view maintenance cost: the engine's incrementally updated
//! [`BatchViews`] (a handful of O(1) slot updates at event times, zero
//! per-batch work) against the full waiting/available/busy scans it
//! replaced (`rebuild_reference`, which walks every rider and the whole
//! fleet each executed batch). Both produce the same memberships; the
//! difference is pure engine overhead per executed batch, which is what
//! dominates fine-Δ days where most batches carry one or two changes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrvd_bench::BatchFixture;
use mrvd_sim::BatchViews;

fn bench_views(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_view_maintenance");
    g.sample_size(20);
    // One waiting rider over growing fleets: the sparse-change regime of
    // sub-second Δ, where the scan cost is pure overhead. Busy drivers
    // scale with the fleet (they are scanned too).
    for &(riders, avail, busy) in &[
        (1usize, 150usize, 30usize),
        (1, 4_000, 200),
        (1, 10_000, 500),
    ] {
        let f = BatchFixture::rush_hour(16, riders, avail, busy, 7);
        let size = format!("{riders}r/{avail}d/{busy}b");
        // The old engine: rebuild all three views from scratch scans of
        // the rider pool and the fleet, every executed batch.
        g.bench_with_input(BenchmarkId::new("scan-rebuild", &size), &f, |b, f| {
            let mut views = BatchViews::new();
            b.iter(|| {
                views.rebuild_reference(
                    f.riders.iter().copied(),
                    f.drivers.iter().copied(),
                    f.busy.iter().copied(),
                );
                views.waiting().len() + views.available().len() + views.busy().len()
            })
        });
        // The live engine: per executed batch the views absorb the few
        // event-time mutations (here one assignment round-trip: the
        // rider leaves, a driver goes busy and rejoins), and the batch
        // itself does no view work.
        g.bench_with_input(BenchmarkId::new("incremental", &size), &f, |b, f| {
            let mut views = BatchViews::new();
            views.rebuild_reference(
                f.riders.iter().copied(),
                f.drivers.iter().copied(),
                f.busy.iter().copied(),
            );
            let rider = f.riders[0];
            let driver = f.drivers[0];
            let busy = mrvd_sim::BusyDriver {
                id: driver.id,
                dropoff_ms: f.now_ms + 600_000,
                dropoff_pos: rider.dropoff,
            };
            b.iter(|| {
                views.remove_waiting(rider.id);
                views.remove_available(driver.id);
                views.add_busy(busy);
                views.remove_busy(driver.id);
                views.add_available(driver);
                views.add_waiting(rider);
                views.ops_applied()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_views);
criterion_main!(benches);
