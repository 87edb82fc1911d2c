//! Microbenchmarks of the queueing analysis (§4): steady-state
//! computation and the closed-form expected idle time on all three
//! branches. Algorithm 2 solves the idle time at each candidate
//! destination and again after every μ-bump: on the `paper-irg`
//! benchmark day (seed 1) that is 110,101 solves over 27,873 batches,
//! about 4 per batch (Table 3's machinery).
//!
//! The last two `expected_idle_time` arms sit at that day's measured
//! operating points (β = 0.05): λ < μ with K = 70, the mean K of its
//! 64,589 λ < μ solves, at their median λ and μ; and λ > μ at μ/λ = 0.99,
//! where the stored distribution keeps 3,666 driver-side tail terms that
//! the closed form never reads.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrvd_queueing::{expected_idle_time, QueueParams, Reneging, SteadyState};

fn bench_expected_idle_time(c: &mut Criterion) {
    let mut g = c.benchmark_group("expected_idle_time");
    let cases = [
        (
            "riders_exceed",
            QueueParams::new(0.05, 0.01, 20, Reneging::Exp { beta: 0.05 }),
        ),
        (
            "drivers_exceed",
            QueueParams::new(0.01, 0.05, 20, Reneging::Exp { beta: 0.05 }),
        ),
        (
            "balanced",
            QueueParams::new(0.02, 0.02, 20, Reneging::Exp { beta: 0.05 }),
        ),
        (
            "large_k",
            QueueParams::new(0.01, 0.05, 2_000, Reneging::Exp { beta: 0.05 }),
        ),
        (
            "drivers_exceed_k70",
            QueueParams::new(0.024, 0.056, 70, Reneging::Exp { beta: 0.05 }),
        ),
        (
            "riders_exceed_ratio_0.99",
            QueueParams::new(0.0333, 0.0333 * 0.99, 19, Reneging::Exp { beta: 0.05 }),
        ),
    ];
    for (name, params) in cases {
        g.bench_function(name, |b| {
            b.iter(|| expected_idle_time(black_box(&params)).expect("converges"))
        });
    }
    g.finish();
}

fn bench_steady_state(c: &mut Criterion) {
    let params = QueueParams::new(0.03, 0.02, 50, Reneging::Exp { beta: 0.05 });
    c.bench_function("steady_state_compute", |b| {
        b.iter(|| SteadyState::compute(black_box(&params)).expect("converges"))
    });
}

fn bench_region_table(c: &mut Criterion) {
    // The full per-batch ET table: 256 regions with mixed rates.
    let params: Vec<QueueParams> = (0..256)
        .map(|k| {
            let lambda = 0.001 + (k % 17) as f64 * 0.003;
            let mu = 0.001 + (k % 11) as f64 * 0.004;
            QueueParams::new(
                lambda,
                mu,
                5 + (k % 40) as u64,
                Reneging::Exp { beta: 0.05 },
            )
        })
        .collect();
    c.bench_function("et_table_256_regions", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in &params {
                acc += expected_idle_time(black_box(p)).expect("converges");
            }
            acc
        })
    });
}

criterion_group!(
    benches,
    bench_expected_idle_time,
    bench_steady_state,
    bench_region_table
);
criterion_main!(benches);
