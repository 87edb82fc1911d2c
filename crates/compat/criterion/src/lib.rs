//! Offline stand-in for `criterion`: a small wall-clock benchmark
//! harness exposing the API subset the `mrvd-bench` benches use
//! ([`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher`],
//! [`black_box`], [`criterion_group!`], [`criterion_main!`]).
//!
//! The build environment has no registry access, so this lives in-tree.
//! It does honest timing (warmup, then timed batches, median-of-samples
//! reporting) but none of real criterion's statistics, plotting, or
//! baseline storage. `--bench` / `--test` CLI args are accepted and
//! ignored except that `--test` (or `CRITERION_SMOKE=1`) switches to one
//! iteration per benchmark, which is what `cargo test --benches` runs.

#![expect(
    clippy::disallowed_methods,
    reason = "bench harness: wall-clock measurement is the shim's purpose"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Harness entry point; one per bench binary.
pub struct Criterion {
    sample_size: usize,
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let smoke =
            args.iter().any(|a| a == "--test") || std::env::var_os("CRITERION_SMOKE").is_some();
        Criterion {
            sample_size: 10,
            smoke,
        }
    }
}

impl Criterion {
    /// Accepts real criterion's CLI configuration entry point; the shim
    /// already read the args it honors in `default()`.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            smoke: self.smoke,
            _parent: self,
        }
    }

    /// Times a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(id, self.sample_size, self.smoke, f);
        self
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    smoke: bool,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` under `<group>/<id>`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_benchmark(&label, self.sample_size, self.smoke, f);
        self
    }

    /// Times `f` with a borrowed input under `<group>/<id>`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_benchmark(&label, self.sample_size, self.smoke, |b| f(b, input));
        self
    }

    /// Ends the group (report flushing is a no-op in the shim).
    pub fn finish(self) {}
}

/// A `function/parameter` benchmark label.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds `<function>/<parameter>`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }
}

/// Passed to the closure; `iter` times the routine.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    target_iters: u64,
}

impl Bencher {
    /// Runs `routine` `target_iters` times, accumulating wall time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.target_iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.iters_done += self.target_iters;
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, smoke: bool, mut f: F) {
    if smoke {
        // `cargo test --benches` mode: execute once to prove it runs.
        let mut b = Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
            target_iters: 1,
        };
        f(&mut b);
        println!("{label}: smoke ok");
        return;
    }

    // Warmup and iteration-count calibration: aim for samples of ~50 ms,
    // capped so slow end-to-end benches still finish promptly.
    let mut b = Bencher {
        iters_done: 0,
        elapsed: Duration::ZERO,
        target_iters: 1,
    };
    f(&mut b);
    let per_iter = if b.iters_done > 0 {
        b.elapsed / b.iters_done as u32
    } else {
        Duration::ZERO
    };
    let target_iters = if per_iter.is_zero() {
        1_000
    } else {
        (Duration::from_millis(50).as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 100_000) as u64
    };

    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher {
            iters_done: 0,
            elapsed: Duration::ZERO,
            target_iters,
        };
        f(&mut b);
        if b.iters_done > 0 {
            samples.push(b.elapsed.as_secs_f64() / b.iters_done as f64);
        }
    }
    if samples.is_empty() {
        println!("{label}: no samples (closure never called iter)");
        return;
    }
    samples.sort_by(f64::total_cmp); // D004: bare f64 samples; equal keys are identical values
    let median = samples[samples.len() / 2];
    let lo = samples[0];
    let hi = samples[samples.len() - 1];
    println!(
        "{label}: median {} (min {}, max {}, {} samples × {} iters)",
        format_duration(Duration::from_secs_f64(median)),
        format_duration(Duration::from_secs_f64(lo)),
        format_duration(Duration::from_secs_f64(hi)),
        samples.len(),
        target_iters,
    );
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `fn main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_and_reports() {
        std::env::set_var("CRITERION_SMOKE", "1");
        let mut c = Criterion::default().configure_from_args();
        let mut calls = 0u64;
        c.bench_function("noop", |b| b.iter(|| calls += 1));
        assert!(calls >= 1);
        let mut g = c.benchmark_group("grp");
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        g.finish();
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(500)), "500.00 µs");
        assert_eq!(format_duration(Duration::from_millis(500)), "500.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.000 s");
    }
}
