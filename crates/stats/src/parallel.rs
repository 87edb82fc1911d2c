//! A minimal scoped worker pool for embarrassingly parallel jobs.
//!
//! Shared by the experiment harness and the scenario sweep runner: both
//! fan a fixed job list over `std::thread::scope` workers and need the
//! results back in input order so sweeps stay deterministic regardless
//! of the worker count.
//!
//! [`parallel_map`] is the workspace's one parallel root (`lint.toml
//! [roots]`), so its own code is held to the `mrvd-lint` C rules: no
//! panic-capable operation, no lock `expect`, no slice indexing. Job
//! panics still propagate — through the scope join, not through the
//! pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs `jobs` on up to `threads` scoped workers, preserving input
/// order. Worker count is clamped to `[1, jobs.len()]`; a panicking job
/// propagates once the scope joins.
///
/// Workers claim job indices from a shared counter and record
/// `(index, result)` pairs; the pairs are put back in input order after
/// the join, so the output never depends on which worker ran what.
pub fn parallel_map<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = f(job);
                relock(done.lock()).push((i, r));
            });
        }
    });
    let mut done = relock(done.into_inner());
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Recovers a poisoned result list. A job runs outside the lock, so a
/// panicking job cannot poison it — and that panic re-raises at the
/// scope join before the list is read anyway.
fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..40).collect::<Vec<u64>>(), 4, |&j| j * j);
        assert_eq!(out, (0..40).map(|j| j * j).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_empty_jobs_and_excess_threads() {
        assert_eq!(
            parallel_map(Vec::<u64>::new(), 8, |&j| j),
            Vec::<u64>::new()
        );
        assert_eq!(parallel_map(vec![1u64, 2], 16, |&j| j + 1), vec![2, 3]);
    }

    #[test]
    #[should_panic]
    fn a_panicking_job_propagates() {
        parallel_map((0..8).collect::<Vec<u64>>(), 3, |&j| {
            assert!(j != 5, "job 5 fails");
            j
        });
    }
}
