//! How fast the host runs while a phase is timed.
//!
//! On a shared VM the neighbours slow this process in phases that last
//! from a fraction of a second to minutes, and a slow phase stretches
//! every timing by 20–40 %. [`SpeedProbe`] times a small, fixed kernel
//! every [`INTERVAL_NS`] *inside* the phase being timed — between demand
//! cells during set-up, between batches during the simulation — so it
//! sees the same neighbours the program saw. The kernel is a frozen
//! miniature of the program's hot loops (gravity weights and inverse-CDF
//! draws like the demand generator; a ring scan, a distance sort and heap
//! churn like the dispatcher). It belongs to the benchmark, so no change
//! to the program can move it.
//!
//! A phase's reported time is its wall time, minus the time spent in the
//! kernel, times [`SpeedProbe::scale`]: the time the same work takes on a
//! host where the kernel runs in [`REFERENCE_NS`].

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::clock;

/// Wall time between in-phase samples, ns.
pub const INTERVAL_NS: u64 = 10_000_000;

/// The kernel's duration at the reference speed, ns: its typical time
/// on the 2-vCPU Xeon guest the benchmark was calibrated on, in a quiet
/// phase. Reported times are in seconds of that host.
pub const REFERENCE_NS: f64 = 45_000.0;

/// Grid side of the kernel's miniature bucket index.
const SIDE: usize = 16;

/// Points in the miniature index.
const POINTS: usize = 1024;

/// The kernel's state and the samples of one phase.
#[derive(Debug, Clone)]
pub struct SpeedProbe {
    last: Instant,
    buckets: Vec<Vec<(u32, f32, f32)>>,
    weights: Vec<f64>,
    found: Vec<(f32, u32)>,
    heap: BinaryHeap<(u32, u32)>,
    rng: u64,
    samples: Vec<u64>,
    spent_ns: u64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// Builds the kernel's data; the first in-phase sample is due one
    /// interval from now.
    pub fn new() -> Self {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut buckets = vec![Vec::new(); SIDE * SIDE];
        for id in 0..POINTS as u32 {
            let (x, y) = (unit(&mut rng) * SIDE as f32, unit(&mut rng) * SIDE as f32);
            buckets[cell(y) * SIDE + cell(x)].push((id, x, y));
        }
        Self {
            last: clock::now(),
            buckets,
            weights: Vec::with_capacity(SIDE * SIDE),
            found: Vec::with_capacity(POINTS),
            heap: BinaryHeap::with_capacity(POINTS),
            rng,
            samples: Vec::new(),
            spent_ns: 0,
        }
    }

    /// Samples if an interval has passed since the last sample.
    pub fn tick(&mut self) {
        self.tick_at(clock::now());
    }

    /// [`Self::tick`] with the caller's reading of the clock. The sample
    /// lands inside the caller's timed phase, so its time is added to
    /// [`Self::spent_ns`] for the caller to take out.
    pub fn tick_at(&mut self, now: Instant) {
        if clock::between_ns(self.last, now) >= INTERVAL_NS {
            self.spent_ns += self.sample();
        }
    }

    /// Samples outside any timed phase (before or after it), so that
    /// even a phase shorter than one interval has a sample.
    pub fn bracket(&mut self) {
        self.sample();
    }

    /// Time spent in in-phase samples so far, ns.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// Samples so far, ns each.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// [`scale_of`] the samples so far: multiplying a phase's time by it
    /// gives the time at the reference speed.
    pub fn scale(&self) -> f64 {
        scale_of(&self.samples)
    }

    /// Times the kernel once; returns its duration.
    fn sample(&mut self) -> u64 {
        let t = clock::now();
        black_box(self.kernel());
        let end = clock::now();
        let ns = clock::between_ns(t, end);
        self.samples.push(ns);
        self.last = end;
        ns
    }

    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..4 {
            // Demand: gravity weights from one origin, then inverse-CDF
            // draws by binary search.
            let (ox, oy) = (f64::from(self.coord()), f64::from(self.coord()));
            self.weights.clear();
            let mut cum = 0.0;
            for k in 0..SIDE * SIDE {
                let (cx, cy) = ((k % SIDE) as f64 + 0.5, (k / SIDE) as f64 + 0.5);
                let d = ((cx - ox).powi(2) + (cy - oy).powi(2)).sqrt();
                cum += (-d / 3.8).exp() * (1.0 + (k % 7) as f64);
                self.weights.push(cum);
            }
            for _ in 0..32 {
                let u = f64::from(unit(&mut self.rng)) * cum;
                acc += self.weights.partition_point(|&w| w < u) as u64;
            }
            // Dispatch: scan the rings around a query, sort the points in
            // range by distance, then churn a heap of the hits.
            let (qx, qy) = (self.coord(), self.coord());
            self.found.clear();
            let (bx, by) = (cell(qx), cell(qy));
            for y in by.saturating_sub(3)..(by + 4).min(SIDE) {
                for x in bx.saturating_sub(3)..(bx + 4).min(SIDE) {
                    for &(id, px, py) in &self.buckets[y * SIDE + x] {
                        let d = ((px - qx) * (px - qx) + (py - qy) * (py - qy)).sqrt();
                        if d < 3.0 {
                            self.found.push((d, id));
                        }
                    }
                }
            }
            self.found
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            self.heap.clear();
            for &(d, id) in &self.found {
                self.heap.push(((d * 1000.0) as u32, id));
            }
            while let Some((d, id)) = self.heap.pop() {
                acc = acc.wrapping_add(u64::from(d ^ id));
            }
        }
        acc
    }

    /// A pseudo-random coordinate in [0, SIDE).
    fn coord(&mut self) -> f32 {
        unit(&mut self.rng) * SIDE as f32
    }
}

/// `REFERENCE_NS` over the mean of `samples` (ns), leaving out those
/// above twice the median (the vCPU was taken away mid-sample); 1 when
/// there is none.
pub fn scale_of(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    let Some(&median) = s.get(s.len() / 2) else {
        return 1.0;
    };
    let kept: Vec<u64> = s.into_iter().filter(|&x| x <= 2 * median).collect();
    let mean = kept.iter().sum::<u64>() as f64 / kept.len() as f64;
    REFERENCE_NS / mean
}

/// The bucket of a coordinate in [0, SIDE).
fn cell(v: f32) -> usize {
    (v as usize).min(SIDE - 1)
}

/// A pseudo-random float in [0, 1) (xorshift64).
fn unit(state: &mut u64) -> f32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 40) as f32 / (1u64 << 24) as f32
}
