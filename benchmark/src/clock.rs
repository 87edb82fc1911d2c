//! The harness's only wall-clock read.
//!
//! Every timing the benchmark reports starts and ends at [`now`], so the
//! determinism lint has exactly one reasoned exemption in this package.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // lint:allow(D002): benchmark timers only; simulated results come from event time and are digest-checked
    Instant::now()
}

/// Nanoseconds elapsed since `start`.
pub fn since_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `start` to `end` (zero if `end` is earlier).
pub fn between_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}
