//! Struct-of-arrays fleet state for the event engine.
//!
//! At city scale (10K–50K drivers) the engine's hot transitions touch
//! one field of one driver at a time — a tag flip at dropoff, a
//! position at assignment, a retire flag at a shift change. The
//! array-of-structs `Vec<DriverState>` interleaves a 3-variant enum's
//! payloads (~32 bytes each) plus a separate retire-flag vector, so
//! every touch drags unrelated fields through cache. [`Fleet`] splits
//! the state into parallel arrays — one tag byte, one position, one
//! timestamp, one retire flag per driver — extending the slot
//! discipline `BatchViews` introduced in the views layer to the fleet
//! itself. The enum survives as `DriverState` in `reference.rs`, for the
//! reference loop's literal per-Δ scan.
//!
//! Field meaning depends on the tag:
//!
//! | tag       | `pos`              | `time`                 |
//! |-----------|--------------------|------------------------|
//! | Available | current position   | available since (ms)   |
//! | Busy      | ride dropoff point | dropoff time (ms)      |
//! | Offline   | parked position    | unused                 |

use mrvd_spatial::Point;

use crate::types::Millis;

/// A driver's coarse state; payload lives in the [`Fleet`] arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    /// On shift and idle.
    Available,
    /// Driving a rider; `pos` holds the dropoff point, `time` the
    /// dropoff timestamp.
    Busy,
    /// Off shift (never shown to policies); `pos` remembers where the
    /// driver parked so a later shift change resumes there.
    Offline,
}

/// Struct-of-arrays driver state (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Fleet {
    tag: Vec<Tag>,
    pos: Vec<Point>,
    time: Vec<Millis>,
    /// Busy drivers marked here retire (go offline) at their dropoff.
    retiring: Vec<bool>,
}

impl Fleet {
    /// Seeds the fleet from spawn positions: the first `initial_online`
    /// drivers start available at t = 0, the rest wait offline.
    pub fn new(pool: &[Point], initial_online: usize) -> Self {
        Self {
            tag: (0..pool.len())
                .map(|i| {
                    if i < initial_online {
                        Tag::Available
                    } else {
                        Tag::Offline
                    }
                })
                .collect(),
            pos: pool.to_vec(),
            time: vec![0; pool.len()],
            retiring: vec![false; pool.len()],
        }
    }

    /// Number of drivers in the pool.
    pub fn len(&self) -> usize {
        self.tag.len()
    }

    /// The driver's coarse state.
    pub fn tag(&self, i: usize) -> Tag {
        self.tag[i]
    }

    /// The driver's position payload (see the module table).
    pub fn pos(&self, i: usize) -> Point {
        self.pos[i]
    }

    /// The driver's timestamp payload (see the module table).
    pub fn time(&self, i: usize) -> Millis {
        self.time[i]
    }

    /// Whether the driver is marked to retire at its next dropoff.
    pub fn is_retiring(&self, i: usize) -> bool {
        self.retiring[i]
    }

    /// Marks or clears the retire-at-dropoff flag.
    pub fn set_retiring(&mut self, i: usize, v: bool) {
        self.retiring[i] = v;
    }

    /// Puts the driver on shift and idle at `pos` since `since_ms`.
    pub fn set_available(&mut self, i: usize, pos: Point, since_ms: Millis) {
        self.tag[i] = Tag::Available;
        self.pos[i] = pos;
        self.time[i] = since_ms;
    }

    /// Puts the driver on a ride ending at `dropoff` at `until_ms`.
    pub fn set_busy(&mut self, i: usize, dropoff: Point, until_ms: Millis) {
        self.tag[i] = Tag::Busy;
        self.pos[i] = dropoff;
        self.time[i] = until_ms;
    }

    /// Takes the driver off shift, parked wherever `pos` currently
    /// points (its last dropoff or idle position).
    pub fn set_offline(&mut self, i: usize) {
        self.tag[i] = Tag::Offline;
    }

    /// Number of drivers on shift and not pending retirement — the
    /// quantity shift reconciliation compares against its target.
    pub fn online(&self) -> usize {
        self.tag
            .iter()
            .zip(&self.retiring)
            .filter(|(t, &r)| **t != Tag::Offline && !r)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(-73.97 + i as f64 * 0.001, 40.75))
            .collect()
    }

    #[test]
    fn seeding_splits_online_and_offline() {
        let f = Fleet::new(&pool(5), 3);
        assert_eq!(f.len(), 5);
        assert_eq!(f.online(), 3);
        for i in 0..3 {
            assert_eq!(f.tag(i), Tag::Available);
            assert_eq!(f.time(i), 0);
        }
        for i in 3..5 {
            assert_eq!(f.tag(i), Tag::Offline);
        }
    }

    #[test]
    fn transitions_round_trip_payloads() {
        let mut f = Fleet::new(&pool(2), 2);
        let dropoff = Point::new(-73.90, 40.80);
        f.set_busy(0, dropoff, 42_000);
        assert_eq!(f.tag(0), Tag::Busy);
        assert_eq!(f.pos(0), dropoff);
        assert_eq!(f.time(0), 42_000);
        assert_eq!(f.online(), 2, "busy drivers are still on shift");
        f.set_retiring(0, true);
        assert!(f.is_retiring(0));
        assert_eq!(f.online(), 1, "retiring drivers leave the online count");
        f.set_retiring(0, false);
        f.set_available(0, dropoff, 42_000);
        assert_eq!(f.tag(0), Tag::Available);
        assert_eq!(f.time(0), 42_000);
        f.set_offline(0);
        assert_eq!(f.tag(0), Tag::Offline);
        assert_eq!(f.pos(0), dropoff, "offline parks at the last position");
        assert_eq!(f.online(), 1);
    }
}
