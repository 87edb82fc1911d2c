//! The drivers no batch view shows.
//!
//! A driver on shift is in exactly one of the live views a batch sees:
//! available at a position since a time, or busy with a known rejoin
//! time and place. The event core keeps those facts only there, in its
//! `BatchState`. [`Fleet`] holds the two kinds of driver that no view
//! shows:
//!
//! - a driver parked off shift, with the position it parked at, so a
//!   later shift change resumes there;
//! - a driver in a ride who is marked to retire when the ride ends, with
//!   that ride, so a cancelled retirement can put the driver back into
//!   upcoming supply (a retiring driver will not rejoin, so the busy view
//!   leaves it out).
//!
//! Every other driver is in a view, and the fleet holds nothing for it.
//! The reference loop keeps its own array-of-structs `DriverState` in
//! `reference.rs`, for its literal per-Δ scan.

use mrvd_spatial::Point;

use crate::policy::BusyDriver;

/// What the fleet holds for one driver.
#[derive(Debug, Clone, Copy)]
enum Hidden {
    /// Nothing: the driver is in the available or the busy view.
    InView,
    /// Off shift, parked at this position.
    Parked(Point),
    /// In this ride, and marked to retire when it ends.
    Retiring(BusyDriver),
}

/// The parked and retiring drivers, by pool index (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Fleet {
    drivers: Vec<Hidden>,
}

impl Fleet {
    /// The fleet of a day that starts with the first `initial_online`
    /// drivers of `pool` on shift (the caller puts them into the
    /// available view) and the rest parked at their spawn positions.
    pub fn new(pool: &[Point], initial_online: usize) -> Self {
        Self {
            drivers: pool
                .iter()
                .enumerate()
                .map(|(i, &pos)| {
                    if i < initial_online {
                        Hidden::InView
                    } else {
                        Hidden::Parked(pos)
                    }
                })
                .collect(),
        }
    }

    /// Number of drivers in the pool.
    pub fn len(&self) -> usize {
        self.drivers.len()
    }

    /// Whether the driver is parked off shift.
    pub fn is_parked(&self, i: usize) -> bool {
        matches!(self.drivers[i], Hidden::Parked(_))
    }

    /// Parks the driver off shift at `pos`.
    pub fn park(&mut self, i: usize, pos: Point) {
        self.drivers[i] = Hidden::Parked(pos);
    }

    /// Takes a parked driver back on shift, returning where it parked;
    /// `None`, and no change, if the driver is not parked.
    pub fn unpark(&mut self, i: usize) -> Option<Point> {
        let Hidden::Parked(pos) = self.drivers[i] else {
            return None;
        };
        self.drivers[i] = Hidden::InView;
        Some(pos)
    }

    /// Marks the driver of `ride`, which has just left the busy view, to
    /// retire when the ride ends.
    pub fn retire(&mut self, ride: BusyDriver) {
        self.drivers[ride.id.0 as usize] = Hidden::Retiring(ride);
    }

    /// Takes back a driver marked to retire, returning its ride (the
    /// retirement is cancelled, or the ride has ended); `None`, and no
    /// change, if the driver is not retiring.
    pub fn take_retiring(&mut self, i: usize) -> Option<BusyDriver> {
        let Hidden::Retiring(ride) = self.drivers[i] else {
            return None;
        };
        self.drivers[i] = Hidden::InView;
        Some(ride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DriverId;

    fn pool(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(-73.97 + i as f64 * 0.001, 40.75))
            .collect()
    }

    #[test]
    fn seeding_splits_online_and_offline() {
        let p = pool(5);
        let mut f = Fleet::new(&p, 3);
        assert_eq!(f.len(), 5);
        for i in 0..3 {
            assert!(!f.is_parked(i));
            assert_eq!(f.unpark(i), None, "an online driver is not parked");
        }
        for (i, &spawn) in p.iter().enumerate().skip(3) {
            assert!(f.is_parked(i));
            assert_eq!(f.unpark(i), Some(spawn), "parked at its spawn point");
            assert!(!f.is_parked(i));
        }
    }

    #[test]
    fn transitions_round_trip_payloads() {
        let mut f = Fleet::new(&pool(2), 2);
        let dropoff = Point::new(-73.90, 40.80);
        let ride = BusyDriver {
            id: DriverId(0),
            dropoff_ms: 42_000,
            dropoff_pos: dropoff,
        };
        f.retire(ride);
        assert!(!f.is_parked(0), "a retiring driver is still in its ride");
        assert_eq!(f.unpark(0), None);
        let back = f.take_retiring(0).expect("marked to retire");
        assert_eq!((back.id, back.dropoff_ms), (DriverId(0), 42_000));
        assert_eq!(back.dropoff_pos, dropoff);
        assert!(f.take_retiring(0).is_none(), "taking it back clears it");
        f.park(0, back.dropoff_pos);
        assert!(f.is_parked(0));
        assert!(f.take_retiring(0).is_none());
        assert_eq!(f.unpark(0), Some(dropoff), "parks at the ride's dropoff");
        assert!(!f.is_parked(1));
    }
}
