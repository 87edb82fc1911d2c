//! The named built-in scenarios.
//!
//! All built-ins share one "CI scale": an ~8K-order day (≈ 1/35 of the
//! paper's 282K-order test day) with a 150-driver baseline fleet — the
//! smallest regime where the paper's policy ordering sits outside
//! realization noise (see `tests/end_to_end.rs`). Use
//! [`ScenarioSpec::scaled`] to grow them toward paper scale or shrink
//! them for quick tests.

use crate::spec::{DriverPhase, HotspotInjection, ScenarioSpec, SurgeWindow};

const H: u64 = 3_600_000;
/// Shared base volume of the built-ins.
const BASE_ORDERS: f64 = 8_000.0;
/// Shared baseline fleet of the built-ins.
const BASE_DRIVERS: usize = 150;

/// An ordinary Monday: the paper's single-profile evaluation setting.
pub fn baseline_weekday() -> ScenarioSpec {
    ScenarioSpec::plain(
        "baseline-weekday",
        "plain Monday, constant fleet, nominal speed",
        BASE_ORDERS,
        BASE_DRIVERS,
    )
}

/// Morning and evening rush-hour surges on top of the weekday curve.
pub fn rush_hour_surge() -> ScenarioSpec {
    let mut s = ScenarioSpec::plain(
        "rush-hour-surge",
        "demand x1.6 07:00-09:30 and x1.5 17:30-20:00",
        BASE_ORDERS,
        BASE_DRIVERS,
    );
    s.surges = vec![
        SurgeWindow {
            start_ms: 7 * H,
            end_ms: 9 * H + H / 2,
            factor: 1.6,
        },
        SurgeWindow {
            start_ms: 17 * H + H / 2,
            end_ms: 20 * H,
            factor: 1.5,
        },
    ];
    s
}

/// Early-morning arrival pulses at the two airports (red-eye landings
/// flooding JFK and LGA with pickup requests before the city wakes up).
pub fn airport_pulse() -> ScenarioSpec {
    let mut s = ScenarioSpec::plain(
        "airport-pulse",
        "extra pickups at JFK and LGA 05:30-07:00",
        BASE_ORDERS,
        BASE_DRIVERS,
    );
    s.hotspots = vec![
        HotspotInjection {
            lon: -73.790,
            lat: 40.650, // JFK
            start_ms: 5 * H + H / 2,
            end_ms: 7 * H,
            extra_orders: 500.0,
        },
        HotspotInjection {
            lon: -73.870,
            lat: 40.770, // LGA
            start_ms: 5 * H + H / 2,
            end_ms: 7 * H,
            extra_orders: 350.0,
        },
    ];
    s
}

/// All-day rain: travel speed drops to 60% of nominal, so every pickup
/// leg and ride takes ~1.7x longer against unchanged deadlines.
pub fn rain_slowdown() -> ScenarioSpec {
    let mut s = ScenarioSpec::plain(
        "rain-slowdown",
        "rain cuts travel speed to 60% all day",
        BASE_ORDERS,
        BASE_DRIVERS,
    );
    s.speed_factor = 0.6;
    s
}

/// Structural under-supply: the fleet starts at 60% of baseline and the
/// 16:00 shift change loses another third of it.
pub fn driver_shortage() -> ScenarioSpec {
    let mut s = ScenarioSpec::plain(
        "driver-shortage",
        "90 drivers, dropping to 60 at the 16:00 shift change",
        BASE_ORDERS,
        90,
    );
    s.driver_phases = vec![
        DriverPhase {
            from_ms: 0,
            drivers: 90,
        },
        DriverPhase {
            from_ms: 16 * H,
            drivers: 60,
        },
    ];
    s
}

/// A slow Sunday: the day-of-week factor shrinks demand and a smaller
/// weekend fleet works with slack deadlines (riders are less hurried).
pub fn weekend_lull() -> ScenarioSpec {
    let mut s = ScenarioSpec::plain(
        "weekend-lull",
        "Sunday demand, 110 drivers, relaxed 240s patience",
        BASE_ORDERS,
        110,
    );
    s.day = 6; // Sunday (DOW factor 0.72)
    s.sim.base_wait_ms = Some(240_000);
    s
}

/// Every built-in scenario, in presentation order.
pub fn builtins() -> Vec<ScenarioSpec> {
    vec![
        baseline_weekday(),
        rush_hour_surge(),
        airport_pulse(),
        rain_slowdown(),
        driver_shortage(),
        weekend_lull(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_validate_and_have_unique_names() {
        let all = builtins();
        assert_eq!(all.len(), 6);
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        for s in &all {
            s.validate().unwrap();
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "duplicate builtin names");
    }

    #[test]
    fn every_builtin_round_trips_through_json() {
        for spec in builtins() {
            let text = serde_json::to_string_pretty(&spec.to_json()).unwrap();
            let back =
                ScenarioSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(spec, back, "{} did not round-trip", spec.name);
        }
    }

    #[test]
    fn shortage_fleet_is_strictly_smaller_than_baseline() {
        let base = baseline_weekday();
        let short = driver_shortage();
        assert!(short.driver_schedule().max_drivers() < base.driver_schedule().max_drivers());
        assert!(!short.driver_schedule().is_constant());
    }
}
