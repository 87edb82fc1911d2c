//! The declarative scenario specification and its JSON round-trip.

use mrvd_sim::{DriverSchedule, SimConfig};
use serde_json::{json, Value};

/// A time-boxed demand-rate multiplier: every `(slot, region)` cell whose
/// slot overlaps `[start_ms, end_ms)` has its Poisson rate multiplied by
/// `factor`, proportionally to the overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeWindow {
    /// Window start (ms since midnight, inclusive).
    pub start_ms: u64,
    /// Window end (ms since midnight, exclusive).
    pub end_ms: u64,
    /// Rate multiplier inside the window (`> 1` = surge, `< 1` = lull).
    pub factor: f64,
}

/// Extra origin mass injected at one location: `extra_orders` expected
/// additional pickups appear in the grid cell containing `(lon, lat)`,
/// spread over `[start_ms, end_ms)` proportionally to slot overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotInjection {
    /// Hotspot longitude.
    pub lon: f64,
    /// Hotspot latitude.
    pub lat: f64,
    /// Pulse start (ms since midnight, inclusive).
    pub start_ms: u64,
    /// Pulse end (ms since midnight, exclusive).
    pub end_ms: u64,
    /// Expected extra orders over the whole pulse.
    pub extra_orders: f64,
}

/// One phase of the piecewise driver-supply schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverPhase {
    /// Phase start (ms since midnight); the first phase must start at 0.
    pub from_ms: u64,
    /// Target fleet size from `from_ms` until the next phase.
    pub drivers: usize,
}

/// Optional simulator-parameter overrides; `None` keeps the
/// [`mrvd_sim::SimConfig`] default (Δ = 3 s, τ = 180 s). The horizon is
/// always the default one day: trips are generated across the whole day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOverrides {
    /// Batch interval Δ override, ms.
    pub batch_interval_ms: Option<u64>,
    /// Deadline-tightness override: base pickup wait τ, ms.
    pub base_wait_ms: Option<u64>,
}

/// A complete declarative workload scenario: an NYC-like base day plus
/// composable perturbations. Loadable from JSON ([`ScenarioSpec::from_json_str`])
/// and serializable back ([`ScenarioSpec::to_json`]); [`materialize`]
/// turns it into trips, a driver schedule and a travel model ready for
/// the simulator.
///
/// [`materialize`]: ScenarioSpec::materialize
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique short name (table row / JSON file stem).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Base NYC-like order volume before perturbations.
    pub orders_per_day: f64,
    /// Day index of the profile (0 = Monday; selects day-of-week and
    /// weather factors).
    pub day: usize,
    /// Master seed: drives trip generation, driver placement and
    /// deadline noise.
    pub seed: u64,
    /// Grid columns over the NYC extent (the scale axis; 16 = the
    /// paper-faithful default, 200 ≈ city-scale cell sizes).
    pub grid_cols: u32,
    /// Grid rows over the NYC extent.
    pub grid_rows: u32,
    /// Demand surge windows (multiplicative, composable).
    pub surges: Vec<SurgeWindow>,
    /// Spatial hotspot injections (additive origin mass).
    pub hotspots: Vec<HotspotInjection>,
    /// Piecewise driver-supply schedule.
    pub driver_phases: Vec<DriverPhase>,
    /// Travel-speed multiplier (1.0 = nominal, 0.5 = rain halves speed).
    pub speed_factor: f64,
    /// Simulator-parameter overrides.
    pub sim: SimOverrides,
}

impl ScenarioSpec {
    /// A plain weekday with a constant fleet and no perturbations —
    /// the base other scenarios modify.
    pub fn plain(name: &str, description: &str, orders_per_day: f64, drivers: usize) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
            orders_per_day,
            day: 0,
            seed: 42,
            grid_cols: 16,
            grid_rows: 16,
            surges: Vec::new(),
            hotspots: Vec::new(),
            driver_phases: vec![DriverPhase {
                from_ms: 0,
                drivers,
            }],
            speed_factor: 1.0,
            sim: SimOverrides::default(),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    /// Names the first problem, prefixed with the scenario name:
    /// non-positive volume or speed factor, an empty or oversized grid,
    /// inverted or out-of-day windows, non-positive surge factors,
    /// negative injection mass, an invalid driver schedule (empty, not
    /// starting at 0, or unsorted), a zero batch interval override, or a
    /// base wait override for which the latest deadline (day end + base
    /// wait + the default noise's upper end) overflows `u64`.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{}: {what}", self.name))
            }
        };
        check(
            self.orders_per_day > 0.0 && self.orders_per_day.is_finite(),
            "orders_per_day must be positive",
        )?;
        check(
            self.speed_factor > 0.0 && self.speed_factor.is_finite(),
            "speed_factor must be positive",
        )?;
        check(
            self.grid_cols > 0 && self.grid_rows > 0,
            "grid dimensions must be positive",
        )?;
        check(
            (self.grid_cols as u64)
                .checked_mul(self.grid_rows as u64)
                .is_some_and(|n| n <= u32::MAX as u64),
            "grid_cols x grid_rows overflows the u32 region-id space",
        )?;
        for s in &self.surges {
            check(s.start_ms < s.end_ms, "inverted surge window")?;
            check(
                s.end_ms <= mrvd_demand::DAY_MS,
                "surge window extends past the 24h day",
            )?;
            check(
                s.factor > 0.0 && s.factor.is_finite(),
                "surge factor must be positive",
            )?;
        }
        for h in &self.hotspots {
            check(h.start_ms < h.end_ms, "inverted hotspot window")?;
            check(
                h.end_ms <= mrvd_demand::DAY_MS,
                "hotspot window extends past the 24h day (its mass would be dropped)",
            )?;
            check(
                h.extra_orders >= 0.0 && h.extra_orders.is_finite(),
                "hotspot mass must be non-negative",
            )?;
        }
        // DriverSchedule::new re-checks ordering; this surfaces the
        // scenario name in the error.
        check(!self.driver_phases.is_empty(), "no driver phases")?;
        check(
            self.driver_phases[0].from_ms == 0,
            "the first driver phase must start at 0",
        )?;
        check(
            self.driver_phases
                .windows(2)
                .all(|w| w[0].from_ms < w[1].from_ms),
            "driver phases must be strictly increasing in time",
        )?;
        // Simulator::new asserts Δ > 0 and that the latest deadline fits
        // in u64; catch both here, by name.
        check(
            self.sim.batch_interval_ms != Some(0),
            "sim.batch_interval_ms must be positive",
        )?;
        let max_noise_ms = SimConfig::default().wait_noise_ms.1;
        check(
            self.sim.base_wait_ms.is_none_or(|w| {
                mrvd_demand::DAY_MS
                    .checked_add(w)
                    .and_then(|t| t.checked_add(max_noise_ms))
                    .is_some()
            }),
            "sim.base_wait_ms is so large that a pickup deadline overflows u64",
        )
    }

    /// The driver schedule declared by [`ScenarioSpec::driver_phases`].
    pub fn driver_schedule(&self) -> DriverSchedule {
        DriverSchedule::new(
            self.driver_phases
                .iter()
                .map(|p| (p.from_ms, p.drivers))
                .collect(),
        )
    }

    /// A copy with order volume, hotspot mass and driver counts scaled by
    /// `factor` (fleet sizes round, but never to zero). Used to shrink
    /// built-ins for quick tests and to grow them toward paper scale.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scaled: factor must be positive"
        );
        let mut s = self.clone();
        s.orders_per_day *= factor;
        for h in &mut s.hotspots {
            h.extra_orders *= factor;
        }
        for p in &mut s.driver_phases {
            p.drivers = ((p.drivers as f64 * factor).round() as usize).max(1);
        }
        s
    }

    /// Serializes the spec into the JSON schema documented in the README.
    pub fn to_json(&self) -> Value {
        json!({
            "name": self.name,
            "description": self.description,
            "orders_per_day": self.orders_per_day,
            "day": self.day,
            "seed": self.seed,
            "grid_cols": self.grid_cols,
            "grid_rows": self.grid_rows,
            "surges": self
                .surges
                .iter()
                .map(|s| json!({
                    "start_ms": s.start_ms,
                    "end_ms": s.end_ms,
                    "factor": s.factor,
                }))
                .collect::<Vec<Value>>(),
            "hotspots": self
                .hotspots
                .iter()
                .map(|h| json!({
                    "lon": h.lon,
                    "lat": h.lat,
                    "start_ms": h.start_ms,
                    "end_ms": h.end_ms,
                    "extra_orders": h.extra_orders,
                }))
                .collect::<Vec<Value>>(),
            "driver_phases": self
                .driver_phases
                .iter()
                .map(|p| json!({ "from_ms": p.from_ms, "drivers": p.drivers }))
                .collect::<Vec<Value>>(),
            "speed_factor": self.speed_factor,
            "sim": json!({
                "batch_interval_ms": self.sim.batch_interval_ms,
                "base_wait_ms": self.sim.base_wait_ms,
            }),
        })
    }

    /// Deserializes a spec from a parsed JSON value. Unknown and repeated
    /// fields are rejected so typos surface instead of silently
    /// disappearing (the shim's `Value::get` is first-occurrence-wins,
    /// so a duplicated key would otherwise shadow the later value), and
    /// a spec that fails [`ScenarioSpec::validate`] is an error too.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let obj_keys = |v: &Value, allowed: &[&str], what: &str| -> Result<(), String> {
            let Value::Object(fields) = v else {
                return Err(format!("{what}: expected an object"));
            };
            for (i, (k, _)) in fields.iter().enumerate() {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!("{what}: unknown field `{k}`"));
                }
                if fields[..i].iter().any(|(prev, _)| prev == k) {
                    return Err(format!("{what}: duplicate field `{k}`"));
                }
            }
            Ok(())
        };
        obj_keys(
            v,
            &[
                "name",
                "description",
                "orders_per_day",
                "day",
                "seed",
                "grid_cols",
                "grid_rows",
                "surges",
                "hotspots",
                "driver_phases",
                "speed_factor",
                "sim",
            ],
            "scenario",
        )?;
        let f64_field = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or non-numeric `{key}`"))
        };
        let u64_field = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer `{key}`"))
        };
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing or non-string `name`")?
            .to_string();
        let description = v
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let list = |key: &str| -> Vec<Value> {
            v.get(key)
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
                .unwrap_or_default()
        };
        let mut surges = Vec::new();
        for s in list("surges") {
            obj_keys(&s, &["start_ms", "end_ms", "factor"], "surge")?;
            surges.push(SurgeWindow {
                start_ms: u64_field(&s, "start_ms")?,
                end_ms: u64_field(&s, "end_ms")?,
                factor: f64_field(&s, "factor")?,
            });
        }
        let mut hotspots = Vec::new();
        for h in list("hotspots") {
            obj_keys(
                &h,
                &["lon", "lat", "start_ms", "end_ms", "extra_orders"],
                "hotspot",
            )?;
            hotspots.push(HotspotInjection {
                lon: f64_field(&h, "lon")?,
                lat: f64_field(&h, "lat")?,
                start_ms: u64_field(&h, "start_ms")?,
                end_ms: u64_field(&h, "end_ms")?,
                extra_orders: f64_field(&h, "extra_orders")?,
            });
        }
        let mut driver_phases = Vec::new();
        for p in list("driver_phases") {
            obj_keys(&p, &["from_ms", "drivers"], "driver phase")?;
            driver_phases.push(DriverPhase {
                from_ms: u64_field(&p, "from_ms")?,
                drivers: u64_field(&p, "drivers")? as usize,
            });
        }
        if driver_phases.is_empty() {
            // Fail here, in the Result-based loading surface, instead of
            // letting materialize() panic on a structurally empty spec.
            return Err("missing or empty `driver_phases`".into());
        }
        // Optional scalars: absent → default, present-but-wrong-type →
        // error (a mistyped seed must not silently run another workload).
        let opt_u64 = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => x.as_u64().ok_or_else(|| format!("non-integer `{key}`")),
            }
        };
        let sim = match v.get("sim") {
            None => SimOverrides::default(),
            Some(s) => {
                obj_keys(s, &["batch_interval_ms", "base_wait_ms"], "sim overrides")?;
                let opt = |key: &str| -> Result<Option<u64>, String> {
                    match s.get(key) {
                        None | Some(Value::Null) => Ok(None),
                        Some(x) => x
                            .as_u64()
                            .map(Some)
                            .ok_or_else(|| format!("non-integer sim override `{key}`")),
                    }
                };
                SimOverrides {
                    batch_interval_ms: opt("batch_interval_ms")?,
                    base_wait_ms: opt("base_wait_ms")?,
                }
            }
        };
        // Grid sizes narrow to u32 checked: a wrapping cast would turn
        // 2^32 + 16 columns into a valid-looking 16.
        let opt_u32 = |key: &str, default: u32| -> Result<u32, String> {
            u32::try_from(opt_u64(key, u64::from(default))?)
                .map_err(|_| format!("`{key}` does not fit in a u32"))
        };
        let spec = Self {
            name,
            description,
            orders_per_day: f64_field(v, "orders_per_day")?,
            day: opt_u64("day", 0)? as usize,
            seed: opt_u64("seed", 42)?,
            grid_cols: opt_u32("grid_cols", 16)?,
            grid_rows: opt_u32("grid_rows", 16)?,
            surges,
            hotspots,
            driver_phases,
            speed_factor: match v.get("speed_factor") {
                None => 1.0,
                Some(f) => f.as_f64().ok_or("non-numeric `speed_factor`")?,
            },
            sim,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Example
    ///
    /// ```
    /// use mrvd_scenario::ScenarioSpec;
    ///
    /// let spec = ScenarioSpec::from_json_str(
    ///     r#"{
    ///         "name": "evening-rush",
    ///         "description": "17:00-19:00 demand surge, rain slowdown",
    ///         "orders_per_day": 5000,
    ///         "surges": [{"start_ms": 61200000, "end_ms": 68400000, "factor": 1.8}],
    ///         "driver_phases": [{"from_ms": 0, "drivers": 120}],
    ///         "speed_factor": 0.8,
    ///         "sim": {"batch_interval_ms": 3000}
    ///     }"#,
    /// )
    /// .unwrap();
    /// assert_eq!(spec.name, "evening-rush");
    /// assert_eq!(spec.driver_phases[0].drivers, 120);
    /// assert_eq!(spec.sim.batch_interval_ms, Some(3_000));
    ///
    /// // Unknown fields are rejected, not silently dropped.
    /// let err = ScenarioSpec::from_json_str(
    ///     r#"{"name": "x", "orders_per_day": 10,
    ///         "driver_phases": [{"from_ms": 0, "drivers": 1}],
    ///         "surge": []}"#,
    /// )
    /// .unwrap_err();
    /// assert!(err.contains("unknown field"));
    /// ```
    pub fn from_json_str(s: &str) -> Result<Self, String> {
        let v = serde_json::from_str(s).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        let mut s = ScenarioSpec::plain("test", "a test spec", 5_000.0, 80);
        s.surges.push(SurgeWindow {
            start_ms: 7 * 3_600_000,
            end_ms: 9 * 3_600_000,
            factor: 1.5,
        });
        s.hotspots.push(HotspotInjection {
            lon: -73.79,
            lat: 40.65,
            start_ms: 6 * 3_600_000,
            end_ms: 7 * 3_600_000,
            extra_orders: 300.0,
        });
        s.driver_phases.push(DriverPhase {
            from_ms: 16 * 3_600_000,
            drivers: 50,
        });
        s.speed_factor = 0.8;
        s.sim.base_wait_ms = Some(120_000);
        s.grid_cols = 32;
        s.grid_rows = 24;
        s
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = sample();
        let text = serde_json::to_string_pretty(&spec.to_json()).unwrap();
        let back = ScenarioSpec::from_json_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn defaults_fill_in_for_missing_optional_fields() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "mini", "orders_per_day": 1000,
                "driver_phases": [{"from_ms": 0, "drivers": 10}]}"#,
        )
        .unwrap();
        assert_eq!(spec.day, 0);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.grid_cols, 16);
        assert_eq!(spec.grid_rows, 16);
        assert_eq!(spec.speed_factor, 1.0);
        assert!(spec.surges.is_empty());
        assert_eq!(spec.sim, SimOverrides::default());
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err =
            ScenarioSpec::from_json_str(r#"{"name": "x", "orders_per_day": 1000, "surge": []}"#)
                .unwrap_err();
        assert!(err.contains("unknown field `surge`"), "{err}");
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "orders_per_day": 1000,
                "surges": [{"start_ms": 0, "end_ms": 1, "factr": 2}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field `factr`"), "{err}");
        // The horizon is not a spec field: trips always span the day.
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "orders_per_day": 1000,
                "driver_phases": [{"from_ms": 0, "drivers": 10}],
                "sim": {"horizon_ms": 3600000}}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field `horizon_ms`"), "{err}");
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        assert!(ScenarioSpec::from_json_str("not json").is_err());
        assert!(ScenarioSpec::from_json_str("{}").is_err()); // no name
        assert!(
            ScenarioSpec::from_json_str(r#"{"name": "x"}"#).is_err(),
            "missing orders_per_day must error"
        );
        let err =
            ScenarioSpec::from_json_str(r#"{"name": "x", "orders_per_day": 1000}"#).unwrap_err();
        assert!(err.contains("driver_phases"), "{err}");
        // Well-formed JSON with a bad value fails here, by field name,
        // not later in materialize() or Simulator::new.
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "neg", "orders_per_day": -5,
                "driver_phases": [{"from_ms": 0, "drivers": 1}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("orders_per_day"), "{err}");
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "orders_per_day": 1000,
                "driver_phases": [{"from_ms": 0, "drivers": 1}],
                "sim": {"batch_interval_ms": 0}}"#,
        )
        .unwrap_err();
        assert!(err.contains("batch_interval_ms"), "{err}");
    }

    #[test]
    fn base_wait_whose_deadline_overflows_is_rejected() {
        let with_base_wait = |w: u64| {
            ScenarioSpec::from_json_str(&format!(
                r#"{{"name": "x", "orders_per_day": 1000,
                    "driver_phases": [{{"from_ms": 0, "drivers": 1}}],
                    "sim": {{"base_wait_ms": {w}}}}}"#
            ))
        };
        let largest = u64::MAX - mrvd_demand::DAY_MS - SimConfig::default().wait_noise_ms.1;
        assert_eq!(
            with_base_wait(largest).unwrap().sim.base_wait_ms,
            Some(largest)
        );
        for w in [largest + 1, u64::MAX] {
            let err = with_base_wait(w).unwrap_err();
            assert!(err.contains("sim.base_wait_ms"), "{err}");
        }
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "orders_per_day": 1000, "seed": 1, "seed": 7,
                "driver_phases": [{"from_ms": 0, "drivers": 10}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("duplicate field `seed`"), "{err}");
    }

    #[test]
    fn mistyped_optional_scalars_error_instead_of_defaulting() {
        // A string seed must not silently become seed=42 and run a
        // different workload than the author asked for.
        let base = r#"{"name": "x", "orders_per_day": 1000,
                       "driver_phases": [{"from_ms": 0, "drivers": 10}]"#;
        let err =
            ScenarioSpec::from_json_str(&format!("{base}, \"seed\": \"1234\"}}")).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let err = ScenarioSpec::from_json_str(&format!("{base}, \"day\": 2.5}}")).unwrap_err();
        assert!(err.contains("day"), "{err}");
    }

    #[test]
    #[should_panic(expected = "past the 24h day")]
    fn out_of_day_hotspot_window_fails_validation() {
        let mut s = sample();
        s.hotspots[0].end_ms = 25 * 3_600_000;
        s.validate().unwrap();
    }

    #[test]
    fn scaled_shrinks_volume_and_fleet_but_not_to_zero() {
        let s = sample().scaled(0.1);
        assert!((s.orders_per_day - 500.0).abs() < 1e-9);
        assert_eq!(s.driver_phases[0].drivers, 8);
        assert_eq!(s.driver_phases[1].drivers, 5);
        assert!((s.hotspots[0].extra_orders - 30.0).abs() < 1e-9);
        let tiny = sample().scaled(0.001);
        assert_eq!(tiny.driver_phases[0].drivers, 1, "fleet never scales to 0");
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn zero_grid_dimension_fails_validation() {
        let mut s = sample();
        s.grid_rows = 0;
        s.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "overflows the u32 region-id space")]
    fn oversized_grid_fails_validation() {
        let mut s = sample();
        s.grid_cols = 1 << 17;
        s.grid_rows = 1 << 17;
        s.validate().unwrap();
    }

    #[test]
    fn grid_fields_survive_the_json_round_trip() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "big", "orders_per_day": 1000, "grid_cols": 200, "grid_rows": 200,
                "driver_phases": [{"from_ms": 0, "drivers": 10}]}"#,
        )
        .unwrap();
        assert_eq!((spec.grid_cols, spec.grid_rows), (200, 200));
        let back =
            ScenarioSpec::from_json_str(&serde_json::to_string_pretty(&spec.to_json()).unwrap())
                .unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn grid_sizes_past_u32_are_rejected_not_truncated() {
        let base = r#"{"name": "x", "orders_per_day": 1000,
                       "driver_phases": [{"from_ms": 0, "drivers": 10}]"#;
        // 2^32 + 16 would wrap to a 16-column grid under `as u32`.
        for key in ["grid_cols", "grid_rows"] {
            let err = ScenarioSpec::from_json_str(&format!("{base}, \"{key}\": 4294967312}}"))
                .unwrap_err();
            assert!(err.contains(key) && err.contains("u32"), "{err}");
        }
        let max = ScenarioSpec::from_json_str(&format!(
            "{base}, \"grid_cols\": 4294967295, \"grid_rows\": 1}}"
        ))
        .unwrap();
        assert_eq!(max.grid_cols, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "inverted surge window")]
    fn inverted_surge_window_fails_validation() {
        let mut s = sample();
        s.surges[0].end_ms = 0;
        s.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "first driver phase")]
    fn driver_phases_must_start_at_zero() {
        let mut s = sample();
        s.driver_phases[0].from_ms = 5;
        s.validate().unwrap();
    }
}
