//! Configuration of the queueing-theoretic dispatcher.

/// Parameters of the queueing policies (defaults follow the paper's
/// Table 2 where it states a value; each field documents the choice made
/// where it does not).
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Scheduling window `t_c` in ms over which arrival rates are
    /// estimated (paper default ~15 minutes; swept in Figure 9).
    pub tc_ms: u64,
    /// Reneging exponent β of `π(n) = e^{βn}/μ` (Eq. 4). The paper fits
    /// it from reneging records; 0.05 reproduces mild impatience at our
    /// default 180 s patience.
    pub beta: f64,
    /// Maximum candidate drivers considered per rider. Bounds per-batch
    /// cost at paper scale; `usize::MAX` disables the cap.
    pub max_candidates: usize,
    /// Ablation switch: when true, every region gets the same constant
    /// expected idle time, silencing the destination-side queueing term
    /// of the idle ratio (the `ablation` experiment of
    /// `mrvd-experiments`).
    pub uniform_et: bool,
    /// Differential-testing switch: when true, the queueing policies
    /// estimate rates through the verbatim eager reference path
    /// ([`crate::estimate_rates`] + a full expected-idle-time table)
    /// instead of the incremental lazy [`crate::RateTracker`]. Both paths
    /// must produce byte-identical assignments; the equivalence batteries
    /// pin it.
    pub reference_rates: bool,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            tc_ms: 15 * 60 * 1000,
            beta: 0.05,
            max_candidates: 32,
            uniform_et: false,
            reference_rates: false,
        }
    }
}

impl DispatchConfig {
    /// The scheduling window in seconds.
    pub fn tc_s(&self) -> f64 {
        self.tc_ms as f64 / 1000.0
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on non-positive `t_c`, β, or zero candidate budget.
    pub fn validate(&self) {
        assert!(self.tc_ms > 0, "DispatchConfig: t_c must be positive");
        assert!(
            self.beta > 0.0 && self.beta.is_finite(),
            "DispatchConfig: beta must be positive"
        );
        assert!(
            self.max_candidates > 0,
            "DispatchConfig: max_candidates must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = DispatchConfig::default();
        c.validate();
        assert_eq!(c.tc_s(), 900.0);
    }

    #[test]
    #[should_panic(expected = "t_c must be positive")]
    fn zero_tc_panics() {
        DispatchConfig {
            tc_ms: 0,
            ..DispatchConfig::default()
        }
        .validate();
    }
}
