//! Steady-state distribution of the double-sided region queue
//! (Eqs. 5–9, 11–12, 14–15 of the paper).

use crate::params::{QueueParams, Reneging};

/// The positive-side series `S = Σ_{n≥1} Π_{i=1..n} λ/(μ+π(i))` did not
/// converge. This can only happen without reneging when `λ ≥ μ`
/// ([`Reneging::None`]); the paper's impatient riders always yield a
/// convergent chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergentQueue;

impl std::fmt::Display for DivergentQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queue has no steady state (no reneging and riders arrive at least as fast as drivers)"
        )
    }
}

impl std::error::Error for DivergentQueue {}

/// Which closed-form branch of §4.2 applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// `λ > μ` (§4.2.1): unbounded driver-side geometric tail.
    RidersExceed,
    /// `λ < μ` (§4.2.2): driver side capped at `K`.
    DriversExceed,
    /// `λ ≈ μ` (§4.2.3, within relative tolerance 1e-9).
    Balanced,
}

/// Relative tolerance under which λ and μ are treated as equal; avoids the
/// catastrophic cancellation in `(λ−μ)²` on the paper's λ>μ branch.
pub(crate) const BALANCE_TOL: f64 = 1e-9;

/// Picks the closed-form branch for a rate pair.
pub fn branch_of(lambda: f64, mu: f64) -> Branch {
    if (lambda - mu).abs() <= BALANCE_TOL * lambda.max(mu) {
        Branch::Balanced
    } else if lambda > mu {
        Branch::RidersExceed
    } else {
        Branch::DriversExceed
    }
}

/// Sums the positive-side series `S = Σ_{n≥1} Π_{i=1..n} λ/(μ+π(i))`,
/// handing each per-state product to `sink` in state order (the
/// distribution stores them; the idle-time solve needs only `S` and
/// passes a no-op). Terms are accumulated until they fall below
/// `1e-16 · (1+S)`.
///
/// Returns `Err(DivergentQueue)` if the series fails to converge within
/// a large iteration budget (possible only without reneging).
pub(crate) fn positive_series(
    params: &QueueParams,
    mut sink: impl FnMut(f64),
) -> Result<f64, DivergentQueue> {
    let QueueParams { lambda, mu, .. } = *params;
    if lambda == 0.0 {
        return Ok(0.0);
    }
    // Without reneging the series is geometric: decide convergence exactly.
    if params.reneging == Reneging::None && lambda >= mu {
        return Err(DivergentQueue);
    }
    let mut sum = 0.0f64;
    let mut prod = 1.0f64;
    for n in 1..=1_000_000u64 {
        prod *= lambda / params.death_rate(n);
        sum += prod;
        sink(prod);
        if prod < 1e-16 * (1.0 + sum) {
            return Ok(sum);
        }
    }
    // Exponential reneging forces convergence long before the budget;
    // reaching here means a pathological parameterization.
    Err(DivergentQueue)
}

/// `p0` on the `λ > μ` branch (Eq. 9): `[λ/(λ−μ) + S]⁻¹`.
pub(crate) fn riders_exceed_p0(lambda: f64, mu: f64, s_pos: f64) -> f64 {
    1.0 / (lambda / (lambda - mu) + s_pos)
}

/// `p0` on the `λ ≈ μ` branch (Eq. 15): `[K + 1 + S]⁻¹`; every capped
/// driver-side state shares it.
pub(crate) fn balanced_p0(capacity_k: u64, s_pos: f64) -> f64 {
    1.0 / (capacity_k as f64 + 1.0 + s_pos)
}

/// The `λ < μ` branch's normalization (Eq. 12), rewritten for numerical
/// stability: normalize by `θ^K` (`θ = μ/λ > 1`, so `θ^{K+1}` overflows
/// for large `K`). `p_{−i} = θ^{i−K} / D` and `p0 = θ^{−K} / D` with
/// `D = Σ_{j=0..K} θ^{−j} + S·θ^{−K}`.
pub(crate) struct Capped {
    theta: f64,
    capacity_k: u64,
    denom: f64,
    /// `p0 = θ^{−K} / D`.
    pub(crate) p0: f64,
}

impl Capped {
    pub(crate) fn new(lambda: f64, mu: f64, capacity_k: u64, s_pos: f64) -> Self {
        let theta = mu / lambda;
        let inv = 1.0 / theta;
        let mut denom = 0.0f64;
        let mut inv_pow = 1.0f64; // θ^{-j}
        for _ in 0..=capacity_k {
            denom += inv_pow;
            inv_pow *= inv;
        }
        let theta_neg_k = theta.powi(-(capacity_k.min(100_000) as i32));
        let denom = denom + s_pos * theta_neg_k;
        Self {
            theta,
            capacity_k,
            denom,
            p0: theta_neg_k / denom,
        }
    }

    /// `p_{−i} = θ^{i−K} / D`, for `i` in `1..=K`.
    pub(crate) fn neg(&self, i: u64) -> f64 {
        let e = i as i64 - self.capacity_k as i64; // ≤ 0 until i = K
        self.theta.powi(e as i32) / self.denom
    }
}

/// Steady-state distribution of a region queue.
///
/// Probabilities are stored for the negative side (`neg[i]` = state
/// `-(i+1)`), the zero state (`p0`) and the positive side (`pos[i]` = state
/// `i+1`). On the `λ > μ` branch the negative side is truncated once
/// negligible and the remaining geometric mass is tracked analytically so
/// that [`SteadyState::total_mass`] stays ≈ 1.
///
/// [`crate::expected_idle_time`] does not build this distribution: it
/// evaluates its closed forms in place through the same series and
/// normalization helpers, so the two agree bit for bit by construction.
/// The distribution serves the numeric cross-check
/// ([`crate::expected_idle_time_numeric`]) and callers that read
/// individual state probabilities.
#[derive(Debug, Clone)]
pub struct SteadyState {
    branch: Branch,
    p0: f64,
    neg: Vec<f64>,
    pos: Vec<f64>,
    neg_tail_mass: f64,
}

impl SteadyState {
    /// Computes the steady state for the given parameters.
    ///
    /// Special cases: with `λ = 0` the chain drifts to (and stays at) the
    /// driver cap `−K`, so all mass sits there (or at 0 when `μ = 0` too).
    pub fn compute(params: &QueueParams) -> Result<Self, DivergentQueue> {
        let QueueParams {
            lambda,
            mu,
            capacity_k,
            ..
        } = *params;
        if lambda == 0.0 {
            let k = capacity_k as usize;
            let mut neg = vec![0.0; k];
            let p0 = if mu == 0.0 || k == 0 { 1.0 } else { 0.0 };
            if p0 == 0.0 {
                neg[k - 1] = 1.0;
            }
            return Ok(Self {
                branch: Branch::DriversExceed,
                p0,
                neg,
                pos: Vec::new(),
                neg_tail_mass: 0.0,
            });
        }
        let mut pos = Vec::new();
        let s_pos = positive_series(params, |prod| pos.push(prod))?;
        let branch = branch_of(lambda, mu);
        let (p0, neg, neg_tail_mass) = match branch {
            Branch::RidersExceed => {
                // Eq. 9 gives p0; the negative side is geometric with
                // ratio μ/λ < 1 (Eq. 6).
                let p0 = riders_exceed_p0(lambda, mu, s_pos);
                let ratio = mu / lambda;
                let mut neg = Vec::new();
                let mut term = p0;
                let mut stored = 0.0;
                while term > 1e-16 * p0.max(1e-300) && neg.len() < 100_000 {
                    term *= ratio;
                    if term <= 0.0 {
                        break;
                    }
                    neg.push(term);
                    stored += term;
                }
                let total_neg = if mu == 0.0 {
                    0.0
                } else {
                    p0 * mu / (lambda - mu)
                };
                (p0, neg, (total_neg - stored).max(0.0))
            }
            Branch::DriversExceed => {
                let capped = Capped::new(lambda, mu, capacity_k, s_pos);
                let neg = (1..=capacity_k).map(|i| capped.neg(i)).collect();
                (capped.p0, neg, 0.0)
            }
            Branch::Balanced => {
                let p0 = balanced_p0(capacity_k, s_pos);
                (p0, vec![p0; capacity_k as usize], 0.0)
            }
        };
        for prod in &mut pos {
            *prod *= p0;
        }
        Ok(Self {
            branch,
            p0,
            neg,
            pos,
            neg_tail_mass,
        })
    }

    /// The branch that was applied.
    pub fn branch(&self) -> Branch {
        self.branch
    }

    /// `p_0`, the probability of an empty region.
    pub fn p0(&self) -> f64 {
        self.p0
    }

    /// Probability of state `n` (positive = waiting riders, negative =
    /// congested drivers). States beyond the stored truncation return 0;
    /// use [`SteadyState::total_mass`] to see how much tail was truncated.
    pub fn probability(&self, n: i64) -> f64 {
        if n == 0 {
            self.p0
        } else if n > 0 {
            self.pos.get((n - 1) as usize).copied().unwrap_or(0.0)
        } else {
            self.neg.get((-n - 1) as usize).copied().unwrap_or(0.0)
        }
    }

    /// Total stored probability mass plus the analytically tracked tail;
    /// ≈ 1 up to floating-point error.
    pub fn total_mass(&self) -> f64 {
        self.p0 + self.neg.iter().sum::<f64>() + self.pos.iter().sum::<f64>() + self.neg_tail_mass
    }

    /// Number of stored negative states.
    pub fn neg_len(&self) -> usize {
        self.neg.len()
    }

    /// Number of stored positive states.
    pub fn pos_len(&self) -> usize {
        self.pos.len()
    }

    /// Mean queue state `E[n]` (riders positive, drivers negative),
    /// ignoring any truncated tail mass.
    pub fn mean_state(&self) -> f64 {
        let neg: f64 = self
            .neg
            .iter()
            .enumerate()
            .map(|(i, p)| -((i + 1) as f64) * p)
            .sum();
        let pos: f64 = self
            .pos
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum();
        neg + pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{QueueParams, Reneging};
    use proptest::prelude::{prop_assert, proptest};

    fn exp_params(lambda: f64, mu: f64, k: u64) -> QueueParams {
        QueueParams::new(lambda, mu, k, Reneging::Exp { beta: 0.2 })
    }

    #[test]
    fn mass_sums_to_one_across_branches() {
        for (l, m, k) in [
            (2.0, 1.0, 10),
            (1.0, 2.0, 10),
            (1.5, 1.5, 8),
            (0.3, 0.1, 4),
            (0.1, 5.0, 50),
            (1.0, 1.0 + 1e-12, 5),
        ] {
            let ss = SteadyState::compute(&exp_params(l, m, k)).unwrap();
            let mass = ss.total_mass();
            assert!((mass - 1.0).abs() < 1e-9, "λ={l} μ={m} K={k}: mass {mass}");
        }
    }

    #[test]
    fn flow_balance_holds_on_positive_side() {
        let p = exp_params(2.0, 1.0, 10);
        let ss = SteadyState::compute(&p).unwrap();
        // μ_n p_n = λ p_{n−1} (Eq. 5).
        for n in 1..=10i64 {
            let lhs = p.death_rate(n as u64) * ss.probability(n);
            let rhs = p.lambda * ss.probability(n - 1);
            assert!(
                (lhs - rhs).abs() < 1e-12 * rhs.max(1e-300),
                "n={n}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn flow_balance_holds_on_negative_side() {
        let p = exp_params(1.0, 3.0, 12);
        let ss = SteadyState::compute(&p).unwrap();
        // For n ≤ 0 the death rate is plain μ: μ p_n = λ p_{n−1}.
        for n in (-11i64)..=0 {
            let lhs = p.mu * ss.probability(n);
            let rhs = p.lambda * ss.probability(n - 1);
            assert!(
                (lhs - rhs).abs() < 1e-12 * lhs.max(1e-300),
                "n={n}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn branch_selection() {
        assert_eq!(branch_of(2.0, 1.0), Branch::RidersExceed);
        assert_eq!(branch_of(1.0, 2.0), Branch::DriversExceed);
        assert_eq!(branch_of(1.0, 1.0), Branch::Balanced);
        assert_eq!(branch_of(1.0, 1.0 + 1e-12), Branch::Balanced);
    }

    #[test]
    fn no_reneging_diverges_when_riders_dominate() {
        let p = QueueParams::new(2.0, 1.0, 5, Reneging::None);
        assert_eq!(SteadyState::compute(&p).unwrap_err(), DivergentQueue);
        let p = QueueParams::new(1.0, 1.0, 5, Reneging::None);
        assert!(SteadyState::compute(&p).is_err());
    }

    #[test]
    fn no_reneging_converges_when_drivers_dominate() {
        let p = QueueParams::new(1.0, 2.0, 5, Reneging::None);
        let ss = SteadyState::compute(&p).unwrap();
        assert!((ss.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_lambda_puts_mass_at_cap() {
        let p = exp_params(0.0, 1.0, 5);
        let ss = SteadyState::compute(&p).unwrap();
        assert_eq!(ss.probability(-5), 1.0);
        assert_eq!(ss.probability(0), 0.0);
        assert!((ss.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_mu_with_riders_has_no_driver_side() {
        let p = exp_params(1.0, 0.0, 5);
        let ss = SteadyState::compute(&p).unwrap();
        assert_eq!(ss.branch(), Branch::RidersExceed);
        assert_eq!(ss.probability(-1), 0.0);
        assert!((ss.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_capacity_is_numerically_stable() {
        // θ = 2, K = 5000: naive θ^{K+1} overflows; the normalized scheme
        // must stay finite with mass 1.
        let p = exp_params(0.5, 1.0, 5_000);
        let ss = SteadyState::compute(&p).unwrap();
        assert!(ss.total_mass().is_finite());
        assert!((ss.total_mass() - 1.0).abs() < 1e-6);
        // Mass concentrates deep on the driver side.
        assert!(ss.probability(-5_000) > ss.probability(-1));
    }

    #[test]
    fn heavier_reneging_shortens_rider_queue() {
        let soft = QueueParams::new(3.0, 1.0, 5, Reneging::Exp { beta: 0.05 });
        let hard = QueueParams::new(3.0, 1.0, 5, Reneging::Exp { beta: 1.0 });
        let s = SteadyState::compute(&soft).unwrap();
        let h = SteadyState::compute(&hard).unwrap();
        assert!(h.mean_state() < s.mean_state());
    }

    proptest! {
        #[test]
        fn mass_is_one_for_random_params(
            lambda in 0.01f64..20.0,
            mu in 0.0f64..20.0,
            k in 0u64..200,
            beta in 0.01f64..2.0,
        ) {
            let p = QueueParams::new(lambda, mu, k, Reneging::Exp { beta });
            let ss = SteadyState::compute(&p).unwrap();
            prop_assert!((ss.total_mass() - 1.0).abs() < 1e-6);
            prop_assert!(ss.p0() >= 0.0 && ss.p0() <= 1.0);
        }
    }
}
