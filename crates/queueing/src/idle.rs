//! Expected idle time of a rejoining driver (Eqs. 10, 13, 16).
//!
//! A driver that finishes an order in region `a` joins the region's queue.
//! If riders are waiting (`n > 0`) the driver is dispatched immediately
//! (idle ≈ 0). If `n ≤ 0` the driver sits behind `|n|` earlier drivers and
//! is dispatched at the `(|n|+1)`-th upcoming rider arrival, which takes
//! `(|n|+1)/λ` in expectation. Weighting by the steady-state probabilities
//! (PASTA: Poisson driver arrivals see time averages) gives the closed
//! forms implemented here.

use crate::params::QueueParams;
use crate::steady::{
    balanced_p0, branch_of, positive_series, riders_exceed_p0, Branch, Capped, DivergentQueue,
    SteadyState,
};

/// Expected idle time `ET(λ, μ)` in seconds for a driver rejoining a region
/// with the given queue parameters (Eqs. 10 / 13 / 16 of the paper).
///
/// Evaluated in place: each branch computes only what its closed form
/// reads (the positive series' sum, `p0` and, for `λ < μ`, the capped
/// driver-side probabilities as it sums them), through the helpers that
/// [`SteadyState::compute`] uses, so the result equals the closed form over
/// the stored distribution bit for bit. Nothing is allocated.
///
/// Returns `Ok(f64::INFINITY)` when `λ = 0` (riders never arrive, the
/// driver waits forever; callers clamp this to the scheduling window) and
/// `Err(DivergentQueue)` in the no-reneging divergent regime.
pub fn expected_idle_time(params: &QueueParams) -> Result<f64, DivergentQueue> {
    let QueueParams {
        lambda,
        mu,
        capacity_k,
        ..
    } = *params;
    if lambda == 0.0 {
        return Ok(f64::INFINITY);
    }
    let s_pos = positive_series(params, |_| {})?;
    let et = match branch_of(lambda, mu) {
        Branch::RidersExceed => {
            // Eq. 10: ET = λ p0 / (λ − μ)².
            let p0 = riders_exceed_p0(lambda, mu, s_pos);
            lambda * p0 / ((lambda - mu) * (lambda - mu))
        }
        Branch::DriversExceed => {
            // Eq. 13, evaluated in the overflow-free form
            // ET = (1/λ) Σ_{i=0..K} (i+1) p_{−i}   (p_{−0} = p0).
            let capped = Capped::new(lambda, mu, capacity_k, s_pos);
            let mut sum = capped.p0;
            for i in 1..=capacity_k {
                sum += (i as f64 + 1.0) * capped.neg(i);
            }
            sum / lambda
        }
        Branch::Balanced => {
            // Eq. 16: ET = p0 (K+1)(K+2) / (2λ).
            let p0 = balanced_p0(capacity_k, s_pos);
            p0 * (capacity_k as f64 + 1.0) * (capacity_k as f64 + 2.0) / (2.0 * lambda)
        }
    };
    Ok(et)
}

/// Numerically evaluates `ET` directly from the steady-state distribution,
/// `Σ_{n≤0} (|n|+1)/λ · p_n`, over the stored states plus, on the `λ > μ`
/// branch, the analytic sum over the geometric tail beyond them. Used to
/// cross-check the closed forms; the two agree to floating-point
/// accuracy.
pub fn expected_idle_time_numeric(params: &QueueParams) -> Result<f64, DivergentQueue> {
    let lambda = params.lambda;
    if lambda == 0.0 {
        return Ok(f64::INFINITY);
    }
    let ss = SteadyState::compute(params)?;
    let mut et = ss.p0() / lambda;
    for i in 1..=(ss.neg_len() as i64) {
        et += (i as f64 + 1.0) / lambda * ss.probability(-i);
    }
    if ss.branch() == Branch::RidersExceed {
        // States −i for i > n (n stored) have p_{−i} = p0 rᶦ, r = μ/λ:
        // Σ_{i>n} (i+1) rᶦ = r^{n+1} ((n+2) − (n+1) r) / (1−r)².
        let r = params.mu / lambda;
        let n = ss.neg_len() as f64;
        let r_next = r.powi(ss.neg_len() as i32 + 1);
        et += ss.p0() * r_next * ((n + 2.0) - (n + 1.0) * r) / ((1.0 - r) * (1.0 - r) * lambda);
    }
    Ok(et)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{QueueParams, Reneging};
    use crate::steady::BALANCE_TOL;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest};

    fn exp_params(lambda: f64, mu: f64, k: u64) -> QueueParams {
        QueueParams::new(lambda, mu, k, Reneging::Exp { beta: 0.2 })
    }

    /// The closed forms of Eqs. 10/13/16 read back from the stored
    /// distribution: the reference the in-place solve must equal bit for
    /// bit.
    fn et_from_distribution(params: &QueueParams) -> Result<f64, DivergentQueue> {
        let QueueParams {
            lambda,
            mu,
            capacity_k,
            ..
        } = *params;
        if lambda == 0.0 {
            return Ok(f64::INFINITY);
        }
        let ss = SteadyState::compute(params)?;
        let p0 = ss.p0();
        Ok(match branch_of(lambda, mu) {
            Branch::RidersExceed => lambda * p0 / ((lambda - mu) * (lambda - mu)),
            Branch::DriversExceed => {
                let mut sum = p0;
                for i in 1..=capacity_k {
                    sum += (i as f64 + 1.0) * ss.probability(-(i as i64));
                }
                sum / lambda
            }
            Branch::Balanced => {
                p0 * (capacity_k as f64 + 1.0) * (capacity_k as f64 + 2.0) / (2.0 * lambda)
            }
        })
    }

    #[test]
    fn numeric_sum_includes_the_tail_beyond_the_stored_states() {
        // Near balance on the λ > μ branch the geometric driver-side tail
        // outlives the 100 000 stored states; summing the stored states
        // alone fell short of the closed form by a relative 5.0e-4, 0.74
        // and 0.995 at these ratios.
        for mu in [0.9999, 0.99999, 1.0 - 1e-6] {
            let p = exp_params(1.0, mu, 10);
            assert_eq!(SteadyState::compute(&p).unwrap().neg_len(), 100_000);
            let closed = expected_idle_time(&p).unwrap();
            let numeric = expected_idle_time_numeric(&p).unwrap();
            assert!(
                (numeric - closed).abs() < 1e-9 * closed,
                "μ/λ = {mu}: closed {closed}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn closed_form_matches_numeric_summation() {
        for (l, m, k) in [
            (2.0, 1.0, 10),
            (5.0, 0.5, 10),
            (1.0, 2.0, 10),
            (0.2, 1.0, 30),
            (1.5, 1.5, 8),
            (3.0, 3.0, 20),
        ] {
            let p = exp_params(l, m, k);
            let a = expected_idle_time(&p).unwrap();
            let b = expected_idle_time_numeric(&p).unwrap();
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + a),
                "λ={l} μ={m} K={k}: closed {a}, numeric {b}"
            );
        }
    }

    #[test]
    fn zero_lambda_is_infinite() {
        assert_eq!(
            expected_idle_time(&exp_params(0.0, 1.0, 5)).unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn et_decreases_with_rider_rate() {
        // More riders → shorter driver idle time (rule (b) of §2.4).
        let mut prev = f64::INFINITY;
        for i in 1..=20 {
            let lambda = i as f64 * 0.5;
            let p = exp_params(lambda, 2.0, 10);
            let et = expected_idle_time(&p).unwrap();
            assert!(
                et <= prev * (1.0 + 1e-9),
                "λ={lambda}: ET {et} > previous {prev}"
            );
            prev = et;
        }
    }

    #[test]
    fn et_increases_with_driver_rate_on_capped_branch() {
        // More competing drivers → longer idle time. Monotonicity is only
        // guaranteed on the μ > λ branch: the paper's reneging function
        // π(n) = e^{βn}/μ scales as 1/μ, so for tiny μ reneging dominates
        // and ET is genuinely non-monotone near μ = 0.
        let mut prev = 0.0;
        for i in 0..=20 {
            let mu = 2.2 + i as f64 * 0.9;
            let p = exp_params(2.0, mu, 10);
            let et = expected_idle_time(&p).unwrap();
            assert!(et >= prev - 1e-12, "μ={mu}: ET {et} < previous {prev}");
            prev = et;
        }
    }

    #[test]
    fn scarce_riders_make_drivers_wait_about_k_over_lambda() {
        // With μ ≫ λ the queue is pinned at −K, so a rejoining driver
        // waits ≈ (K+1)/λ.
        let k = 20u64;
        let lambda = 0.5;
        let p = exp_params(lambda, 50.0, k);
        let et = expected_idle_time(&p).unwrap();
        let expect = (k as f64 + 1.0) / lambda;
        assert!(
            (et - expect).abs() < 0.05 * expect,
            "ET {et} vs (K+1)/λ = {expect}"
        );
    }

    #[test]
    fn abundant_riders_make_idle_time_tiny() {
        // λ ≫ μ: a rejoining driver almost always finds a waiting rider.
        let p = exp_params(50.0, 0.5, 10);
        let et = expected_idle_time(&p).unwrap();
        assert!(et < 0.05, "ET {et}");
    }

    #[test]
    fn balanced_branch_is_continuous_with_capped_branch() {
        // Approaching λ = μ from below must converge to the λ = μ formula.
        let k = 12;
        let balanced = expected_idle_time(&exp_params(1.0, 1.0, k)).unwrap();
        let near = expected_idle_time(&exp_params(1.0, 1.0 + 1e-7, k)).unwrap();
        assert!(
            (balanced - near).abs() < 1e-3 * balanced,
            "balanced {balanced} vs near {near}"
        );
    }

    #[test]
    fn et_scales_inversely_with_rates() {
        // Scaling both rates by c scales time by 1/c (dimensional analysis).
        let base = expected_idle_time(&exp_params(1.0, 2.0, 10)).unwrap();
        // Note: reneging rate π(n)=e^{βn}/μ does not scale linearly, so use
        // a tolerance rather than exact equality.
        let scaled = expected_idle_time(&QueueParams::new(
            10.0,
            20.0,
            10,
            Reneging::Exp { beta: 0.2 },
        ))
        .unwrap();
        assert!(
            (scaled - base / 10.0).abs() < 0.2 * base / 10.0,
            "base {base}, scaled {scaled}"
        );
    }

    #[test]
    fn large_k_stays_finite() {
        let p = exp_params(0.5, 1.0, 5_000);
        let et = expected_idle_time(&p).unwrap();
        assert!(et.is_finite());
        // Pinned near the cap: ET ≈ (K+1)/λ.
        assert!(et > 5_000.0, "ET {et}");
    }

    proptest! {
        #[test]
        fn et_is_nonnegative_and_finite_for_positive_lambda(
            lambda in 0.05f64..20.0,
            mu in 0.0f64..20.0,
            k in 0u64..300,
            beta in 0.01f64..2.0,
        ) {
            let p = QueueParams::new(lambda, mu, k, Reneging::Exp { beta });
            let et = expected_idle_time(&p).unwrap();
            prop_assert!(et.is_finite());
            prop_assert!(et >= 0.0);
        }

        #[test]
        fn closed_form_equals_numeric(
            lambda in 0.05f64..10.0,
            mu in 0.0f64..10.0,
            k in 0u64..100,
        ) {
            let p = QueueParams::new(lambda, mu, k, Reneging::Exp { beta: 0.3 });
            let a = expected_idle_time(&p).unwrap();
            let b = expected_idle_time_numeric(&p).unwrap();
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a), "closed {} vs numeric {}", a, b);
        }

        #[test]
        fn in_place_et_equals_the_distribution_closed_forms_bit_for_bit(
            lambda_exp in -5.0f64..2.0,
            mu_exp in -5.0f64..2.0,
            gap_exp in -6.0f64..-2.0,
            tol_frac in 0.0f64..1.0,
            k in 0u64..=300,
            beta in 0.01f64..2.0,
        ) {
            let lambda = 10f64.powf(lambda_exp);
            let gap = 10f64.powf(gap_exp);
            let mus = [
                10f64.powf(mu_exp),
                0.0,
                lambda * (1.0 + gap),
                lambda * (1.0 - gap),
                lambda,
                lambda * (1.0 + BALANCE_TOL * tol_frac),
                lambda * (1.0 - BALANCE_TOL * tol_frac),
            ];
            for mu in mus {
                let p = QueueParams::new(lambda, mu, k, Reneging::Exp { beta });
                let in_place = expected_idle_time(&p).map(f64::to_bits);
                let reference = et_from_distribution(&p).map(f64::to_bits);
                prop_assert_eq!(in_place, reference, "λ={} μ={} K={} β={}", lambda, mu, k, beta);
            }
        }
    }
}
