//! Log-gamma and the regularized incomplete gamma function.
//!
//! These are the numerical primitives behind the chi-square CDF
//! (`P(k/2, x/2)`) and the Poisson PMF used by the goodness-of-fit test.
//! The implementations follow the classical Lanczos approximation and the
//! series/continued-fraction split of the incomplete gamma function
//! (Numerical Recipes §6.1–6.2); both are accurate to ~1e-12 over the
//! parameter ranges exercised here (degrees of freedom ≤ a few hundred).

/// Lanczos coefficients for g = 7, n = 9 (canonical values; precision
/// beyond f64 is intentional and harmless).
const LANCZOS_G: f64 = 7.0;
#[expect(
    clippy::excessive_precision,
    reason = "the canonical Lanczos coefficients, kept digit for digit"
)]
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Panics
/// Panics if `x` is not finite or `x <= 0` after reflection is impossible.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma: x must be finite, got {x}");
    assert!(x > 0.0, "ln_gamma: x must be positive, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, 0) = 0` and `P(a, ∞) = 1`. For the chi-square distribution with
/// `k` degrees of freedom, `CDF(x) = P(k/2, x/2)`.
///
/// # Panics
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma: a must be positive, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma: x must be non-negative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        lower_gamma_series(a, x)
    } else {
        1.0 - upper_gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_upper_gamma: a must be positive, got {a}");
    assert!(x >= 0.0, "reg_upper_gamma: x must be non-negative, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - lower_gamma_series(a, x)
    } else {
        upper_gamma_cf(a, x)
    }
}

/// Series expansion of P(a, x); converges quickly for x < a + 1.
fn lower_gamma_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lentz continued fraction for Q(a, x); converges quickly for x ≥ a + 1.
fn upper_gamma_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)! for integer n.
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            close(ln_gamma(n as f64), fact.ln(), 1e-10);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = √π / 2.
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn incomplete_gamma_bounds() {
        for &a in &[0.5, 1.0, 2.5, 10.0, 50.0] {
            close(reg_lower_gamma(a, 0.0), 0.0, 1e-15);
            close(reg_lower_gamma(a, 1e6), 1.0, 1e-9);
            for &x in &[0.1, 1.0, 5.0, 20.0] {
                let p = reg_lower_gamma(a, x);
                let q = reg_upper_gamma(a, x);
                assert!((0.0..=1.0).contains(&p), "P({a},{x}) = {p}");
                close(p + q, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 − e^{−x} (exponential CDF).
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let a = 3.2;
        let mut prev = -1.0;
        for i in 0..100 {
            let x = i as f64 * 0.3;
            let p = reg_lower_gamma(a, x);
            assert!(p >= prev, "P(a, x) must be non-decreasing in x");
            prev = p;
        }
    }
}
