//! Special functions for the Gaussian family.
//!
//! The expected-improvement acquisition function and the GP optimizer need
//! the standard-normal PDF/CDF; we implement `erf` with the
//! Abramowitz–Stegun 7.1.26 rational approximation (|error| < 1.5e-7, ample
//! for acquisition ranking).

/// Error function approximation (Abramowitz & Stegun 7.1.26).
///
/// Maximum absolute error ~1.5e-7 over the real line.
///
/// # Examples
///
/// ```
/// use tuna_stats::special::erf;
/// assert!(erf(0.0).abs() < 1e-6);
/// assert!((erf(1.0) - 0.8427).abs() < 1e-3);
/// assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
/// ```
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal probability density function.
pub fn normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution function.
///
/// # Examples
///
/// ```
/// use tuna_stats::special::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
/// assert!(normal_cdf(5.0) > 0.999);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        let table = [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
            (3.0, 0.9999779),
        ];
        for (x, want) in table {
            assert!((erf(x) - want).abs() < 2e-6, "erf({x})");
            assert!((erf(-x) + want).abs() < 2e-6, "erf(-{x})");
        }
    }

    #[test]
    fn cdf_symmetry() {
        for x in [0.1, 0.7, 1.3, 2.5] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = normal_cdf(-6.0);
        let mut x = -6.0;
        while x <= 6.0 {
            let c = normal_cdf(x);
            assert!(c >= prev - 1e-12);
            prev = c;
            x += 0.05;
        }
    }

    #[test]
    fn pdf_peak_at_zero() {
        assert!(normal_pdf(0.0) > normal_pdf(0.1));
        assert!((normal_pdf(0.0) - 0.3989423).abs() < 1e-6);
    }
}
