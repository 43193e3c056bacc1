//! Acquisition functions for Bayesian optimization.
//!
//! All functions are written for **minimization** (the optimizer crate
//! normalizes maximization objectives by negating); `best` is the incumbent
//! (lowest observed cost).

use tuna_stats::special::{normal_cdf, normal_pdf};

/// Expected improvement of a Gaussian posterior `(mean, std)` over the
/// incumbent `best`, with exploration bonus `xi >= 0`.
///
/// `EI(x) = (best - mean - xi) * Phi(z) + std * phi(z)` with
/// `z = (best - mean - xi) / std`. Returns `max(best - mean - xi, 0)` when
/// `std == 0`.
///
/// # Examples
///
/// ```
/// use tuna_ml::acquisition::expected_improvement;
/// // A candidate predicted well below the incumbent with some
/// // uncertainty has positive EI.
/// assert!(expected_improvement(5.0, 1.0, 10.0, 0.0) > 4.0);
/// // A candidate far above the incumbent with no uncertainty has none.
/// assert_eq!(expected_improvement(20.0, 0.0, 10.0, 0.0), 0.0);
/// ```
pub fn expected_improvement(mean: f64, std: f64, best: f64, xi: f64) -> f64 {
    debug_assert!(xi >= 0.0, "xi must be non-negative");
    let gap = best - mean - xi;
    if std <= 0.0 {
        return gap.max(0.0);
    }
    let z = gap / std;
    (gap * normal_cdf(z) + std * normal_pdf(z)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_nonnegative() {
        for mean in [-5.0, 0.0, 5.0, 50.0] {
            for std in [0.0, 0.1, 1.0, 10.0] {
                assert!(expected_improvement(mean, std, 1.0, 0.0) >= 0.0);
            }
        }
    }

    #[test]
    fn ei_increases_with_uncertainty_when_mean_worse() {
        // mean above incumbent: only uncertainty can produce improvement.
        let low = expected_improvement(12.0, 0.5, 10.0, 0.0);
        let high = expected_improvement(12.0, 3.0, 10.0, 0.0);
        assert!(high > low);
    }

    #[test]
    fn ei_decreases_as_mean_worsens() {
        let good = expected_improvement(8.0, 1.0, 10.0, 0.0);
        let bad = expected_improvement(11.0, 1.0, 10.0, 0.0);
        assert!(good > bad);
    }

    #[test]
    fn ei_zero_std_is_relu_gap() {
        assert_eq!(expected_improvement(7.0, 0.0, 10.0, 0.0), 3.0);
        assert_eq!(expected_improvement(12.0, 0.0, 10.0, 0.0), 0.0);
        assert_eq!(expected_improvement(7.0, 0.0, 10.0, 1.0), 2.0);
    }

    #[test]
    fn xi_discourages_marginal_improvements() {
        let no_xi = expected_improvement(9.9, 0.5, 10.0, 0.0);
        let with_xi = expected_improvement(9.9, 0.5, 10.0, 0.5);
        assert!(with_xi < no_xi);
    }
}
