//! Percentile bootstrap confidence intervals.
//!
//! Figure 2 of the paper shades the 99% confidence interval of the
//! best-so-far tuning curve across 100 runs; we reproduce that band with a
//! nonparametric percentile bootstrap of the mean.

use crate::rng::Rng;
use crate::summary::{mean, quantile_of_sorted};

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Point estimate (the statistic on the original sample).
    pub point: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Percentile-bootstrap confidence interval for the mean of `xs`.
///
/// `level` is the two-sided confidence level (e.g. `0.99`), `resamples` the
/// number of bootstrap replicates.
///
/// # Panics
///
/// Panics if `xs` is empty, `resamples == 0`, or `level` is outside `(0,1)`.
///
/// # Examples
///
/// ```
/// use tuna_stats::bootstrap::bootstrap_mean_ci;
/// use tuna_stats::rng::Rng;
/// let xs = vec![9.0, 10.0, 11.0, 10.5, 9.5];
/// let ci = bootstrap_mean_ci(&xs, 0.95, 500, &mut Rng::seed_from(1));
/// assert!(ci.lo <= ci.point && ci.point <= ci.hi);
/// ```
pub fn bootstrap_mean_ci(
    xs: &[f64],
    level: f64,
    resamples: usize,
    rng: &mut Rng,
) -> ConfidenceInterval {
    bootstrap_ci(xs, level, resamples, rng, mean)
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic.
///
/// # Panics
///
/// Panics if `xs` is empty, `resamples == 0`, or `level` is outside `(0,1)`.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    level: f64,
    resamples: usize,
    rng: &mut Rng,
    statistic: F,
) -> ConfidenceInterval
where
    F: Fn(&[f64]) -> f64,
{
    assert!(!xs.is_empty(), "bootstrap of empty sample");
    assert!(resamples > 0, "need at least one resample");
    assert!(level > 0.0 && level < 1.0, "level {level} outside (0,1)");

    let point = statistic(xs);
    let mut replicates = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; xs.len()];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = xs[rng.below(xs.len())];
        }
        replicates.push(statistic(&buf));
    }
    // One sort serves both tails (the old path re-sorted a clone of the
    // replicate vector per quantile); values are bit-identical.
    replicates.sort_unstable_by(|a, b| a.total_cmp(b));
    let alpha = (1.0 - level) / 2.0;
    ConfidenceInterval {
        lo: quantile_of_sorted(&replicates, alpha),
        point,
        hi: quantile_of_sorted(&replicates, 1.0 - alpha),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::normal_samples;

    #[test]
    fn ci_brackets_true_mean_usually() {
        let mut rng = Rng::seed_from(100);
        let mut covered = 0;
        let trials = 100;
        for _ in 0..trials {
            let xs = normal_samples(&mut rng, 50.0, 5.0, 50);
            let ci = bootstrap_mean_ci(&xs, 0.95, 300, &mut rng);
            if ci.lo <= 50.0 && 50.0 <= ci.hi {
                covered += 1;
            }
        }
        // Nominal coverage is 95%; allow generous slack for bootstrap error.
        assert!(covered >= 85, "covered only {covered}/{trials}");
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let xs = normal_samples(&mut Rng::seed_from(101), 0.0, 1.0, 200);
        let narrow = bootstrap_mean_ci(&xs, 0.80, 500, &mut Rng::seed_from(7));
        let wide = bootstrap_mean_ci(&xs, 0.99, 500, &mut Rng::seed_from(7));
        assert!(wide.hi - wide.lo > narrow.hi - narrow.lo);
    }

    #[test]
    fn point_estimate_is_sample_statistic() {
        let xs = [1.0, 2.0, 3.0];
        let ci = bootstrap_mean_ci(&xs, 0.9, 100, &mut Rng::seed_from(2));
        assert!((ci.point - 2.0).abs() < 1e-12);
    }

    #[test]
    fn custom_statistic() {
        let xs = [1.0, 2.0, 100.0];
        let ci = bootstrap_ci(&xs, 0.9, 200, &mut Rng::seed_from(3), |s| {
            crate::summary::median(s)
        });
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        bootstrap_mean_ci(&[], 0.9, 10, &mut Rng::seed_from(1));
    }
}
