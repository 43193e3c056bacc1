//! Batch statistics over slices.
//!
//! These are the scalar summaries the paper's heuristics are built from,
//! most importantly [`relative_range`] (§4.2) and
//! [`coefficient_of_variation`] (§3).
//!
//! # Hot-path design
//!
//! The per-trial sampling loop calls these summaries once per pipeline
//! iteration over every sample a config has gathered, so they are written
//! to avoid the classic clone-and-sort pattern:
//!
//! - order statistics ([`quantile`], [`median`], [`mad`], [`iqr`],
//!   [`FiveNumber`]) use **selection** (`select_nth_unstable_by`, expected
//!   O(n)) instead of a full sort, and every one has a `*_with` variant
//!   taking a caller-owned scratch buffer so steady-state callers allocate
//!   nothing;
//! - [`relative_range`] folds min / max / mean in a **single pass**;
//! - the old sort-based implementations are retained verbatim in
//!   [`naive`] as differential-test oracles and benchmark baselines.
//!
//! Selection returns the same order statistics a full sort would, so the
//! fast paths are bit-identical to their oracles (pinned by the
//! `proptest_streaming` differential suite). One documented exception:
//! inputs mixing `-0.0` and `+0.0` compare equal, so which zero lands at
//! a selected rank is unspecified — results can differ from the oracle
//! in the sign bit of a zero (never in value).

use std::cmp::Ordering;

/// Reference implementations retained as oracles.
///
/// These are the original clone-and-sort (or two-pass) code paths the
/// streaming/selection rewrites replaced. They are kept public — not
/// `#[cfg(test)]` — because the differential property tests live in the
/// crate's integration-test tree and the `stats/naive_median_mad_10k`
/// perfgate scenario times them from another crate. Do not call them
/// from production code.
pub mod naive {
    /// Sort-based linear-interpolation quantile (the pre-streaming
    /// implementation of [`super::quantile`]).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or `q` is outside `[0, 1]`.
    pub fn quantile(xs: &[f64], q: f64) -> f64 {
        assert!(!xs.is_empty(), "quantile of empty slice");
        assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Sort-based median.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn median(xs: &[f64]) -> f64 {
        quantile(xs, 0.5)
    }

    /// Clone-and-sort median absolute deviation.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn mad(xs: &[f64]) -> f64 {
        let med = median(xs);
        let devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
        median(&devs)
    }

    /// Two-pass relative range (min/max pass, then a mean pass).
    pub fn relative_range(xs: &[f64]) -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        let m = super::mean(xs);
        if m == 0.0 {
            return 0.0;
        }
        ((max - min) / m).abs()
    }

    /// Five sort-based quantile evaluations (the pre-streaming
    /// [`super::FiveNumber::of`]).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn five_number(xs: &[f64]) -> super::FiveNumber {
        super::FiveNumber {
            min: super::min(xs).expect("non-empty"),
            q1: quantile(xs, 0.25),
            median: median(xs),
            q3: quantile(xs, 0.75),
            max: super::max(xs).expect("non-empty"),
        }
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (`n - 1` denominator); `0.0` when `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Coefficient of variation: standard deviation normalized by the mean.
///
/// Returns `0.0` when the mean is zero or the slice has fewer than two
/// elements. This is the dispersion measure used throughout the paper's
/// measurement study (§3.2).
///
/// # Examples
///
/// ```
/// use tuna_stats::summary::coefficient_of_variation;
/// let cov = coefficient_of_variation(&[9.0, 10.0, 11.0]);
/// assert!((cov - 0.1).abs() < 1e-12);
/// ```
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    (std_dev(xs) / m).abs()
}

/// Relative range: `(max - min) / mean`, folded in a single pass.
///
/// The paper's unstable-configuration heuristic (§4.2): it is insensitive to
/// the *frequency* of outliers (unlike CoV) and needs no per-system scale
/// tuning (unlike the standard deviation). Returns `0.0` for slices with
/// fewer than two elements or zero mean.
///
/// # Examples
///
/// ```
/// use tuna_stats::summary::relative_range;
/// // From the paper's Figure 10 walk-through: {500, 450, 530} -> ~16.2%.
/// let rr = relative_range(&[500.0, 450.0, 530.0]);
/// assert!((rr - 0.1622).abs() < 1e-3);
/// ```
pub fn relative_range(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
        sum += x;
    }
    let m = sum / xs.len() as f64;
    if m == 0.0 {
        return 0.0;
    }
    ((max - min) / m).abs()
}

fn total_cmp_no_nan(a: &f64, b: &f64) -> Ordering {
    a.total_cmp(b)
}

/// Interpolated quantile of an **already sorted** slice (no copy, no
/// selection). Useful when the caller sorts once and reads many levels.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Selection-based interpolated quantile over a mutable buffer the caller
/// owns (the buffer is permuted, not sorted). Expected O(n), no
/// allocation.
fn quantile_in_place(buf: &mut [f64], q: f64) -> f64 {
    assert!(!buf.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    let pos = q * (buf.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, &mut lo_val, rest) = buf.select_nth_unstable_by(lo, total_cmp_no_nan);
    if pos == lo as f64 {
        lo_val
    } else {
        // The next order statistic is the minimum of the right partition.
        let hi_val = rest.iter().copied().fold(f64::INFINITY, f64::min);
        let frac = pos - lo as f64;
        lo_val * (1.0 - frac) + hi_val * frac
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`), matching numpy's
/// default. Computed by selection into `scratch` (expected O(n));
/// allocation-free once `scratch` has warmed up to `xs.len()` capacity.
///
/// Bit-identical to [`naive::quantile`].
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile_with(xs: &[f64], q: f64, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend_from_slice(xs);
    quantile_in_place(scratch, q)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`), matching numpy's default.
///
/// Convenience wrapper over [`quantile_with`] that owns its scratch; hot
/// loops should hold a scratch buffer and call [`quantile_with`] instead.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut scratch = Vec::new();
    quantile_with(xs, q, &mut scratch)
}

/// Median (the 0.5 quantile) with caller-owned scratch.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median_with(xs: &[f64], scratch: &mut Vec<f64>) -> f64 {
    quantile_with(xs, 0.5, scratch)
}

/// Median (the 0.5 quantile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median absolute deviation (unscaled) with caller-owned scratch: the
/// median of `|x - median(xs)|`. Robust spread estimate used by the
/// perf-gate micro-kernels; both medians run by selection.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mad_with(xs: &[f64], scratch: &mut Vec<f64>) -> f64 {
    let med = median_with(xs, scratch);
    scratch.clear();
    scratch.extend(xs.iter().map(|x| (x - med).abs()));
    quantile_in_place(scratch, 0.5)
}

/// Median absolute deviation (unscaled).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mad(xs: &[f64]) -> f64 {
    let mut scratch = Vec::new();
    mad_with(xs, &mut scratch)
}

/// 95th-percentile helper used by the latency-oriented workloads.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn p95(xs: &[f64]) -> f64 {
    quantile(xs, 0.95)
}

/// Minimum; `None` for an empty slice.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum; `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Interquartile range (Q3 - Q1) with caller-owned scratch.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn iqr_with(xs: &[f64], scratch: &mut Vec<f64>) -> f64 {
    // One copy serves both selections: selection only permutes the
    // buffer, so the second order statistic is unchanged.
    scratch.clear();
    scratch.extend_from_slice(xs);
    quantile_in_place(scratch, 0.75) - quantile_in_place(scratch, 0.25)
}

/// Interquartile range (Q3 - Q1).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn iqr(xs: &[f64]) -> f64 {
    let mut scratch = Vec::new();
    iqr_with(xs, &mut scratch)
}

/// Five-number summary (min, Q1, median, Q3, max) — the boxplot statistics
/// the paper's deployment figures report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Smallest observation.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

impl FiveNumber {
    /// Computes the five-number summary with caller-owned scratch: one
    /// copy + one sort instead of the five clone-and-sort quantile calls
    /// of [`naive::five_number`], with bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of_with(xs: &[f64], scratch: &mut Vec<f64>) -> Self {
        assert!(!xs.is_empty(), "five-number summary of empty slice");
        scratch.clear();
        scratch.extend_from_slice(xs);
        scratch.sort_unstable_by(total_cmp_no_nan);
        FiveNumber {
            min: scratch[0],
            q1: quantile_of_sorted(scratch, 0.25),
            median: quantile_of_sorted(scratch, 0.5),
            q3: quantile_of_sorted(scratch, 0.75),
            max: scratch[scratch.len() - 1],
        }
    }

    /// Computes the five-number summary of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Self {
        let mut scratch = Vec::new();
        Self::of_with(xs, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(relative_range(&[]), 0.0);
        assert_eq!(relative_range(&[5.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn relative_range_paper_example() {
        // §5.2: samples 500, 450, 530 -> relative range 16.2% (stable).
        let rr = relative_range(&[500.0, 450.0, 530.0]);
        assert!((rr - 0.16216).abs() < 1e-4, "rr {rr}");
        assert!(rr < 0.30);
    }

    #[test]
    fn relative_range_detects_outlier_regardless_of_count() {
        // One extreme outlier and two extreme outliers give the same
        // relative range — the detector must not be biased by incidence.
        let one = relative_range(&[100.0, 100.0, 100.0, 100.0, 30.0]);
        let two = relative_range(&[100.0, 100.0, 100.0, 30.0, 30.0]);
        assert!(one > 0.30 && two > 0.30);
    }

    #[test]
    fn relative_range_matches_naive_oracle_bitwise() {
        let xs = [500.0, 450.0, 530.0, 100.0, 987.5, 3.25];
        for n in 0..xs.len() {
            assert_eq!(relative_range(&xs[..n]), naive::relative_range(&xs[..n]));
        }
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_order_invariant() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&a, 0.3), quantile(&b, 0.3));
    }

    #[test]
    fn selection_matches_naive_oracle_bitwise() {
        let xs = [5.5, 1.25, -3.0, 2.0, 4.0, 4.0, 11.75, 0.0, -3.0];
        let mut scratch = Vec::new();
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(quantile_with(&xs, q, &mut scratch), naive::quantile(&xs, q));
        }
        assert_eq!(median_with(&xs, &mut scratch), naive::median(&xs));
        assert_eq!(mad_with(&xs, &mut scratch), naive::mad(&xs));
        assert_eq!(
            FiveNumber::of_with(&xs, &mut scratch),
            naive::five_number(&xs)
        );
    }

    #[test]
    fn quantile_of_sorted_matches_quantile() {
        let mut xs = vec![9.0, 2.0, 7.0, 4.0, 1.0, 8.0];
        let q95 = quantile(&xs, 0.95);
        xs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(quantile_of_sorted(&xs, 0.95), q95);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn five_number_summary() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let f = FiveNumber::of(&xs);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.max, 5.0);
        assert!(f.q1 <= f.median && f.median <= f.q3);
    }

    #[test]
    fn mad_of_constant_is_zero() {
        assert_eq!(mad(&[7.0, 7.0, 7.0, 7.0]), 0.0);
    }

    #[test]
    fn mad_robust_to_one_outlier() {
        // One wild outlier barely moves the MAD, unlike the std dev.
        let clean = mad(&[10.0, 11.0, 9.0, 10.5, 9.5]);
        let dirty = mad(&[10.0, 11.0, 9.0, 10.5, 1000.0]);
        assert!(dirty < clean * 3.0, "clean {clean} dirty {dirty}");
    }

    #[test]
    fn cov_scale_invariant() {
        let xs = [9.0, 10.0, 11.0];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 1000.0).collect();
        assert!((coefficient_of_variation(&xs) - coefficient_of_variation(&scaled)).abs() < 1e-12);
    }

    #[test]
    fn p95_of_uniform_grid() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert!((p95(&xs) - 95.0).abs() < 1e-9);
    }

    #[test]
    fn iqr_positive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert!(iqr(&xs) > 0.0);
    }

    #[test]
    fn scratch_is_reusable_across_sizes() {
        let mut scratch = Vec::new();
        assert_eq!(median_with(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut scratch), 3.0);
        assert_eq!(median_with(&[10.0, 20.0], &mut scratch), 15.0);
        assert_eq!(median_with(&[42.0], &mut scratch), 42.0);
    }
}
