//! Differential property tests: streaming/selection estimators vs the
//! retained naive oracles.
//!
//! The perf-gate rewrite replaced the clone-and-sort order statistics
//! with selection over scratch buffers (contract: **bit-identical**),
//! and the two-pass moment estimators with single-pass streaming
//! updates (contract: within a pinned 1e-12 tolerance). Each
//! property here drives one such pair over adversarial inputs —
//! constant windows, sorted windows, NaN-free extreme magnitudes, and
//! temporally correlated AR(1) streams from `tuna_stats::ar1`.

use proptest::prelude::*;
use tuna_stats::ar1::Ar1;
use tuna_stats::online::Welford;
use tuna_stats::rng::Rng;
use tuna_stats::summary::{self, FiveNumber};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// A temporally correlated AR(1) window around a nominal level of 1.0 —
/// the shape of the cloud-noise windows the pipeline aggregates.
fn ar1_window(seed: u64, phi: f64, n: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed);
    let mut ar = Ar1::new(phi, 0.1, &mut rng).expect("valid AR(1)");
    (0..n).map(|_| 1.0 + ar.step(&mut rng)).collect()
}

/// Relative-ish tolerance pinned by the issue: 1e-12 scaled by
/// magnitude so extreme inputs (1e6, squared in the moments) do not
/// fail on representation noise alone.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + scale.abs())
}

proptest! {
    // ---- selection vs sort: bit-identical contracts ----------------------

    #[test]
    fn quantile_selection_matches_naive_bitwise(xs in finite_vec(64), q in 0.0f64..=1.0) {
        let mut scratch = Vec::new();
        prop_assert_eq!(
            summary::quantile_with(&xs, q, &mut scratch).to_bits(),
            summary::naive::quantile(&xs, q).to_bits()
        );
    }

    #[test]
    fn median_mad_match_naive_bitwise(xs in finite_vec(64)) {
        let mut scratch = Vec::new();
        prop_assert_eq!(
            summary::median_with(&xs, &mut scratch).to_bits(),
            summary::naive::median(&xs).to_bits()
        );
        prop_assert_eq!(
            summary::mad_with(&xs, &mut scratch).to_bits(),
            summary::naive::mad(&xs).to_bits()
        );
    }

    #[test]
    fn five_number_matches_naive_bitwise(xs in finite_vec(64)) {
        let mut scratch = Vec::new();
        let fast = FiveNumber::of_with(&xs, &mut scratch);
        let slow = summary::naive::five_number(&xs);
        prop_assert_eq!(fast.min.to_bits(), slow.min.to_bits());
        prop_assert_eq!(fast.q1.to_bits(), slow.q1.to_bits());
        prop_assert_eq!(fast.median.to_bits(), slow.median.to_bits());
        prop_assert_eq!(fast.q3.to_bits(), slow.q3.to_bits());
        prop_assert_eq!(fast.max.to_bits(), slow.max.to_bits());
    }

    #[test]
    fn single_pass_relative_range_matches_naive_bitwise(xs in finite_vec(64)) {
        prop_assert_eq!(
            summary::relative_range(&xs).to_bits(),
            summary::naive::relative_range(&xs).to_bits()
        );
    }

    #[test]
    fn selection_identical_on_constant_windows(x in -1e6f64..1e6, n in 1usize..48) {
        // Constant windows are the pivot-degenerate worst case for
        // selection; every order statistic must equal the constant.
        let xs = vec![x; n];
        let mut scratch = Vec::new();
        prop_assert_eq!(summary::median_with(&xs, &mut scratch).to_bits(), x.to_bits());
        prop_assert_eq!(summary::quantile_with(&xs, 0.95, &mut scratch).to_bits(), x.to_bits());
        prop_assert_eq!(summary::mad_with(&xs, &mut scratch), 0.0);
    }

    #[test]
    fn selection_identical_on_sorted_windows(mut xs in finite_vec(64), q in 0.0f64..=1.0) {
        // Pre-sorted (and reverse-sorted) inputs are quickselect's
        // classic adversaries.
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut scratch = Vec::new();
        prop_assert_eq!(
            summary::quantile_with(&xs, q, &mut scratch).to_bits(),
            summary::naive::quantile(&xs, q).to_bits()
        );
        xs.reverse();
        prop_assert_eq!(
            summary::quantile_with(&xs, q, &mut scratch).to_bits(),
            summary::naive::quantile(&xs, q).to_bits()
        );
    }

    // ---- streaming vs two-pass: pinned 1e-12 contracts -------------------

    #[test]
    fn welford_matches_batch_mean_variance(xs in finite_vec(64)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let scale = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        prop_assert!(close(w.mean(), summary::mean(&xs), scale));
        prop_assert!(
            (w.variance() - summary::variance(&xs)).abs()
                <= 1e-12 * (1.0 + scale * scale),
            "welford {} vs batch {}",
            w.variance(),
            summary::variance(&xs)
        );
        prop_assert_eq!(w.min(), summary::min(&xs));
        prop_assert_eq!(w.max(), summary::max(&xs));
    }

    // ---- AR(1) streams: the pipeline's actual workload -------------------

    #[test]
    fn ar1_stream_streaming_estimators_match_oracles(
        seed in any::<u64>(),
        phi in -0.95f64..0.95,
        n in 2usize..512
    ) {
        let xs = ar1_window(seed, phi, n);
        let mut scratch = Vec::new();
        prop_assert_eq!(
            summary::median_with(&xs, &mut scratch).to_bits(),
            summary::naive::median(&xs).to_bits()
        );
        prop_assert_eq!(
            summary::relative_range(&xs).to_bits(),
            summary::naive::relative_range(&xs).to_bits()
        );
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!(close(w.mean(), summary::mean(&xs), 1.0));
        prop_assert!(close(w.variance(), summary::variance(&xs), 1.0));
    }
}
