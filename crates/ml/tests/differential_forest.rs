//! Differential tests: the ranked column-major forest builder against the
//! retained original builder (`tree::naive`, `forest::naive`).
//!
//! Data is built to be tie-heavy — one-hot and integer-coded columns,
//! duplicated rows, `-0.0` next to `+0.0` — because tie order is where a
//! reimplementation of the stable sorts would drift. Every comparison is
//! bitwise: trees through `PartialEq` *and* their `Debug` rendering
//! (which tells `-0.0` from `+0.0`), gains and predictions through
//! `f64::to_bits`.

use proptest::prelude::*;
use tuna_ml::forest::{self, FeatureSubsample, ForestParams, RandomForest};
use tuna_ml::pipeline::StandardizedRegressor;
use tuna_ml::tree::{self, RegressionTree, TreeParams};
use tuna_ml::Regressor;
use tuna_stats::rng::Rng;
use tuna_stats::scaler::StandardScaler;

/// Thread counts every forest comparison runs at.
const THREADS: [usize; 3] = [1, 2, 4];

/// A tie-heavy design matrix: a 4-wide one-hot block, two integer-coded
/// columns, a signed-zero column, two coarse continuous columns (8 and 64
/// levels, so narrow nodes sort by keys and wide ones count), and rows
/// duplicated wholesale. Targets are coarse too, so equal-`y` ties occur.
fn tie_heavy(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::seed_from(seed);
    let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.chance(0.25) {
            let j = rng.below(i);
            xs.push(xs[j].clone());
            ys.push(ys[j]);
            continue;
        }
        let hot = rng.below(4);
        let mut row: Vec<f64> = (0..4).map(|k| f64::from(u8::from(k == hot))).collect();
        row.push(rng.below(3) as f64);
        row.push(rng.below(6) as f64 - 2.0);
        row.push([-0.0, 0.0, 1.0, -1.0][rng.below(4)]);
        row.push((rng.next_f64() * 8.0).round() / 8.0);
        row.push((rng.next_f64() * 64.0).round() / 64.0);
        // Multiples of 0.1 and 0.3 are inexact in binary, so sums over
        // tied rows depend on the order they are added in.
        let y = 2.0 * row[0] - 0.3 * row[4] + 0.7 * row[6] + 0.1 * rng.below(4) as f64;
        xs.push(row);
        ys.push(y);
    }
    (xs, ys)
}

/// [`tie_heavy`] plus two NaN columns: one mixing NaN (both signs) into
/// a coarse lattice, one all NaN. `NaN <= x` is false, so the original
/// builder splits next to a NaN, and tied NaNs separate from each other;
/// a builder that tests `x_next > x` instead would not.
fn nan_heavy(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let (mut xs, mut ys) = tie_heavy(seed, n);
    let mut rng = Rng::seed_from(seed ^ 0x4E_414E);
    for (row, y) in xs.iter_mut().zip(&mut ys) {
        let v = [f64::NAN, -f64::NAN, 0.0, 1.0, 2.0][rng.below(5)];
        row.push(v);
        row.push(f64::NAN);
        if v.is_nan() {
            *y += 0.3;
        }
    }
    (xs, ys)
}

/// Probe rows: every training row plus fresh rows on the same lattice.
fn probes(xs: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let (fresh, _) = tie_heavy(seed ^ 0x9E37, 12);
    xs.iter().cloned().chain(fresh).collect()
}

/// [`probes`] for [`nan_heavy`] rows.
fn nan_probes(xs: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let (fresh, _) = nan_heavy(seed ^ 0x9E37, 12);
    xs.iter().cloned().chain(fresh).collect()
}

fn forest_params(bootstrap: bool, third: bool, leaf: usize, n_trees: usize) -> ForestParams {
    ForestParams {
        n_trees,
        bootstrap,
        feature_subsample: if third {
            FeatureSubsample::Third
        } else {
            FeatureSubsample::All
        },
        tree: TreeParams {
            min_samples_leaf: leaf,
            ..TreeParams::default()
        },
        threads: 1,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_trees(fast: &[RegressionTree], oracle: &[RegressionTree]) {
    assert_eq!(fast, oracle);
    assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    for (a, b) in fast.iter().zip(oracle) {
        assert_eq!(bits(a.feature_gains()), bits(b.feature_gains()));
    }
}

/// [`assert_same_trees`] for trees that may hold NaN thresholds, which
/// `PartialEq` never finds equal: the `Debug` rendering, gains and
/// predictions must still agree bit for bit.
fn assert_same_nan_trees(fast: &[RegressionTree], oracle: &[RegressionTree], probes: &[Vec<f64>]) {
    assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    for (a, b) in fast.iter().zip(oracle) {
        assert_eq!(bits(a.feature_gains()), bits(b.feature_gains()));
        for row in probes {
            assert_eq!(a.predict(row).to_bits(), b.predict(row).to_bits());
        }
    }
}

fn stats_bits((mean, var): (f64, f64)) -> (u64, u64) {
    (mean.to_bits(), var.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_matches_naive_builder(seed in any::<u64>(), n in 1usize..80, k in 0usize..9, leaf in 1usize..4) {
        let (xs, ys) = tie_heavy(seed, n);
        let params = TreeParams {
            min_samples_leaf: leaf,
            max_features: (k > 0).then_some(k),
            ..TreeParams::default()
        };
        let mut fast_rng = Rng::seed_from(seed ^ 1);
        let mut oracle_rng = fast_rng.clone();
        let fast = RegressionTree::fit(&xs, &ys, params, &mut fast_rng).unwrap();
        let oracle = tree::naive::fit(&xs, &ys, params, &mut oracle_rng).unwrap();
        assert_same_trees(std::slice::from_ref(&fast), std::slice::from_ref(&oracle));
        // Feature subsampling consumed the generator identically.
        prop_assert_eq!(fast_rng, oracle_rng);
    }

    #[test]
    fn forest_matches_naive_fit_at_any_thread_count(
        seed in any::<u64>(),
        n in 1usize..70,
        bootstrap in any::<bool>(),
        third in any::<bool>(),
        leaf in 1usize..3,
        n_trees in 1usize..7,
    ) {
        let (xs, ys) = tie_heavy(seed, n);
        let params = forest_params(bootstrap, third, leaf, n_trees);
        let oracle = forest::naive::fit(params, &xs, &ys, &mut Rng::seed_from(seed)).unwrap();
        for threads in THREADS {
            let mut fast = RandomForest::new(ForestParams { threads, ..params });
            fast.fit(&xs, &ys, &mut Rng::seed_from(seed)).unwrap();
            assert_same_trees(fast.trees(), oracle.trees());
            prop_assert_eq!(bits(&fast.feature_importances()), bits(&oracle.feature_importances()));
            for row in probes(&xs, seed) {
                prop_assert_eq!(stats_bits(fast.predict_stats(&row)), stats_bits(oracle.predict_stats(&row)));
            }
        }
    }

    #[test]
    fn standardized_forest_matches_naive_on_transformed_copy(
        seed in any::<u64>(),
        n in 1usize..70,
        bootstrap in any::<bool>(),
        third in any::<bool>(),
        n_trees in 1usize..6,
    ) {
        let (xs, ys) = tie_heavy(seed, n);
        let params = forest_params(bootstrap, third, 2, n_trees);
        let scaler = StandardScaler::fit(&xs);
        let oracle =
            forest::naive::fit(params, &scaler.transform(&xs), &ys, &mut Rng::seed_from(seed))
                .unwrap();
        for threads in THREADS {
            let mut fast =
                StandardizedRegressor::new(RandomForest::new(ForestParams { threads, ..params }));
            fast.fit(&xs, &ys, &mut Rng::seed_from(seed)).unwrap();
            assert_same_trees(fast.inner().trees(), oracle.trees());
            for row in probes(&xs, seed) {
                let mut scaled = row.clone();
                scaler.transform_row(&mut scaled);
                prop_assert_eq!(
                    stats_bits(fast.predict_with_uncertainty(&row)),
                    stats_bits(oracle.predict_stats(&scaled))
                );
                prop_assert_eq!(fast.predict(&row).to_bits(), oracle.predict_stats(&scaled).0.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Node sizes on both sides of the small-node sort's edges (8, 16, 32
    /// and 64 rows), with NaN-bearing and all-NaN columns.
    #[test]
    fn nan_columns_match_naive_across_node_size_edges(
        seed in any::<u64>(),
        n in 20usize..140,
        k in 0usize..12,
        leaf in 1usize..3,
    ) {
        let (xs, ys) = nan_heavy(seed, n);
        let params = TreeParams {
            min_samples_leaf: leaf,
            max_features: (k > 0).then_some(k),
            ..TreeParams::default()
        };
        let mut fast_rng = Rng::seed_from(seed ^ 2);
        let mut oracle_rng = fast_rng.clone();
        let probes = nan_probes(&xs, seed);
        let fast = RegressionTree::fit(&xs, &ys, params, &mut fast_rng).unwrap();
        let oracle = tree::naive::fit(&xs, &ys, params, &mut oracle_rng).unwrap();
        assert_same_nan_trees(std::slice::from_ref(&fast), std::slice::from_ref(&oracle), &probes);
        prop_assert_eq!(fast_rng, oracle_rng);

        let params = forest_params(true, k % 2 == 0, leaf, 4);
        let oracle = forest::naive::fit(params, &xs, &ys, &mut Rng::seed_from(seed)).unwrap();
        let mut fast = RandomForest::new(ForestParams { threads: 2, ..params });
        fast.fit(&xs, &ys, &mut Rng::seed_from(seed)).unwrap();
        assert_same_nan_trees(fast.trees(), oracle.trees(), &probes);
        for row in &probes {
            prop_assert_eq!(stats_bits(fast.predict_stats(row)), stats_bits(oracle.predict_stats(row)));
        }
    }
}

/// Every row count from 1 to 70 on one seed, so each node-size edge of
/// the sorts is crossed by the root itself.
#[test]
fn every_small_row_count_matches_naive() {
    for n in 1..=70 {
        let (xs, ys) = nan_heavy(n as u64, n);
        let params = TreeParams {
            max_features: Some(4),
            ..TreeParams::default()
        };
        let fast = RegressionTree::fit(&xs, &ys, params, &mut Rng::seed_from(5)).unwrap();
        let oracle = tree::naive::fit(&xs, &ys, params, &mut Rng::seed_from(5)).unwrap();
        assert_same_nan_trees(
            std::slice::from_ref(&fast),
            std::slice::from_ref(&oracle),
            &nan_probes(&xs, n as u64),
        );
    }
}

/// Forests wider than the stack scratch (64 trees) predict through the
/// heap fallback with the same bits.
#[test]
fn wide_forest_predicts_like_the_oracle() {
    let (xs, ys) = tie_heavy(11, 40);
    let params = forest_params(true, true, 1, 70);
    let oracle = forest::naive::fit(params, &xs, &ys, &mut Rng::seed_from(3)).unwrap();
    let mut fast = RandomForest::new(ForestParams {
        threads: 2,
        ..params
    });
    fast.fit(&xs, &ys, &mut Rng::seed_from(3)).unwrap();
    for row in probes(&xs, 11) {
        assert_eq!(
            stats_bits(fast.predict_stats(&row)),
            stats_bits(oracle.predict_stats(&row))
        );
    }
}
