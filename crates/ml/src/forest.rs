//! Bagged random-forest regression.
//!
//! Serves two roles in the reproduction: the surrogate model of the
//! SMAC-style optimizer (mean + across-tree variance drive expected
//! improvement) and the paper's noise-adjuster model (Algorithm 1), chosen
//! there because forests generalize from little data, select informative
//! features implicitly, and are cheap to refit on every new observation.
//!
//! A fit builds the training matrix once (column-major, ranked; see
//! [`crate::tree`]) and grows every tree on `u32` row indices into it: a
//! bootstrap resample draws indices, not rows. Tree `t` draws only from
//! `rng.fork(t)`, so trees can grow on [`ForestParams::threads`] threads
//! and the forest is bit-identical at any thread count.

use crate::tree::{RankedColumns, RegressionTree, SplitScratch, TreeParams};
use crate::{check_xy, with_scratch, MlError, Regressor};
use std::sync::atomic::{AtomicUsize, Ordering};
use tuna_stats::rng::Rng;
use tuna_stats::scaler::StandardScaler;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureSubsample {
    /// All features (bagging only).
    All,
    /// `sqrt(n_features)`, the classification-style default.
    Sqrt,
    /// `n_features / 3`, the regression-style default.
    Third,
    /// An explicit count.
    Fixed(usize),
}

impl FeatureSubsample {
    fn resolve(&self, n_features: usize) -> Option<usize> {
        let k = match self {
            FeatureSubsample::All => return None,
            FeatureSubsample::Sqrt => (n_features as f64).sqrt().round() as usize,
            FeatureSubsample::Third => n_features / 3,
            FeatureSubsample::Fixed(k) => *k,
        };
        Some(k.clamp(1, n_features))
    }
}

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Whether each tree sees a bootstrap resample of the data.
    pub bootstrap: bool,
    /// Per-split feature subsampling policy.
    pub feature_subsample: FeatureSubsample,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Threads that grow trees concurrently (`0` and `1` both mean the
    /// calling thread alone). Every tree draws from its own fork of the
    /// fit's generator, so the fitted forest does not depend on this
    /// value — it only trades wall-clock for threads.
    pub threads: usize,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 48,
            bootstrap: true,
            feature_subsample: FeatureSubsample::Third,
            tree: TreeParams {
                min_samples_leaf: 2,
                ..TreeParams::default()
            },
            threads: 1,
        }
    }
}

/// A fitted (or not-yet-fitted) random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: ForestParams,
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(params: ForestParams) -> Self {
        RandomForest {
            params,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Whether [`Regressor::fit`] has been called successfully.
    pub fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Normalized feature importances (sum to 1 unless all gains are zero).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut gains = vec![0.0; self.n_features];
        for t in &self.trees {
            for (g, tg) in gains.iter_mut().zip(t.feature_gains()) {
                *g += tg;
            }
        }
        let total: f64 = gains.iter().sum();
        if total > 0.0 {
            for g in &mut gains {
                *g /= total;
            }
        }
        gains
    }

    /// Predicts mean and across-tree variance for one row.
    ///
    /// The variance is the empirical variance of individual tree
    /// predictions — the epistemic-uncertainty proxy SMAC uses for EI.
    ///
    /// # Panics
    ///
    /// Panics if called before fitting.
    pub fn predict_stats(&self, row: &[f64]) -> (f64, f64) {
        assert!(self.is_fitted(), "predict on unfitted forest");
        with_scratch(self.trees.len(), |preds| {
            for (p, t) in preds.iter_mut().zip(&self.trees) {
                *p = t.predict(row);
            }
            let n = preds.len() as f64;
            let mean = preds.iter().sum::<f64>() / n;
            let var = if preds.len() < 2 {
                0.0
            } else {
                preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / (n - 1.0)
            };
            (mean, var)
        })
    }

    /// Grows the trees on `data`, tree `t` from `rng.fork(t)`, on up to
    /// `params.threads` threads.
    fn fit_ranked(&mut self, data: &RankedColumns, y: &[f64], rng: &Rng) -> Result<(), MlError> {
        if self.params.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees = 0".into()));
        }
        let rows = data.n_rows();
        let tree_params = TreeParams {
            max_features: self.params.feature_subsample.resolve(data.n_features()),
            ..self.params.tree
        };
        let bootstrap = self.params.bootstrap;
        let grow = |t: usize, sample: &mut Vec<u32>, scratch: &mut SplitScratch| {
            let mut tree_rng = rng.fork(t as u64);
            sample.clear();
            if bootstrap {
                sample.extend((0..rows).map(|_| tree_rng.below(rows) as u32));
            } else {
                sample.extend(0..rows as u32);
            }
            RegressionTree::grow(data, y, sample, tree_params, &mut tree_rng, scratch)
        };

        let n_trees = self.params.n_trees;
        let workers = self.params.threads.clamp(1, n_trees);
        self.n_features = data.n_features();
        self.trees = if workers == 1 {
            let (mut sample, mut scratch) = (Vec::new(), SplitScratch::default());
            (0..n_trees)
                .map(|t| grow(t, &mut sample, &mut scratch))
                .collect()
        } else {
            // Workers claim tree indices from a shared cursor; the trees
            // are put back in index order afterwards. The cursor publishes
            // no data (trees come back through `join`), so `Relaxed`.
            let next = AtomicUsize::new(0);
            let mut grown: Vec<(usize, RegressionTree)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let (mut sample, mut scratch) = (Vec::new(), SplitScratch::default());
                            let mut grown = Vec::new();
                            loop {
                                let t = next.fetch_add(1, Ordering::Relaxed);
                                if t >= n_trees {
                                    return grown;
                                }
                                grown.push((t, grow(t, &mut sample, &mut scratch)));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            grown.sort_unstable_by_key(|&(t, _)| t);
            grown.into_iter().map(|(_, tree)| tree).collect()
        };
        Ok(())
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], rng: &mut Rng) -> Result<(), MlError> {
        check_xy(x, y)?;
        self.fit_ranked(&RankedColumns::new(x, None)?, y, rng)
    }

    fn fit_standardized(
        &mut self,
        x: &[Vec<f64>],
        scaler: &StandardScaler,
        y: &[f64],
        rng: &mut Rng,
    ) -> Result<(), MlError> {
        check_xy(x, y)?;
        self.fit_ranked(&RankedColumns::new(x, Some(scaler))?, y, rng)
    }

    fn predict(&self, row: &[f64]) -> f64 {
        self.predict_stats(row).0
    }

    fn predict_with_uncertainty(&self, row: &[f64]) -> (f64, f64) {
        self.predict_stats(row)
    }
}

/// The original serial fit, retained as an oracle: bootstrap resamples
/// clone rows and every tree grows with [`crate::tree::naive::fit`]. Kept
/// public for the crate's differential property tests; do not call it
/// from production code.
pub mod naive {
    use super::{ForestParams, RandomForest};
    use crate::tree::{naive as tree, TreeParams};
    use crate::{check_xy, MlError};
    use tuna_stats::rng::Rng;

    /// Fits a forest to `(x, y)` the original way (`params.threads` is
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or ragged, or
    /// `params.n_trees` is zero.
    pub fn fit(
        params: ForestParams,
        x: &[Vec<f64>],
        y: &[f64],
        rng: &mut Rng,
    ) -> Result<RandomForest, MlError> {
        let (rows, cols) = check_xy(x, y)?;
        if params.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees = 0".into()));
        }
        let tree_params = TreeParams {
            max_features: params.feature_subsample.resolve(cols),
            ..params.tree
        };
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut boot_x: Vec<Vec<f64>> = Vec::with_capacity(rows);
        let mut boot_y: Vec<f64> = Vec::with_capacity(rows);
        for t in 0..params.n_trees {
            let mut tree_rng = rng.fork(t as u64);
            let fitted = if params.bootstrap {
                boot_x.clear();
                boot_y.clear();
                for _ in 0..rows {
                    let i = tree_rng.below(rows);
                    boot_x.push(x[i].clone());
                    boot_y.push(y[i]);
                }
                tree::fit(&boot_x, &boot_y, tree_params, &mut tree_rng)?
            } else {
                tree::fit(x, y, tree_params, &mut tree_rng)?
            };
            trees.push(fitted);
        }
        Ok(RandomForest {
            params,
            trees,
            n_features: cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize, noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.next_f64()).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                    + 20.0 * (x[2] - 0.5).powi(2)
                    + noise * rng.next_gaussian()
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn beats_mean_predictor_on_nonlinear_data() {
        let (xs, ys) = friedman_like(400, 0.5, 31);
        let (tx, ty) = friedman_like(200, 0.0, 32);
        let mut rf = RandomForest::new(ForestParams::default());
        rf.fit(&xs, &ys, &mut Rng::seed_from(1)).unwrap();

        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let mse_rf: f64 = tx
            .iter()
            .zip(&ty)
            .map(|(x, y)| (rf.predict(x) - y).powi(2))
            .sum::<f64>()
            / ty.len() as f64;
        let mse_mean: f64 = ty.iter().map(|y| (y_mean - y).powi(2)).sum::<f64>() / ty.len() as f64;
        assert!(
            mse_rf < mse_mean / 3.0,
            "rf mse {mse_rf} vs mean mse {mse_mean}"
        );
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let (xs, ys) = friedman_like(100, 0.2, 33);
        let mut a = RandomForest::new(ForestParams::default());
        let mut b = RandomForest::new(ForestParams::default());
        a.fit(&xs, &ys, &mut Rng::seed_from(5)).unwrap();
        b.fit(&xs, &ys, &mut Rng::seed_from(5)).unwrap();
        let probe = vec![0.3, 0.6, 0.1, 0.9];
        assert_eq!(a.predict(&probe), b.predict(&probe));
    }

    #[test]
    fn uncertainty_reflects_tree_disagreement() {
        // Many duplicated points at x = 0 (every tree learns the same leaf)
        // versus sparse points on a steep sine in [0.5, 1] (trees place
        // splits differently): across-tree variance must separate the two.
        let mut rng = Rng::seed_from(34);
        let mut xs: Vec<Vec<f64>> = (0..200).map(|_| vec![0.0]).collect();
        let mut ys: Vec<f64> = vec![0.0; 200];
        for _ in 0..50 {
            let x = 0.5 + rng.next_f64() * 0.5;
            xs.push(vec![x]);
            ys.push((x * 20.0).sin() * 5.0);
        }
        let mut rf = RandomForest::new(ForestParams {
            n_trees: 64,
            ..ForestParams::default()
        });
        rf.fit(&xs, &ys, &mut Rng::seed_from(2)).unwrap();
        let (_, var_certain) = rf.predict_stats(&[0.0]);
        let (_, var_uncertain) = rf.predict_stats(&[0.75]);
        assert!(
            var_uncertain > var_certain * 10.0,
            "certain {var_certain} uncertain {var_uncertain}"
        );
    }

    #[test]
    fn predictions_within_target_range() {
        let (xs, ys) = friedman_like(200, 0.0, 35);
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut rf = RandomForest::new(ForestParams::default());
        rf.fit(&xs, &ys, &mut Rng::seed_from(3)).unwrap();
        let mut rng = Rng::seed_from(36);
        for _ in 0..100 {
            let probe: Vec<f64> = (0..4).map(|_| rng.next_f64()).collect();
            let p = rf.predict(&probe);
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn importances_identify_signal_features() {
        let mut rng = Rng::seed_from(37);
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.next_f64(), rng.next_f64(), rng.next_f64()])
            .collect();
        // Only feature 1 matters.
        let ys: Vec<f64> = xs.iter().map(|x| 50.0 * x[1]).collect();
        let mut rf = RandomForest::new(ForestParams {
            feature_subsample: FeatureSubsample::All,
            ..ForestParams::default()
        });
        rf.fit(&xs, &ys, &mut Rng::seed_from(4)).unwrap();
        let imp = rf.feature_importances();
        assert!(imp[1] > 0.8, "importances {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_trees_rejected() {
        let mut rf = RandomForest::new(ForestParams {
            n_trees: 0,
            ..ForestParams::default()
        });
        let err = rf
            .fit(&[vec![1.0]], &[1.0], &mut Rng::seed_from(1))
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidHyperparameter(_)));
    }

    #[test]
    #[should_panic(expected = "unfitted")]
    fn predict_before_fit_panics() {
        RandomForest::new(ForestParams::default()).predict(&[1.0]);
    }

    #[test]
    fn single_row_training() {
        let mut rf = RandomForest::new(ForestParams::default());
        rf.fit(&[vec![1.0, 2.0]], &[7.0], &mut Rng::seed_from(1))
            .unwrap();
        assert_eq!(rf.predict(&[0.0, 0.0]), 7.0);
        let (_, var) = rf.predict_stats(&[0.0, 0.0]);
        assert_eq!(var, 0.0);
    }

    #[test]
    fn feature_subsample_resolution() {
        assert_eq!(FeatureSubsample::All.resolve(10), None);
        assert_eq!(FeatureSubsample::Sqrt.resolve(9), Some(3));
        assert_eq!(FeatureSubsample::Third.resolve(9), Some(3));
        assert_eq!(FeatureSubsample::Third.resolve(2), Some(1));
        assert_eq!(FeatureSubsample::Fixed(100).resolve(5), Some(5));
        assert_eq!(FeatureSubsample::Fixed(0).resolve(5), Some(1));
    }
}
