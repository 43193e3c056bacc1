//! `Standardize ∘ Regressor` composition.
//!
//! Algorithm 1 of the paper defines the noise-adjuster model as
//! `RandomForestRegressor ∘ Standardize`; [`StandardizedRegressor`] is that
//! composition for any [`Regressor`].

use crate::{with_scratch, MlError, Regressor};
use tuna_stats::rng::Rng;
use tuna_stats::scaler::StandardScaler;

/// Wraps a regressor with input standardization fitted at training time.
#[derive(Debug, Clone)]
pub struct StandardizedRegressor<M: Regressor> {
    inner: M,
    scaler: Option<StandardScaler>,
}

impl<M: Regressor> StandardizedRegressor<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        StandardizedRegressor {
            inner,
            scaler: None,
        }
    }

    /// Whether the pipeline has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.scaler.is_some()
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Calls `f` with `x` standardized into a scratch row.
    fn with_scaled_row<R>(&self, x: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
        let scaler = self.scaler.as_ref().expect("predict on unfitted pipeline");
        with_scratch(x.len(), |row| {
            row.copy_from_slice(x);
            scaler.transform_row(row);
            f(row)
        })
    }
}

impl<M: Regressor> Regressor for StandardizedRegressor<M> {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], rng: &mut Rng) -> Result<(), MlError> {
        if x.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let scaler = StandardScaler::fit(x);
        self.inner.fit_standardized(x, &scaler, y, rng)?;
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.with_scaled_row(x, |row| self.inner.predict(row))
    }

    fn predict_with_uncertainty(&self, x: &[f64]) -> (f64, f64) {
        self.with_scaled_row(x, |row| self.inner.predict_with_uncertainty(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestParams, RandomForest};

    #[test]
    fn standardized_forest_learns_despite_scale_mismatch() {
        // Feature scales differ by 6 orders of magnitude.
        let mut rng = Rng::seed_from(55);
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.next_f64() * 1e6, rng.next_f64() * 1e-3])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] / 1e6 + x[1] / 1e-3).collect();
        let mut model = StandardizedRegressor::new(RandomForest::new(ForestParams::default()));
        model.fit(&xs, &ys, &mut Rng::seed_from(1)).unwrap();
        let pred = model.predict(&[5e5, 5e-4]);
        assert!((pred - 1.0).abs() < 0.25, "pred {pred}");
    }

    #[test]
    fn empty_fit_rejected() {
        let mut model = StandardizedRegressor::new(RandomForest::new(ForestParams::default()));
        assert!(matches!(
            model.fit(&[], &[], &mut Rng::seed_from(1)),
            Err(MlError::EmptyTrainingSet)
        ));
        assert!(!model.is_fitted());
    }

    #[test]
    #[should_panic(expected = "unfitted pipeline")]
    fn predict_unfitted_panics() {
        let model = StandardizedRegressor::new(RandomForest::new(ForestParams::default()));
        model.predict(&[1.0]);
    }

    #[test]
    fn uncertainty_passes_through() {
        let mut rng = Rng::seed_from(56);
        let xs: Vec<Vec<f64>> = (0..100).map(|_| vec![rng.next_f64()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let mut model = StandardizedRegressor::new(RandomForest::new(ForestParams::default()));
        model.fit(&xs, &ys, &mut Rng::seed_from(2)).unwrap();
        let (m, v) = model.predict_with_uncertainty(&[0.5]);
        assert!(m.is_finite() && v >= 0.0);
    }
}
