//! Exact Gaussian-process regression.
//!
//! Implements the OtterTune-style GP optimizer substrate of §6.6: an exact
//! GP with RBF or Matérn-5/2 kernel, fitted by Cholesky factorization of
//! `K + sigma_n^2 I`, with hyperparameters selected by maximizing the log
//! marginal likelihood over a small grid (robust and dependency-free, at
//! the observation counts a tuning run produces).

use crate::linalg::{Cholesky, Matrix};
use crate::{check_xy, MlError, Regressor};
use tuna_stats::rng::Rng;

/// Stationary covariance kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Squared-exponential: `s^2 * exp(-r^2 / (2 l^2))`.
    Rbf {
        /// Lengthscale `l`.
        lengthscale: f64,
        /// Signal variance `s^2`.
        signal_var: f64,
    },
    /// Matérn-5/2: the default in most BO systems — once-differentiable
    /// sample paths match real response surfaces better than RBF.
    Matern52 {
        /// Lengthscale `l`.
        lengthscale: f64,
        /// Signal variance `s^2`.
        signal_var: f64,
    },
}

impl Kernel {
    /// Covariance between two points.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>();
        match self {
            Kernel::Rbf {
                lengthscale,
                signal_var,
            } => signal_var * (-r2 / (2.0 * lengthscale * lengthscale)).exp(),
            Kernel::Matern52 {
                lengthscale,
                signal_var,
            } => {
                let r = r2.sqrt() / lengthscale;
                let sqrt5r = 5.0_f64.sqrt() * r;
                signal_var * (1.0 + sqrt5r + 5.0 * r * r / 3.0) * (-sqrt5r).exp()
            }
        }
    }

    /// Variance at zero distance.
    pub fn signal_var(&self) -> f64 {
        match self {
            Kernel::Rbf { signal_var, .. } | Kernel::Matern52 { signal_var, .. } => *signal_var,
        }
    }

    fn with_params(&self, lengthscale: f64, signal_var: f64) -> Kernel {
        match self {
            Kernel::Rbf { .. } => Kernel::Rbf {
                lengthscale,
                signal_var,
            },
            Kernel::Matern52 { .. } => Kernel::Matern52 {
                lengthscale,
                signal_var,
            },
        }
    }
}

/// Gaussian-process regression model.
///
/// Targets are internally standardized (zero mean, unit variance) so the
/// default hyperparameter grid is scale-free.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    noise_var: f64,
    /// Fitted state.
    train_x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Option<Cholesky>,
    y_mean: f64,
    y_std: f64,
}

impl GaussianProcess {
    /// Creates an unfitted GP with the given kernel and observation noise
    /// variance (in standardized-target units).
    ///
    /// # Errors
    ///
    /// Rejects non-positive noise variance.
    pub fn new(kernel: Kernel, noise_var: f64) -> Result<Self, MlError> {
        if !noise_var.is_finite() || noise_var <= 0.0 {
            return Err(MlError::InvalidHyperparameter(format!(
                "noise_var = {noise_var}"
            )));
        }
        Ok(GaussianProcess {
            kernel,
            noise_var,
            train_x: Vec::new(),
            alpha: Vec::new(),
            chol: None,
            y_mean: 0.0,
            y_std: 1.0,
        })
    }

    /// The kernel in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Fits with the current hyperparameters.
    fn fit_fixed(&mut self, x: &[Vec<f64>], y_std: &[f64]) -> Result<f64, MlError> {
        let n = x.len();
        let mut k = Matrix::from_fn(n, n, |i, j| self.kernel.eval(&x[i], &x[j]));
        k.add_diagonal(self.noise_var + 1e-10);
        let chol = Cholesky::factor(&k)?;
        let alpha = chol.solve(y_std);
        // Log marginal likelihood: -0.5 y^T alpha - 0.5 log|K| - n/2 log(2pi).
        let fit_term: f64 = y_std.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        let lml = -0.5 * fit_term
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        self.train_x = x.to_vec();
        self.alpha = alpha;
        self.chol = Some(chol);
        Ok(lml)
    }

    /// Fits the GP, selecting lengthscale / signal variance / noise variance
    /// by log-marginal-likelihood over a coarse grid.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; falls back to the most-jittered grid point
    /// if every candidate is numerically non-positive-definite.
    pub fn fit_with_hyperopt(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let (y_std_vals, mean, std) = standardize_targets(y);
        self.y_mean = mean;
        self.y_std = std;

        let lengthscales = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0];
        let signal_vars = [0.5, 1.0, 2.0];
        let noise_vars = [1e-4, 1e-2, 0.1];

        let mut best: Option<(f64, Kernel, f64)> = None;
        for &l in &lengthscales {
            for &s in &signal_vars {
                for &nv in &noise_vars {
                    let mut candidate = GaussianProcess {
                        kernel: self.kernel.with_params(l, s),
                        noise_var: nv,
                        train_x: Vec::new(),
                        alpha: Vec::new(),
                        chol: None,
                        y_mean: mean,
                        y_std: std,
                    };
                    if let Ok(lml) = candidate.fit_fixed(x, &y_std_vals) {
                        if best.as_ref().is_none_or(|(b, _, _)| lml > *b) {
                            best = Some((lml, candidate.kernel, nv));
                        }
                    }
                }
            }
        }
        let (_, kernel, noise) = best.ok_or(MlError::NotPositiveDefinite)?;
        self.kernel = kernel;
        self.noise_var = noise;
        self.fit_fixed(x, &y_std_vals)?;
        Ok(())
    }

    /// Posterior mean and variance at `row` (in original target units).
    ///
    /// # Panics
    ///
    /// Panics if called before fitting.
    pub fn predict_stats(&self, row: &[f64]) -> (f64, f64) {
        let chol = self.chol.as_ref().expect("predict on unfitted GP");
        let k_star: Vec<f64> = self
            .train_x
            .iter()
            .map(|x| self.kernel.eval(x, row))
            .collect();
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let v = chol.solve_lower(&k_star);
        let var_std = (self.kernel.signal_var() - v.iter().map(|x| x * x).sum::<f64>()).max(0.0);
        (
            self.y_mean + self.y_std * mean_std,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Log marginal likelihood of the fitted model (standardized units).
    ///
    /// # Panics
    ///
    /// Panics if called before fitting.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let chol = self.chol.as_ref().expect("LML on unfitted GP");
        let n = self.train_x.len();
        // Recover y_std via K alpha (K = L L^T).
        let ktimes = {
            let mut k = Matrix::from_fn(n, n, |i, j| {
                self.kernel.eval(&self.train_x[i], &self.train_x[j])
            });
            k.add_diagonal(self.noise_var + 1e-10);
            k.matvec(&self.alpha)
        };
        let fit_term: f64 = ktimes.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        -0.5 * fit_term - 0.5 * chol.log_det() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

fn standardize_targets(y: &[f64]) -> (Vec<f64>, f64, f64) {
    let n = y.len() as f64;
    let mean = y.iter().sum::<f64>() / n;
    let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = if var.sqrt() < 1e-12 { 1.0 } else { var.sqrt() };
    (y.iter().map(|v| (v - mean) / std).collect(), mean, std)
}

impl Regressor for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64], _rng: &mut Rng) -> Result<(), MlError> {
        self.fit_with_hyperopt(x, y)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.predict_stats(x).0
    }

    fn predict_with_uncertainty(&self, x: &[f64]) -> (f64, f64) {
        self.predict_stats(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_sine(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * std::f64::consts::TAU).sin() * 5.0 + 10.0)
            .collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = train_sine(20);
        let mut gp = GaussianProcess::new(
            Kernel::Rbf {
                lengthscale: 0.2,
                signal_var: 1.0,
            },
            1e-4,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, _) = gp.predict_stats(x);
            assert!((m - y).abs() < 0.3, "at {x:?}: {m} vs {y}");
        }
    }

    #[test]
    fn generalizes_between_points() {
        let (xs, ys) = train_sine(40);
        let mut gp = GaussianProcess::new(
            Kernel::Matern52 {
                lengthscale: 0.2,
                signal_var: 1.0,
            },
            1e-4,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        let probe = vec![0.3125];
        let want = (0.3125 * std::f64::consts::TAU).sin() * 5.0 + 10.0;
        let (m, _) = gp.predict_stats(&probe);
        assert!((m - want).abs() < 0.5, "{m} vs {want}");
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = train_sine(15);
        let mut gp = GaussianProcess::new(
            Kernel::Matern52 {
                lengthscale: 0.2,
                signal_var: 1.0,
            },
            1e-4,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        let (_, var_near) = gp.predict_stats(&[0.5]);
        let (_, var_far) = gp.predict_stats(&[3.0]);
        assert!(var_far > var_near * 5.0, "near {var_near} far {var_far}");
    }

    #[test]
    fn variance_nonnegative_everywhere() {
        let (xs, ys) = train_sine(25);
        let mut gp = GaussianProcess::new(
            Kernel::Rbf {
                lengthscale: 0.1,
                signal_var: 1.0,
            },
            1e-3,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        let mut x = -1.0;
        while x < 2.0 {
            let (_, v) = gp.predict_stats(&[x]);
            assert!(v >= 0.0, "negative variance at {x}");
            x += 0.03;
        }
    }

    #[test]
    fn kernel_matern_at_zero_distance_is_signal_var() {
        let k = Kernel::Matern52 {
            lengthscale: 0.5,
            signal_var: 2.5,
        };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_decreases_with_distance() {
        for k in [
            Kernel::Rbf {
                lengthscale: 0.5,
                signal_var: 1.0,
            },
            Kernel::Matern52 {
                lengthscale: 0.5,
                signal_var: 1.0,
            },
        ] {
            let near = k.eval(&[0.0], &[0.1]);
            let far = k.eval(&[0.0], &[1.0]);
            assert!(near > far, "{k:?}");
        }
    }

    #[test]
    fn rejects_bad_noise() {
        assert!(GaussianProcess::new(
            Kernel::Rbf {
                lengthscale: 1.0,
                signal_var: 1.0
            },
            0.0
        )
        .is_err());
    }

    #[test]
    fn constant_targets_do_not_crash() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0]).collect();
        let ys = vec![5.0; 10];
        let mut gp = GaussianProcess::new(
            Kernel::Rbf {
                lengthscale: 0.3,
                signal_var: 1.0,
            },
            1e-3,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        let (m, _) = gp.predict_stats(&[0.5]);
        assert!((m - 5.0).abs() < 0.5);
    }

    #[test]
    fn lml_finite_after_fit() {
        let (xs, ys) = train_sine(12);
        let mut gp = GaussianProcess::new(
            Kernel::Matern52 {
                lengthscale: 0.2,
                signal_var: 1.0,
            },
            1e-3,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        assert!(gp.log_marginal_likelihood().is_finite());
    }

    #[test]
    fn multidimensional_inputs() {
        let mut rng = Rng::seed_from(99);
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![rng.next_f64(), rng.next_f64(), rng.next_f64()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + x[1] - x[2]).collect();
        let mut gp = GaussianProcess::new(
            Kernel::Matern52 {
                lengthscale: 0.5,
                signal_var: 1.0,
            },
            1e-3,
        )
        .unwrap();
        gp.fit_with_hyperopt(&xs, &ys).unwrap();
        let (m, _) = gp.predict_stats(&[0.5, 0.5, 0.5]);
        assert!((m - 1.0).abs() < 0.4, "{m}");
    }
}
