//! Hand-rolled machine learning for the TUNA reproduction.
//!
//! The paper's repro band notes that Rust's BO/GP ecosystem is thin, so the
//! statistical core is implemented from scratch:
//!
//! - [`tree`]: CART regression trees (variance-reduction splits).
//! - [`forest`]: bagged random-forest regression with per-split feature
//!   subsampling — used both as the SMAC surrogate model and as the paper's
//!   noise-adjuster model (Algorithm 1).
//! - [`gp`]: exact Gaussian-process regression (RBF / Matérn-5/2 kernels,
//!   Cholesky solves, log-marginal-likelihood hyperparameter selection) —
//!   the OtterTune-style optimizer of §6.6.
//! - [`linalg`]: the small dense linear algebra the GP needs.
//! - [`acquisition`]: expected improvement and related acquisition
//!   functions.
//! - [`pipeline`]: `Standardize ∘ Regressor` composition mirroring
//!   Algorithm 1's `RandomForestRegressor ∘ Standardize`.
//!
//! # Examples
//!
//! ```
//! use tuna_ml::forest::{ForestParams, RandomForest};
//! use tuna_ml::Regressor;
//! use tuna_stats::rng::Rng;
//!
//! // Learn y = x0 + x1 from noisy data.
//! let mut rng = Rng::seed_from(7);
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|_| vec![rng.next_f64(), rng.next_f64()])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] + x[1]).collect();
//! let mut rf = RandomForest::new(ForestParams::default());
//! rf.fit(&xs, &ys, &mut Rng::seed_from(1)).unwrap();
//! let pred = rf.predict(&[0.5, 0.5]);
//! assert!((pred - 1.0).abs() < 0.2);
//! ```

pub mod acquisition;
pub mod forest;
pub mod gp;
pub mod linalg;
pub mod pipeline;
pub mod tree;

use tuna_stats::scaler::StandardScaler;

/// Error type shared by the ML fitters.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// No training rows were provided.
    EmptyTrainingSet,
    /// Rows have inconsistent widths, or `x`/`y` lengths differ.
    ShapeMismatch { detail: String },
    /// A matrix required to be positive definite was not.
    NotPositiveDefinite,
    /// A hyperparameter was out of range.
    InvalidHyperparameter(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::EmptyTrainingSet => write!(f, "empty training set"),
            MlError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            MlError::NotPositiveDefinite => write!(f, "matrix not positive definite"),
            MlError::InvalidHyperparameter(s) => write!(f, "invalid hyperparameter: {s}"),
        }
    }
}

impl std::error::Error for MlError {}

/// A regression model that can be fit on a design matrix and queried
/// pointwise.
pub trait Regressor {
    /// Fits the model. `x` is row-major (samples × features).
    fn fit(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rng: &mut tuna_stats::rng::Rng,
    ) -> Result<(), MlError>;

    /// Fits the model on `x` with every row standardized by `scaler`.
    ///
    /// The default materializes the standardized copy and calls
    /// [`Regressor::fit`]; models with their own training layout (the
    /// random forest) standardize straight into it instead.
    fn fit_standardized(
        &mut self,
        x: &[Vec<f64>],
        scaler: &StandardScaler,
        y: &[f64],
        rng: &mut tuna_stats::rng::Rng,
    ) -> Result<(), MlError> {
        self.fit(&scaler.transform(x), y, rng)
    }

    /// Predicts the target for one feature row.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predicts mean and *epistemic* variance for one feature row.
    ///
    /// The default implementation returns zero variance; uncertainty-aware
    /// models (forests, GPs) override it.
    fn predict_with_uncertainty(&self, x: &[f64]) -> (f64, f64) {
        (self.predict(x), 0.0)
    }
}

/// Scratch rows up to this length live on the stack in [`with_scratch`].
const STACK_SCRATCH: usize = 64;

/// Calls `f` with a zeroed scratch slice of `len` values, on the stack
/// when `len` is at most 64, so per-row prediction paths (a forest's
/// per-tree predictions, a standardized row, a feature row) do not
/// allocate on every call.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    if len <= STACK_SCRATCH {
        f(&mut [0.0; STACK_SCRATCH][..len])
    } else {
        f(&mut vec![0.0; len])
    }
}

/// Validates a design matrix / target pair, returning (rows, cols).
pub(crate) fn check_xy(x: &[Vec<f64>], y: &[f64]) -> Result<(usize, usize), MlError> {
    if x.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(MlError::ShapeMismatch {
            detail: format!("{} rows vs {} targets", x.len(), y.len()),
        });
    }
    let cols = x[0].len();
    if cols == 0 {
        return Err(MlError::ShapeMismatch {
            detail: "zero-width rows".to_string(),
        });
    }
    if let Some(bad) = x.iter().find(|r| r.len() != cols) {
        return Err(MlError::ShapeMismatch {
            detail: format!("row width {} != {}", bad.len(), cols),
        });
    }
    Ok((x.len(), cols))
}
