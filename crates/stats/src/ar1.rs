//! First-order autoregressive (AR(1)) processes.
//!
//! Cloud interference is temporally correlated — a noisy neighbor that is
//! busy now is likely still busy a minute from now. The simulator models
//! each machine's per-component interference as a mean-reverting AR(1)
//! process: `x_{t+1} = phi * x_t + eps`, with `eps ~ N(0, sigma_eps^2)`
//! chosen so the *stationary* standard deviation equals a target value.

use crate::rng::Rng;

/// A mean-zero AR(1) process with configurable stationary deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ar1 {
    phi: f64,
    eps_std: f64,
    state: f64,
}

/// Error constructing an [`Ar1`] process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ar1Error {
    /// `phi` must lie strictly inside (-1, 1) for stationarity.
    NonStationaryPhi,
    /// The stationary standard deviation must be finite and non-negative.
    InvalidStd,
}

impl std::fmt::Display for Ar1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ar1Error::NonStationaryPhi => write!(f, "phi outside (-1, 1)"),
            Ar1Error::InvalidStd => write!(f, "invalid stationary std"),
        }
    }
}

impl std::error::Error for Ar1Error {}

impl Ar1 {
    /// Creates a stationary AR(1) with autocorrelation `phi` and stationary
    /// standard deviation `stationary_std`, starting from a stationary draw.
    ///
    /// # Examples
    ///
    /// ```
    /// use tuna_stats::ar1::Ar1;
    /// use tuna_stats::rng::Rng;
    /// let mut rng = Rng::seed_from(3);
    /// let mut p = Ar1::new(0.9, 0.05, &mut rng).unwrap();
    /// let x = p.step(&mut rng);
    /// assert!(x.is_finite());
    /// ```
    pub fn new(phi: f64, stationary_std: f64, rng: &mut Rng) -> Result<Self, Ar1Error> {
        if !(phi.is_finite() && phi.abs() < 1.0) {
            return Err(Ar1Error::NonStationaryPhi);
        }
        if !(stationary_std.is_finite() && stationary_std >= 0.0) {
            return Err(Ar1Error::InvalidStd);
        }
        let eps_std = stationary_std * (1.0 - phi * phi).sqrt();
        let state = stationary_std * rng.next_gaussian();
        Ok(Ar1 {
            phi,
            eps_std,
            state,
        })
    }

    /// Advances one step and returns the new state.
    pub fn step(&mut self, rng: &mut Rng) -> f64 {
        self.state = self.phi * self.state + self.eps_std * rng.next_gaussian();
        self.state
    }

    /// Current state without advancing.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Resets the state to a fresh stationary draw (e.g. after a VM
    /// live-migration event lands the guest next to different neighbors).
    pub fn reset(&mut self, rng: &mut Rng) {
        let stationary_std = if self.phi.abs() < 1.0 {
            self.eps_std / (1.0 - self.phi * self.phi).sqrt()
        } else {
            self.eps_std
        };
        self.state = stationary_std * rng.next_gaussian();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::Welford;

    #[test]
    fn stationary_moments() {
        let mut rng = Rng::seed_from(42);
        let mut p = Ar1::new(0.8, 0.1, &mut rng).unwrap();
        let mut w = Welford::new();
        // Burn in, then sample.
        for _ in 0..1_000 {
            p.step(&mut rng);
        }
        for _ in 0..200_000 {
            w.push(p.step(&mut rng));
        }
        assert!(w.mean().abs() < 0.005, "mean {}", w.mean());
        assert!((w.std_dev() - 0.1).abs() < 0.005, "std {}", w.std_dev());
    }

    #[test]
    fn autocorrelation_near_phi() {
        let mut rng = Rng::seed_from(43);
        let phi = 0.9;
        let mut p = Ar1::new(phi, 1.0, &mut rng).unwrap();
        for _ in 0..1_000 {
            p.step(&mut rng);
        }
        let xs: Vec<f64> = (0..100_000).map(|_| p.step(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>();
        let rho = lag1 / var;
        assert!((rho - phi).abs() < 0.02, "rho {rho}");
    }

    #[test]
    fn rejects_bad_params() {
        let mut rng = Rng::seed_from(1);
        assert_eq!(
            Ar1::new(1.0, 0.1, &mut rng).unwrap_err(),
            Ar1Error::NonStationaryPhi
        );
        assert_eq!(
            Ar1::new(0.5, -0.1, &mut rng).unwrap_err(),
            Ar1Error::InvalidStd
        );
        assert_eq!(
            Ar1::new(f64::NAN, 0.1, &mut rng).unwrap_err(),
            Ar1Error::NonStationaryPhi
        );
    }

    #[test]
    fn zero_std_is_constant_zero_after_burnin() {
        let mut rng = Rng::seed_from(2);
        let mut p = Ar1::new(0.5, 0.0, &mut rng).unwrap();
        for _ in 0..10 {
            assert_eq!(p.step(&mut rng).abs(), 0.0);
        }
    }

    #[test]
    fn reset_changes_state() {
        let mut rng = Rng::seed_from(3);
        let mut p = Ar1::new(0.99, 1.0, &mut rng).unwrap();
        let before = p.state();
        p.reset(&mut rng);
        assert_ne!(before, p.state());
    }
}
