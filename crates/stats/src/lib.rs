//! Statistical foundation for the TUNA reproduction.
//!
//! This crate provides every statistical primitive the rest of the
//! workspace builds on:
//!
//! - [`rng`]: a deterministic, fork-able pseudo-random number generator
//!   (xoshiro256++ seeded via SplitMix64) so that every experiment in the
//!   repository is reproducible bit-for-bit from a single `u64` seed.
//! - [`online`]: Welford-style online accumulators for streaming mean /
//!   variance and min/max tracking.
//! - [`summary`]: batch statistics over slices — mean, variance, quantiles,
//!   coefficient of variation and the paper's *relative range* heuristic.
//!   Order statistics run by selection with reusable scratch buffers; the
//!   pre-streaming sort-based code is retained in [`summary::naive`] as a
//!   differential-test oracle.
//! - [`bootstrap`]: percentile bootstrap confidence intervals.
//! - [`hist`]: histograms and Gaussian kernel density estimates (used to
//!   regenerate the Figure 8 density plot).
//! - [`special`]: special functions (`erf`, normal CDF/PDF) needed
//!   by the expected-improvement acquisition function.
//! - [`scaler`]: per-column standardization for ML pipelines.
//! - [`ar1`]: first-order autoregressive processes modelling temporally
//!   correlated cloud interference ("noisy neighbors").
//! - [`fnv`]: order-sensitive FNV-1a checksums used by the perf-gate and
//!   the campaign engine to pin deterministic results bit-for-bit.
//! - [`json`]: the shared hand-rolled JSON writer/parser (the workspace
//!   builds offline, so every JSON surface — campaign stores,
//!   `BENCH.json`, the serve wire protocol — goes through this one
//!   module).
//!
//! # Examples
//!
//! ```
//! use tuna_stats::rng::Rng;
//! use tuna_stats::summary::relative_range;
//!
//! let mut rng = Rng::seed_from(42);
//! let samples: Vec<f64> = (0..100).map(|_| 1.0 + 0.05 * rng.next_gaussian()).collect();
//! assert!(relative_range(&samples) < 0.8);
//! ```

pub mod ar1;
pub mod bootstrap;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod online;
pub mod rng;
pub mod scaler;
pub mod special;
pub mod summary;

pub use online::Welford;
pub use rng::Rng;
pub use summary::{coefficient_of_variation, mean, quantile, relative_range, std_dev};

#[cfg(test)]
mod smoke {
    use crate::{mean, std_dev, Rng, Welford};

    #[test]
    fn rng_fork_streams_are_deterministic_and_distinct() {
        let root = Rng::seed_from(42);
        let mut a = root.fork(1);
        let mut b = root.fork(1);
        let mut c = root.fork(2);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb, "same fork label must replay the same stream");
        assert_ne!(xa, xc, "different fork labels must diverge");
    }

    #[test]
    fn welford_agrees_with_batch_summary() {
        let mut rng = Rng::seed_from(3);
        let xs: Vec<f64> = (0..500).map(|_| rng.next_gaussian()).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), xs.len() as u64);
        assert!((w.mean() - mean(&xs)).abs() < 1e-9);
        assert!((w.variance().sqrt() - std_dev(&xs)).abs() < 1e-9);
    }
}
