//! Unstable-configuration detection (§4.2).
//!
//! Given the samples a config gathered across nodes, the detector computes
//! the *relative range* `(max - min) / mean` and classifies the config
//! unstable when it exceeds a threshold (30% in the paper — the trough
//! between the stable and unstable peaks of Figure 8). Unstable configs
//! receive a penalty — the paper halves the reported performance — so the
//! optimizer learns to avoid the region, and the noise-adjuster model is
//! bypassed for them.

use tuna_optimizer::Objective;
use tuna_stats::summary::relative_range;

/// Stability classification of a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stability {
    /// Relative range at or below the threshold.
    Stable {
        /// The observed relative range.
        relative_range: f64,
    },
    /// Relative range above the threshold.
    Unstable {
        /// The observed relative range.
        relative_range: f64,
    },
}

impl Stability {
    /// Whether the config was classified unstable.
    pub fn is_unstable(&self) -> bool {
        matches!(self, Stability::Unstable { .. })
    }

    /// The underlying relative range.
    pub fn relative_range(&self) -> f64 {
        match self {
            Stability::Stable { relative_range } | Stability::Unstable { relative_range } => {
                *relative_range
            }
        }
    }
}

/// The relative-range outlier detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierDetector {
    /// Classification threshold (paper: 0.30; any value in 0.15-0.30 is
    /// reasonable per §4.2).
    pub threshold: f64,
}

impl Default for OutlierDetector {
    fn default() -> Self {
        OutlierDetector { threshold: 0.30 }
    }
}

impl OutlierDetector {
    /// Creates a detector with a custom threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive and finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "invalid threshold {threshold}"
        );
        OutlierDetector { threshold }
    }

    /// Classifies a config from its cross-node samples.
    ///
    /// Fewer than two samples are trivially stable (no range exists yet).
    /// Runs in a single min/max/mean pass over `values`.
    pub fn classify(&self, values: &[f64]) -> Stability {
        self.stability_of(relative_range(values))
    }

    fn stability_of(&self, rr: f64) -> Stability {
        if rr > self.threshold {
            Stability::Unstable { relative_range: rr }
        } else {
            Stability::Stable { relative_range: rr }
        }
    }

    /// Applies the paper's penalty — halving the reported performance —
    /// in the metric's native orientation: throughput is halved, runtime
    /// and latency are doubled.
    pub fn penalize(&self, value: f64, objective: Objective) -> f64 {
        match objective {
            Objective::Maximize => value * 0.5,
            Objective::Minimize => value * 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_walkthrough_is_stable() {
        // §5.2: {500, 450, 530} has relative range 16.2% < 30%.
        let d = OutlierDetector::default();
        let s = d.classify(&[500.0, 450.0, 530.0]);
        assert!(!s.is_unstable());
        assert!((s.relative_range() - 0.162).abs() < 0.001);
    }

    #[test]
    fn seventy_percent_degradation_is_unstable() {
        // A config that degrades 70% on one node (§3.2.1's worst cases).
        let d = OutlierDetector::default();
        let s = d.classify(&[1000.0, 980.0, 1010.0, 300.0, 990.0]);
        assert!(s.is_unstable());
    }

    #[test]
    fn single_sample_trivially_stable() {
        let d = OutlierDetector::default();
        assert!(!d.classify(&[100.0]).is_unstable());
        assert!(!d.classify(&[]).is_unstable());
    }

    #[test]
    fn outlier_count_does_not_matter() {
        // One extreme outlier and two outliers with the same extremes give
        // the same classification (§4.2's design requirement).
        let d = OutlierDetector::default();
        let one = d.classify(&[100.0, 100.0, 100.0, 100.0, 40.0]);
        let two = d.classify(&[100.0, 100.0, 100.0, 40.0, 40.0]);
        assert!(one.is_unstable() && two.is_unstable());
    }

    #[test]
    fn threshold_boundary() {
        let d = OutlierDetector::new(0.30);
        // Exactly at the threshold stays stable (strictly-greater rule).
        let vals = [1.0, 1.0 + 0.30];
        let rr = tuna_stats::summary::relative_range(&vals);
        let s = d.classify(&vals);
        assert_eq!(s.is_unstable(), rr > 0.30);
    }

    #[test]
    fn penalty_orientation() {
        let d = OutlierDetector::default();
        assert_eq!(d.penalize(1000.0, Objective::Maximize), 500.0);
        assert_eq!(d.penalize(50.0, Objective::Minimize), 100.0);
    }

    #[test]
    #[should_panic(expected = "invalid threshold")]
    fn rejects_bad_threshold() {
        OutlierDetector::new(0.0);
    }
}
