//! The noise-adjuster model (§4.3, Algorithms 1 and 2).
//!
//! A `RandomForestRegressor ∘ Standardize` pipeline trained *within a
//! single tuning run* (no transfer) on the configs that reached the
//! highest budget: features are the guest metrics plus a one-hot machine
//! id; the target is the sample's relative error `P_cw / E[P_c] - 1`.
//! At inference the prediction is divided out of the raw sample
//! (`p / (s + 1)`), yielding a de-noised estimate of the config's mean
//! performance. Unstable configs bypass the model — they fall outside the
//! training distribution and are already penalized by the detector.

use crate::sample::Sample;
use tuna_ml::forest::{ForestParams, RandomForest};
use tuna_ml::pipeline::StandardizedRegressor;
use tuna_ml::{with_scratch, Regressor};
use tuna_stats::rng::Rng;
use tuna_stats::summary;

/// Noise-adjuster hyperparameters.
#[derive(Debug, Clone)]
pub struct AdjusterConfig {
    /// Number of workers in the tuning cluster (one-hot width).
    pub cluster_size: usize,
    /// Random-forest parameters.
    pub forest: ForestParams,
    /// Maximum adjustment magnitude guardrail; the paper ships without one
    /// (§7 lists it as future work), so the default is `None`.
    pub max_adjustment: Option<f64>,
}

impl AdjusterConfig {
    /// Paper-faithful defaults for a 10-worker cluster.
    pub fn paper_default(cluster_size: usize) -> Self {
        AdjusterConfig {
            cluster_size,
            forest: ForestParams {
                n_trees: 32,
                ..ForestParams::default()
            },
            max_adjustment: None,
        }
    }
}

/// The trainable noise adjuster.
#[derive(Debug, Clone)]
pub struct NoiseAdjuster {
    config: AdjusterConfig,
    train_x: Vec<Vec<f64>>,
    train_y: Vec<f64>,
    model: Option<StandardizedRegressor<RandomForest>>,
    generations: usize,
}

impl NoiseAdjuster {
    /// Creates an untrained adjuster.
    pub fn new(config: AdjusterConfig) -> Self {
        NoiseAdjuster {
            config,
            train_x: Vec::new(),
            train_y: Vec::new(),
            model: None,
            generations: 0,
        }
    }

    /// Whether a model is available for inference.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Number of retrain generations so far.
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// Number of training rows accumulated.
    pub fn n_training_rows(&self) -> usize {
        self.train_x.len()
    }

    /// Feature-row width: the guest metrics plus the one-hot machine id.
    fn width(&self, sample: &Sample) -> usize {
        sample.metrics.values().len() + self.config.cluster_size
    }

    /// Writes `sample`'s feature row into `row` (of [`Self::width`]).
    fn write_features(&self, sample: &Sample, row: &mut [f64]) {
        let (metrics, one_hot) = row.split_at_mut(sample.metrics.values().len());
        metrics.copy_from_slice(sample.metrics.values());
        for (i, v) in one_hot.iter_mut().enumerate() {
            *v = if i == sample.machine_idx { 1.0 } else { 0.0 };
        }
    }

    /// Algorithm 1: ingest a config's max-budget samples as training data
    /// (target = percent error vs the config's own mean) and rebuild the
    /// model. Crashed samples are skipped.
    pub fn train_on_config(&mut self, samples: &[Sample], rng: &mut Rng) {
        let raws: Vec<f64> = samples
            .iter()
            .filter(|s| !s.crashed)
            .map(|s| s.raw)
            .collect();
        if raws.len() < 2 {
            return;
        }
        let mean = summary::mean(&raws);
        if mean == 0.0 {
            return;
        }
        for s in samples.iter().filter(|s| !s.crashed) {
            let mut row = vec![0.0; self.width(s)];
            self.write_features(s, &mut row);
            self.train_x.push(row);
            self.train_y.push(s.raw / mean - 1.0);
        }
        // Rebuild from scratch on every new config, as the paper does.
        // In a paper-default mssales TUNA run these refits are ~20-30% of
        // the forest-fit time, which is nearly all of the run (SMAC's
        // per-propose surrogate refits are the rest). Any incremental fit
        // must stay bit-identical to this one.
        let mut model = StandardizedRegressor::new(RandomForest::new(self.config.forest));
        if model
            .fit(
                &self.train_x,
                &self.train_y,
                &mut rng.fork(self.generations as u64),
            )
            .is_ok()
        {
            self.model = Some(model);
            self.generations += 1;
        }
    }

    /// Algorithm 2: predicts the sample's relative error and divides it
    /// out. Returns the raw value when the model is untrained, the config
    /// is flagged as an outlier, or the sample crashed.
    pub fn adjust(&self, sample: &Sample, is_outlier: bool) -> f64 {
        if is_outlier || sample.crashed {
            return sample.raw;
        }
        let Some(model) = &self.model else {
            return sample.raw;
        };
        let mut s = with_scratch(self.width(sample), |row| {
            self.write_features(sample, row);
            model.predict(row)
        });
        if let Some(cap) = self.config.max_adjustment {
            s = s.clamp(-cap, cap);
        }
        if s <= -0.95 {
            return sample.raw; // Degenerate prediction guardrail.
        }
        sample.raw / (s + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_metrics::{MetricVector, SCHEMA};

    /// Builds a synthetic sample whose first metric column encodes the
    /// noise that perturbs the raw value: raw = base * (1 + noise), and
    /// metric[0] = noise (a perfectly informative counter).
    fn synthetic_sample(machine: usize, base: f64, noise: f64) -> Sample {
        let mut m = vec![0.5; SCHEMA.len()];
        m[0] = noise;
        Sample::new(machine, base * (1.0 + noise), MetricVector::new(m), false)
    }

    fn trained_adjuster(n_configs: usize, rng: &mut Rng) -> NoiseAdjuster {
        let mut adj = NoiseAdjuster::new(AdjusterConfig::paper_default(10));
        for c in 0..n_configs {
            let base = 500.0 + 50.0 * (c as f64);
            let samples: Vec<Sample> = (0..10)
                .map(|w| {
                    let noise = 0.1 * rng.next_gaussian();
                    synthetic_sample(w, base, noise)
                })
                .collect();
            adj.train_on_config(&samples, rng);
        }
        adj
    }

    #[test]
    fn untrained_passes_through() {
        let adj = NoiseAdjuster::new(AdjusterConfig::paper_default(10));
        let s = synthetic_sample(0, 500.0, 0.08);
        assert_eq!(adj.adjust(&s, false), s.raw);
        assert!(!adj.is_trained());
    }

    #[test]
    fn outliers_bypass_model() {
        let mut rng = Rng::seed_from(1);
        let adj = trained_adjuster(12, &mut rng);
        let s = synthetic_sample(0, 500.0, 0.2);
        assert_eq!(adj.adjust(&s, true), s.raw);
    }

    #[test]
    fn crashed_samples_bypass_model() {
        let mut rng = Rng::seed_from(2);
        let adj = trained_adjuster(12, &mut rng);
        let mut s = synthetic_sample(0, 500.0, 0.2);
        s.crashed = true;
        assert_eq!(adj.adjust(&s, false), s.raw);
    }

    #[test]
    fn learns_to_remove_metric_correlated_noise() {
        // With a perfectly informative noise counter, the adjusted values
        // should be much closer to the config's true base than the raws.
        let mut rng = Rng::seed_from(3);
        let adj = trained_adjuster(25, &mut rng);
        assert!(adj.is_trained());

        let base = 777.0;
        let mut raw_err = 0.0;
        let mut adj_err = 0.0;
        let n = 200;
        for _ in 0..n {
            let noise = 0.1 * rng.next_gaussian();
            let s = synthetic_sample(rng.below(10), base, noise);
            raw_err += (s.raw - base).abs() / base;
            adj_err += (adj.adjust(&s, false) - base).abs() / base;
        }
        raw_err /= n as f64;
        adj_err /= n as f64;
        assert!(
            adj_err < raw_err * 0.6,
            "model removed too little noise: raw {raw_err:.4} adj {adj_err:.4}"
        );
    }

    #[test]
    fn training_skips_crashed_and_tiny_configs() {
        let mut rng = Rng::seed_from(4);
        let mut adj = NoiseAdjuster::new(AdjusterConfig::paper_default(10));
        // One sample only: no mean to speak of.
        adj.train_on_config(&[synthetic_sample(0, 100.0, 0.0)], &mut rng);
        assert!(!adj.is_trained());
        // All crashed: nothing to learn.
        let mut s1 = synthetic_sample(0, 100.0, 0.0);
        let mut s2 = synthetic_sample(1, 100.0, 0.0);
        s1.crashed = true;
        s2.crashed = true;
        adj.train_on_config(&[s1, s2], &mut rng);
        assert!(!adj.is_trained());
    }

    #[test]
    fn guardrail_caps_adjustment() {
        let mut rng = Rng::seed_from(5);
        let mut cfg = AdjusterConfig::paper_default(10);
        cfg.max_adjustment = Some(0.01);
        let mut adj = NoiseAdjuster::new(cfg);
        for c in 0..15 {
            let base = 500.0 + 10.0 * c as f64;
            let samples: Vec<Sample> = (0..10)
                .map(|w| synthetic_sample(w, base, 0.2 * rng.next_gaussian()))
                .collect();
            adj.train_on_config(&samples, &mut rng);
        }
        let s = synthetic_sample(0, 500.0, 0.3);
        let adjusted = adj.adjust(&s, false);
        // With a 1% cap the adjusted value stays within ~1% of raw.
        assert!((adjusted / s.raw - 1.0).abs() < 0.011);
    }

    #[test]
    fn generations_count_retrains() {
        let mut rng = Rng::seed_from(6);
        let adj = trained_adjuster(5, &mut rng);
        assert_eq!(adj.generations(), 5);
        assert_eq!(adj.n_training_rows(), 50);
    }
}
