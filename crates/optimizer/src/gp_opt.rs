//! Gaussian-process Bayesian optimization (OtterTune-style, §6.6).
//!
//! Identical loop structure to SMAC but with a GP surrogate over one-hot
//! encoded configurations. Because exact GP inference is cubic in the
//! number of observations, training is capped to the most recent
//! `max_train_points` distinct configs — tuning runs stay in the hundreds,
//! so this rarely binds.

use crate::history::History;
use crate::multifidelity::{LadderParams, MultiFidelityOptimizer, Proposer};
use crate::Objective;
use tuna_ml::acquisition::expected_improvement;
use tuna_ml::gp::{GaussianProcess, Kernel};
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;

/// GP optimizer hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpParams {
    /// Random initialization design size.
    pub n_init: usize,
    /// Random candidates per EI maximization.
    pub n_random_candidates: usize,
    /// Incumbents whose neighborhoods are searched.
    pub top_k_incumbents: usize,
    /// Neighbors generated per incumbent.
    pub n_neighbors: usize,
    /// EI exploration bonus.
    pub xi: f64,
    /// Maximum training points for the GP (most recent kept).
    pub max_train_points: usize,
}

impl Default for GpParams {
    fn default() -> Self {
        GpParams {
            n_init: 10,
            n_random_candidates: 128,
            top_k_incumbents: 4,
            n_neighbors: 6,
            xi: 0.01,
            max_train_points: 200,
        }
    }
}

/// GP-based proposer.
#[derive(Debug, Clone)]
pub struct GpProposer {
    params: GpParams,
}

impl GpProposer {
    /// Creates a proposer.
    pub fn new(params: GpParams) -> Self {
        GpProposer { params }
    }
}

impl Proposer for GpProposer {
    fn propose(&mut self, history: &History, space: &ConfigSpace, rng: &mut Rng) -> Config {
        if history.n_configs() < self.params.n_init {
            return space.sample(rng);
        }

        let (mut x, mut y) = history.surrogate_data_one_hot(space);
        if x.len() > self.params.max_train_points {
            let skip = x.len() - self.params.max_train_points;
            x.drain(..skip);
            y.drain(..skip);
        }
        let mut gp = match GaussianProcess::new(
            Kernel::Matern52 {
                lengthscale: 0.5,
                signal_var: 1.0,
            },
            1e-3,
        ) {
            Ok(gp) => gp,
            Err(_) => return space.sample(rng),
        };
        if gp.fit_with_hyperopt(&x, &y).is_err() {
            return space.sample(rng);
        }
        let best_cost = y.iter().copied().fold(f64::INFINITY, f64::min);

        let mut candidates: Vec<Config> = (0..self.params.n_random_candidates)
            .map(|_| space.sample(rng))
            .collect();
        for rec in history.top_k(self.params.top_k_incumbents) {
            candidates.extend(space.neighbors(&rec.config, self.params.n_neighbors, rng));
        }

        let mut best: Option<(f64, Config)> = None;
        for cand in candidates {
            let enc = space.encode_one_hot(&cand);
            let (mean, var) = gp.predict_stats(&enc);
            let ei = expected_improvement(mean, var.sqrt(), best_cost, self.params.xi);
            // A non-finite acquisition value must never win the argmax.
            if ei.is_finite() && best.as_ref().is_none_or(|(b, _)| ei > *b) {
                best = Some((ei, cand));
            }
        }
        best.map(|(_, c)| c).unwrap_or_else(|| space.sample(rng))
    }
}

/// GP optimizer: [`GpProposer`] wrapped in the Successive-Halving ladder.
pub type GpOptimizer = MultiFidelityOptimizer<GpProposer>;

impl GpOptimizer {
    /// Single-fidelity GP optimization (traditional sampling with a GP).
    pub fn new(space: ConfigSpace, objective: Objective, params: GpParams) -> GpOptimizer {
        MultiFidelityOptimizer::with_proposer(
            space,
            objective,
            LadderParams::single(),
            GpProposer::new(params),
        )
    }

    /// Multi-fidelity GP optimization (TUNA with a GP optimizer).
    pub fn multi_fidelity(
        space: ConfigSpace,
        objective: Objective,
        params: GpParams,
        ladder: LadderParams,
    ) -> GpOptimizer {
        MultiFidelityOptimizer::with_proposer(space, objective, ladder, GpProposer::new(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Solver, Suggestion};

    fn space1d() -> ConfigSpace {
        ConfigSpace::builder().float("x", 0.0, 1.0).build()
    }

    #[test]
    fn gp_converges_on_smooth_objective() {
        let space = space1d();
        let mut opt = GpOptimizer::new(
            space.clone(),
            Objective::Minimize,
            GpParams {
                n_init: 6,
                n_random_candidates: 64,
                ..GpParams::default()
            },
        );
        let mut rng = Rng::seed_from(17);
        for _ in 0..35 {
            let Suggestion { config, budget } = opt.ask(&mut rng);
            let x = space.value_of(&config, "x").as_float();
            let cost = (x - 0.62) * (x - 0.62);
            opt.tell(&config, cost, budget);
        }
        let (_, best) = opt.best().unwrap();
        assert!(best < 0.01, "best {best}");
    }

    #[test]
    fn gp_handles_categoricals_via_one_hot() {
        let space = ConfigSpace::builder()
            .categorical("c", &["bad", "good", "worse"])
            .float("x", 0.0, 1.0)
            .build();
        let mut opt = GpOptimizer::new(space.clone(), Objective::Minimize, GpParams::default());
        let mut rng = Rng::seed_from(19);
        for _ in 0..40 {
            let Suggestion { config, budget } = opt.ask(&mut rng);
            let c = space.value_of(&config, "c").as_cat();
            let x = space.value_of(&config, "x").as_float();
            let cost = match c {
                1 => x, // "good": cost is just x.
                0 => 1.0 + x,
                _ => 2.0 + x,
            };
            opt.tell(&config, cost, budget);
        }
        let (best, _) = opt.best().unwrap();
        assert_eq!(space.value_of(&best, "c").as_cat(), 1);
    }

    #[test]
    fn gp_multi_fidelity_promotes() {
        let space = space1d();
        let mut opt = GpOptimizer::multi_fidelity(
            space.clone(),
            Objective::Minimize,
            GpParams {
                n_init: 5,
                n_random_candidates: 32,
                ..GpParams::default()
            },
            LadderParams::paper_default(),
        );
        let mut rng = Rng::seed_from(23);
        let mut max_budget = 0;
        for _ in 0..60 {
            let s = opt.ask(&mut rng);
            max_budget = max_budget.max(s.budget);
            let x = space.value_of(&s.config, "x").as_float();
            opt.tell(&s.config, x, s.budget);
        }
        assert!(max_budget >= 3, "never promoted");
    }
}
