//! SMAC-style Bayesian optimization.
//!
//! Follows the structure of SMAC3 (the paper's default optimizer, §5): a
//! random-forest surrogate over the encoded configuration space, expected
//! improvement maximized over a candidate pool of random samples plus local
//! neighborhoods of the incumbents, with random interleaving for
//! exploration guarantees.

use crate::history::History;
use crate::multifidelity::{LadderParams, MultiFidelityOptimizer, Proposer};
use crate::Objective;
use tuna_ml::acquisition::expected_improvement;
use tuna_ml::forest::{ForestParams, RandomForest};
use tuna_ml::Regressor;
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;

/// SMAC hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SmacParams {
    /// Random initialization design size before the surrogate activates.
    pub n_init: usize,
    /// Random candidates per EI maximization.
    pub n_random_candidates: usize,
    /// Incumbents whose neighborhoods are searched.
    pub top_k_incumbents: usize,
    /// Neighbors generated per incumbent.
    pub n_neighbors: usize,
    /// Probability of proposing a uniformly random config instead of the
    /// EI argmax (SMAC's interleaved random search).
    pub random_interleave_prob: f64,
    /// EI exploration bonus.
    pub xi: f64,
    /// Surrogate forest parameters.
    pub forest: ForestParams,
}

impl Default for SmacParams {
    fn default() -> Self {
        SmacParams {
            n_init: 10,
            n_random_candidates: 200,
            top_k_incumbents: 5,
            n_neighbors: 8,
            random_interleave_prob: 0.2,
            xi: 0.01,
            forest: ForestParams::default(),
        }
    }
}

/// The SMAC proposer: RF surrogate + EI over random/local candidates.
#[derive(Debug, Clone)]
pub struct SmacProposer {
    params: SmacParams,
}

impl SmacProposer {
    /// Creates a proposer.
    pub fn new(params: SmacParams) -> Self {
        SmacProposer { params }
    }

    /// The hyperparameters.
    pub fn params(&self) -> &SmacParams {
        &self.params
    }
}

impl Proposer for SmacProposer {
    fn propose(&mut self, history: &History, space: &ConfigSpace, rng: &mut Rng) -> Config {
        // Initialization design and interleaved random exploration.
        if history.n_configs() < self.params.n_init
            || rng.chance(self.params.random_interleave_prob)
        {
            return space.sample(rng);
        }

        let (x, y) = history.surrogate_data(space);
        let mut forest = RandomForest::new(self.params.forest);
        if forest
            .fit(&x, &y, &mut rng.fork(history.len() as u64))
            .is_err()
        {
            return space.sample(rng);
        }
        let best_cost = y.iter().copied().fold(f64::INFINITY, f64::min);

        // Candidate pool: random samples + neighbors of the incumbents.
        let mut candidates: Vec<Config> = (0..self.params.n_random_candidates)
            .map(|_| space.sample(rng))
            .collect();
        for rec in history.top_k(self.params.top_k_incumbents) {
            candidates.extend(space.neighbors(&rec.config, self.params.n_neighbors, rng));
        }

        let mut best: Option<(f64, Config)> = None;
        for cand in candidates {
            let enc = space.encode(&cand);
            let (mean, var) = forest.predict_stats(&enc);
            let ei = expected_improvement(mean, var.sqrt(), best_cost, self.params.xi);
            // A non-finite acquisition value must never win the argmax.
            if ei.is_finite() && best.as_ref().is_none_or(|(b, _)| ei > *b) {
                best = Some((ei, cand));
            }
        }
        best.map(|(_, c)| c).unwrap_or_else(|| space.sample(rng))
    }
}

/// SMAC optimizer: [`SmacProposer`] wrapped in the Successive-Halving
/// ladder.
pub type SmacOptimizer = MultiFidelityOptimizer<SmacProposer>;

impl SmacOptimizer {
    /// Single-fidelity SMAC (budget 1): the paper's *traditional sampling*
    /// optimizer setup.
    pub fn new(space: ConfigSpace, objective: Objective, params: SmacParams) -> SmacOptimizer {
        MultiFidelityOptimizer::with_proposer(
            space,
            objective,
            LadderParams::single(),
            SmacProposer::new(params),
        )
    }

    /// Multi-fidelity SMAC with a custom ladder — the optimizer TUNA runs.
    pub fn multi_fidelity(
        space: ConfigSpace,
        objective: Objective,
        params: SmacParams,
        ladder: LadderParams,
    ) -> SmacOptimizer {
        MultiFidelityOptimizer::with_proposer(space, objective, ladder, SmacProposer::new(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomSearch;
    use crate::{Solver, Suggestion};

    /// 2-D test objective with optimum at (0.25, 0.75); cost in [0, ~1.25].
    fn cost_fn(space: &ConfigSpace, config: &Config) -> f64 {
        let x = space.value_of(config, "x").as_float();
        let y = space.value_of(config, "y").as_float();
        (x - 0.25) * (x - 0.25) + (y - 0.75) * (y - 0.75)
    }

    fn space2d() -> ConfigSpace {
        ConfigSpace::builder()
            .float("x", 0.0, 1.0)
            .float("y", 0.0, 1.0)
            .build()
    }

    fn run_opt(opt: &mut dyn Solver, iters: usize, seed: u64) -> f64 {
        let space = opt.space().clone();
        let mut rng = Rng::seed_from(seed);
        for _ in 0..iters {
            let Suggestion { config, budget } = opt.ask(&mut rng);
            let cost = cost_fn(&space, &config);
            opt.tell(&config, cost, budget);
        }
        opt.best().map(|(_, v)| v).unwrap()
    }

    #[test]
    fn smac_beats_random_search_on_average() {
        // In four dimensions 60 random samples stay far from the optimum,
        // while the surrogate-guided search homes in.
        let space4d = || {
            ConfigSpace::builder()
                .float("a", 0.0, 1.0)
                .float("b", 0.0, 1.0)
                .float("c", 0.0, 1.0)
                .float("d", 0.0, 1.0)
                .build()
        };
        let cost4 = |space: &ConfigSpace, config: &Config| {
            ["a", "b", "c", "d"]
                .iter()
                .map(|n| {
                    let v = space.value_of(config, n).as_float();
                    (v - 0.3) * (v - 0.3)
                })
                .sum::<f64>()
        };
        let run4 = |opt: &mut dyn Solver, seed: u64| {
            let space = opt.space().clone();
            let mut rng = Rng::seed_from(seed);
            for _ in 0..60 {
                let Suggestion { config, budget } = opt.ask(&mut rng);
                let cost = cost4(&space, &config);
                opt.tell(&config, cost, budget);
            }
            opt.best().map(|(_, v)| v).unwrap()
        };
        let mut smac_total = 0.0;
        let mut random_total = 0.0;
        for seed in [1u64, 2, 3, 4, 5] {
            let mut smac = SmacOptimizer::new(
                space4d(),
                Objective::Minimize,
                SmacParams {
                    n_init: 8,
                    ..SmacParams::default()
                },
            );
            smac_total += run4(&mut smac, seed);
            let mut rs = RandomSearch::new(space4d(), Objective::Minimize, 1);
            random_total += run4(&mut rs, seed);
        }
        assert!(
            smac_total < random_total,
            "smac {smac_total} vs random {random_total}"
        );
    }

    #[test]
    fn smac_converges_close_to_optimum() {
        let mut smac = SmacOptimizer::new(space2d(), Objective::Minimize, SmacParams::default());
        let best = run_opt(&mut smac, 80, 42);
        assert!(best < 0.02, "best cost {best}");
    }

    #[test]
    fn smac_maximization_works() {
        let space = space2d();
        let mut smac =
            SmacOptimizer::new(space.clone(), Objective::Maximize, SmacParams::default());
        let mut rng = Rng::seed_from(7);
        for _ in 0..60 {
            let s = smac.ask(&mut rng);
            // Maximize the negative cost: peak value 0 at the optimum.
            let value = -cost_fn(&space, &s.config);
            smac.tell(&s.config, value, s.budget);
        }
        let (_, best) = smac.best().unwrap();
        assert!(best > -0.05, "best {best}");
    }

    #[test]
    fn multi_fidelity_smac_reaches_max_budget() {
        let space = space2d();
        let mut smac = SmacOptimizer::multi_fidelity(
            space.clone(),
            Objective::Minimize,
            SmacParams::default(),
            LadderParams::paper_default(),
        );
        let mut rng = Rng::seed_from(9);
        let mut max_budget_seen = 0;
        for _ in 0..120 {
            let s = smac.ask(&mut rng);
            max_budget_seen = max_budget_seen.max(s.budget);
            let cost = cost_fn(&space, &s.config);
            smac.tell(&s.config, cost, s.budget);
        }
        assert_eq!(max_budget_seen, 10);
    }

    #[test]
    fn proposals_always_validate() {
        let space = space2d();
        let mut smac =
            SmacOptimizer::new(space.clone(), Objective::Minimize, SmacParams::default());
        let mut rng = Rng::seed_from(3);
        for _ in 0..40 {
            let s = smac.ask(&mut rng);
            assert!(space.validate(&s.config).is_ok());
            smac.tell(&s.config, cost_fn(&space, &s.config), s.budget);
        }
    }

    #[test]
    fn handles_mixed_type_spaces() {
        let space = ConfigSpace::builder()
            .int("i", 0, 100)
            .int_log("il", 1, 4096)
            .categorical("c", &["a", "b", "c"])
            .boolean("flag")
            .float("f", -1.0, 1.0)
            .build();
        let mut smac =
            SmacOptimizer::new(space.clone(), Objective::Minimize, SmacParams::default());
        let mut rng = Rng::seed_from(5);
        for _ in 0..30 {
            let s = smac.ask(&mut rng);
            // Cost prefers i near 50 and flag = true.
            let i = space.value_of(&s.config, "i").as_int() as f64;
            let flag = space.value_of(&s.config, "flag").as_bool();
            let cost = (i - 50.0).abs() / 50.0 + if flag { 0.0 } else { 1.0 };
            smac.tell(&s.config, cost, s.budget);
        }
        let (best, _) = smac.best().unwrap();
        assert!(space.validate(&best).is_ok());
    }
}
