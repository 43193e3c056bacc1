//! Pure random search.
//!
//! Both the initialization design used by the model-based optimizers and a
//! baseline in its own right.

use crate::history::History;
use crate::{Objective, Solver, Suggestion};
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;

/// Uniform random search at a fixed budget.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    space: ConfigSpace,
    objective: Objective,
    budget: usize,
    history: History,
}

impl RandomSearch {
    /// Creates a random-search optimizer suggesting at `budget` (use 1 for
    /// traditional single-node sampling).
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(space: ConfigSpace, objective: Objective, budget: usize) -> Self {
        assert!(budget > 0, "budget must be positive");
        RandomSearch {
            space,
            objective,
            budget,
            history: History::new(),
        }
    }
}

impl Solver for RandomSearch {
    fn ask(&mut self, rng: &mut Rng) -> Suggestion {
        Suggestion {
            config: self.space.sample(rng),
            budget: self.budget,
        }
    }

    fn tell(&mut self, config: &Config, raw_value: f64, budget: usize) {
        self.history
            .push(config.clone(), self.objective.to_cost(raw_value), budget);
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.history
            .best()
            .map(|r| (r.config.clone(), self.objective.from_cost(r.cost)))
    }

    fn best_value(&self) -> Option<f64> {
        self.history
            .best()
            .map(|r| self.objective.from_cost(r.cost))
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn objective(&self) -> Objective {
        self.objective
    }

    fn n_observations(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ConfigSpace {
        ConfigSpace::builder().float("x", 0.0, 1.0).build()
    }

    #[test]
    fn finds_decent_point_eventually() {
        let space = space();
        let mut opt = RandomSearch::new(space.clone(), Objective::Minimize, 1);
        let mut rng = Rng::seed_from(5);
        for _ in 0..200 {
            let s = opt.ask(&mut rng);
            let x = space.value_of(&s.config, "x").as_float();
            opt.tell(&s.config, (x - 0.42).abs(), s.budget);
        }
        let (_, best) = opt.best().unwrap();
        assert!(best < 0.05, "best {best}");
    }

    #[test]
    fn maximization_flips_ranking() {
        let space = space();
        let mut opt = RandomSearch::new(space.clone(), Objective::Maximize, 1);
        let a = space.sample(&mut Rng::seed_from(1));
        let b = space.sample(&mut Rng::seed_from(2));
        opt.tell(&a, 10.0, 1);
        opt.tell(&b, 20.0, 1);
        let (best_cfg, best_val) = opt.best().unwrap();
        assert_eq!(best_cfg, b);
        assert_eq!(best_val, 20.0);
    }

    #[test]
    fn suggests_at_configured_budget() {
        let mut opt = RandomSearch::new(space(), Objective::Minimize, 7);
        let s = opt.ask(&mut Rng::seed_from(1));
        assert_eq!(s.budget, 7);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_panics() {
        RandomSearch::new(space(), Objective::Minimize, 0);
    }
}
