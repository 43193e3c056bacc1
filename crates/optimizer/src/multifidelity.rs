//! Successive-Halving multi-fidelity intensification (§4.1).
//!
//! The paper associates the multi-fidelity *budget* of a config with the
//! number of nodes it is evaluated on: configs start on one node, promising
//! ones are promoted to a small set (e.g. 3) and eventually to the whole
//! cluster (e.g. 10), while poor configs are discarded cheaply.
//!
//! [`MultiFidelityOptimizer`] wraps any [`Proposer`] (random, SMAC, GP) with
//! an asynchronous Successive-Halving ladder: a config is promoted to the
//! next rung as soon as it ranks in the top `1/eta` of results completed at
//! its current rung. With a single-rung ladder it degenerates to the
//! traditional single-fidelity loop, which is exactly the paper's baseline.

use std::collections::{BTreeMap, BTreeSet};

use crate::history::History;
use crate::{Objective, Solver, Suggestion};
use tuna_space::{Config, ConfigId, ConfigSpace};
use tuna_stats::rng::Rng;

/// Proposes fresh configurations given the observation history.
pub trait Proposer {
    /// Returns the next configuration to try at the lowest budget.
    fn propose(&mut self, history: &History, space: &ConfigSpace, rng: &mut Rng) -> Config;
}

/// Budget ladder parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderParams {
    /// Strictly increasing budgets, e.g. `[1, 3, 10]`.
    pub budgets: Vec<usize>,
    /// Promotion ratio: top `1/eta` of a rung is promoted.
    pub eta: usize,
    /// Minimum completed results a rung needs before promotions happen.
    pub min_rung_size: usize,
}

impl LadderParams {
    /// The paper's configuration: rungs at 1, 3 and 10 nodes, eta = 3.
    pub fn paper_default() -> Self {
        LadderParams {
            budgets: vec![1, 3, 10],
            eta: 3,
            min_rung_size: 3,
        }
    }

    /// Single-fidelity ladder (budget 1 only) — the traditional baseline.
    pub fn single() -> Self {
        LadderParams {
            budgets: vec![1],
            eta: 3,
            min_rung_size: 1,
        }
    }

    /// Validates the ladder.
    ///
    /// # Panics
    ///
    /// Panics if budgets are empty, non-increasing, or eta < 2.
    pub fn validate(&self) {
        assert!(!self.budgets.is_empty(), "empty budget ladder");
        assert!(
            self.budgets.windows(2).all(|w| w[0] < w[1]),
            "budgets must strictly increase"
        );
        assert!(self.eta >= 2, "eta must be at least 2");
    }

    /// Maximum budget (cluster size).
    pub fn max_budget(&self) -> usize {
        *self.budgets.last().expect("non-empty ladder")
    }
}

#[derive(Debug, Clone, Default)]
struct Rung {
    /// Completed (config, cost) results at this rung.
    results: Vec<(ConfigId, f64)>,
    /// Configs already suggested for the *next* rung.
    promoted: BTreeSet<ConfigId>,
}

/// Any-proposer optimizer with an asynchronous Successive-Halving ladder.
#[derive(Debug, Clone)]
pub struct MultiFidelityOptimizer<P: Proposer> {
    space: ConfigSpace,
    objective: Objective,
    ladder: LadderParams,
    proposer: P,
    history: History,
    rungs: Vec<Rung>,
    configs: BTreeMap<ConfigId, Config>,
}

impl<P: Proposer> MultiFidelityOptimizer<P> {
    /// Creates a multi-fidelity optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is invalid.
    pub fn with_proposer(
        space: ConfigSpace,
        objective: Objective,
        ladder: LadderParams,
        proposer: P,
    ) -> Self {
        ladder.validate();
        let rungs = vec![Rung::default(); ladder.budgets.len()];
        MultiFidelityOptimizer {
            space,
            objective,
            ladder,
            proposer,
            history: History::new(),
            rungs,
            configs: BTreeMap::new(),
        }
    }

    /// The budget ladder.
    pub fn ladder(&self) -> &LadderParams {
        &self.ladder
    }

    /// The observation history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Immutable access to the proposer.
    pub fn proposer(&self) -> &P {
        &self.proposer
    }

    /// Finds a promotable config: the highest rung (preferring deeper
    /// rungs) with a completed result in the top `1/eta` not yet promoted.
    fn find_promotion(&mut self) -> Option<(usize, ConfigId)> {
        // Scan from the deepest promotable rung down so configs close to
        // max budget finish first (depth-first intensification).
        for r in (0..self.rungs.len().saturating_sub(1)).rev() {
            if self.rungs[r].results.len() < self.ladder.min_rung_size {
                continue;
            }
            let candidates: Vec<ConfigId> = {
                let rung = &self.rungs[r];
                // Non-finite results (diverged runs) count toward rung
                // occupancy but are never promotion candidates.
                let mut sorted: Vec<(ConfigId, f64)> = rung
                    .results
                    .iter()
                    .filter(|(_, cost)| cost.is_finite())
                    .copied()
                    .collect();
                sorted.sort_by(|a, b| crate::history::cost_cmp(a.1, b.1));
                let k = sorted.len().div_ceil(self.ladder.eta);
                sorted
                    .into_iter()
                    .take(k)
                    .map(|(id, _)| id)
                    .filter(|id| !rung.promoted.contains(id))
                    .collect()
            };
            if let Some(&id) = candidates.first() {
                return Some((r, id));
            }
        }
        None
    }

    fn rung_index(&self, budget: usize) -> Option<usize> {
        self.ladder.budgets.iter().position(|&b| b == budget)
    }
}

impl<P: Proposer> Solver for MultiFidelityOptimizer<P> {
    fn ask(&mut self, rng: &mut Rng) -> Suggestion {
        if let Some((rung_idx, id)) = self.find_promotion() {
            self.rungs[rung_idx].promoted.insert(id);
            let config = self.configs[&id].clone();
            return Suggestion {
                config,
                budget: self.ladder.budgets[rung_idx + 1],
            };
        }
        let config = self.proposer.propose(&self.history, &self.space, rng);
        Suggestion {
            config,
            budget: self.ladder.budgets[0],
        }
    }

    fn tell(&mut self, config: &Config, raw_value: f64, budget: usize) {
        let cost = self.objective.to_cost(raw_value);
        let id = config.id();
        self.configs.entry(id).or_insert_with(|| config.clone());
        self.history.push(config.clone(), cost, budget);
        if let Some(r) = self.rung_index(budget) {
            self.rungs[r].results.push((id, cost));
        }
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.history
            .best()
            .map(|rec| (rec.config.clone(), self.objective.from_cost(rec.cost)))
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

    /// Samples uniformly at random: drives the ladder without a model.
    struct RandomProposer;

    impl Proposer for RandomProposer {
        fn propose(&mut self, _history: &History, space: &ConfigSpace, rng: &mut Rng) -> Config {
            space.sample(rng)
        }
    }

    fn space() -> ConfigSpace {
        ConfigSpace::builder().float("x", 0.0, 1.0).build()
    }

    fn mf(ladder: LadderParams) -> MultiFidelityOptimizer<RandomProposer> {
        MultiFidelityOptimizer::with_proposer(space(), Objective::Minimize, ladder, RandomProposer)
    }

    /// Runs a synthetic loop where cost = x (lower x better) and returns
    /// every suggestion made.
    fn drive(opt: &mut MultiFidelityOptimizer<RandomProposer>, iters: usize) -> Vec<Suggestion> {
        let mut rng = Rng::seed_from(11);
        let mut out = Vec::new();
        for _ in 0..iters {
            let s = opt.ask(&mut rng);
            let x = s.config.get(0).as_float();
            opt.tell(&s.config, x, s.budget);
            out.push(s);
        }
        out
    }

    #[test]
    fn single_rung_never_promotes() {
        let mut opt = mf(LadderParams::single());
        let suggestions = drive(&mut opt, 50);
        assert!(suggestions.iter().all(|s| s.budget == 1));
        // Without promotion, every suggestion is a fresh config.
        assert_eq!(opt.history().n_configs(), 50);
    }

    #[test]
    fn promotions_follow_the_ladder() {
        let mut opt = mf(LadderParams::paper_default());
        let suggestions = drive(&mut opt, 120);
        let budgets: BTreeSet<usize> = suggestions.iter().map(|s| s.budget).collect();
        assert!(budgets.contains(&1));
        assert!(budgets.contains(&3), "no promotions to rung 3");
        assert!(budgets.contains(&10), "no promotions to max budget");
        // No budget outside the ladder.
        assert!(budgets.iter().all(|b| [1, 3, 10].contains(b)));
    }

    #[test]
    fn promoted_configs_were_good_at_previous_rung() {
        let mut opt = mf(LadderParams::paper_default());
        let mut rng = Rng::seed_from(13);
        let mut seen_costs: Vec<(ConfigId, f64)> = Vec::new();
        for _ in 0..150 {
            let s = opt.ask(&mut rng);
            let x = s.config.get(0).as_float();
            if s.budget == 3 {
                // Promotion from rung 0: the config's rung-0 cost must be
                // no worse than the rung-0 median at this point.
                let cost = seen_costs
                    .iter()
                    .find(|(id, _)| *id == s.config.id())
                    .map(|(_, c)| *c)
                    .expect("promoted config must have been seen");
                let mut costs: Vec<f64> = seen_costs.iter().map(|(_, c)| *c).collect();
                costs.sort_by(|a, b| a.total_cmp(b));
                let median = costs[costs.len() / 2];
                assert!(cost <= median + 1e-9, "promoted a bad config");
            }
            if s.budget == 1 {
                seen_costs.push((s.config.id(), x));
            }
            opt.tell(&s.config, x, s.budget);
        }
    }

    #[test]
    fn no_config_promoted_twice_from_same_rung() {
        let mut opt = mf(LadderParams::paper_default());
        let suggestions = drive(&mut opt, 200);
        let mut promoted_to_3: Vec<ConfigId> = suggestions
            .iter()
            .filter(|s| s.budget == 3)
            .map(|s| s.config.id())
            .collect();
        let before = promoted_to_3.len();
        promoted_to_3.sort();
        promoted_to_3.dedup();
        assert_eq!(before, promoted_to_3.len(), "duplicate promotion");
    }

    #[test]
    fn best_prefers_max_budget_tier() {
        let mut opt = mf(LadderParams::paper_default());
        let a = Config::new(vec![tuna_space::ParamValue::Float(0.9)]);
        let b = Config::new(vec![tuna_space::ParamValue::Float(0.1)]);
        opt.tell(&a, 0.9, 10);
        opt.tell(&b, 0.1, 1);
        // b is cheaper but only evaluated at budget 1; a is trusted.
        let (best, _) = opt.best().unwrap();
        assert_eq!(best, a);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn invalid_ladder_panics() {
        mf(LadderParams {
            budgets: vec![1, 1, 10],
            eta: 3,
            min_rung_size: 1,
        });
    }

    #[test]
    fn nan_tells_are_quarantined_not_promoted() {
        let mut opt = mf(LadderParams::paper_default());
        let mut rng = Rng::seed_from(17);
        let mut nan_ids = BTreeSet::new();
        for i in 0..120 {
            let s = opt.ask(&mut rng);
            if s.budget == 1 && i % 3 == 0 {
                // Every third fresh config diverges.
                nan_ids.insert(s.config.id());
                opt.tell(&s.config, f64::NAN, s.budget);
            } else {
                opt.tell(&s.config, s.config.get(0).as_float(), s.budget);
            }
        }
        // No diverged config was ever promoted past rung 0.
        for rung in &opt.rungs[1..] {
            for (id, _) in &rung.results {
                assert!(!nan_ids.contains(id), "promoted a NaN config");
            }
        }
        let (best, value) = opt.best().expect("finite observations exist");
        assert!(value.is_finite());
        assert!(!nan_ids.contains(&best.id()));
    }

    #[test]
    fn max_budget_accessor() {
        assert_eq!(LadderParams::paper_default().max_budget(), 10);
        assert_eq!(LadderParams::single().max_budget(), 1);
    }
}
