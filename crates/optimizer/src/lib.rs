//! Black-box optimizers for system configuration tuning.
//!
//! The crate reproduces the optimizer layer of the paper's Figure 1 loop:
//!
//! - [`smac`]: SMAC-style Bayesian optimization — random-forest surrogate,
//!   expected-improvement acquisition over random + local-search candidates,
//!   interleaved random exploration. The paper's default optimizer.
//! - [`gp_opt`]: Gaussian-process Bayesian optimization, the
//!   OtterTune-style alternative evaluated in §6.6.
//! - [`random`]: pure random search (initialization and baseline).
//! - [`multifidelity`]: a Successive-Halving intensifier that turns any
//!   proposer into a multi-fidelity optimizer whose *budget is the number of
//!   nodes a config is evaluated on* (§4.1).
//! - [`tournament`]: DarwinGame-style tournament selection — configs play
//!   head-to-head matches, winners advance through a bracket.
//!
//! All optimizers speak the same [`Solver`] ask/tell interface so the
//! TUNA pipeline (and the baselines) can swap them freely, mirroring the
//! paper's "no changes to the underlying optimizer" design goal. The
//! [`solver`] module adds the declarative layer on top: a string-keyed
//! [`solver::SolverRegistry`] with per-solver [`solver::Capabilities`], so
//! arms name solvers (`"smac"`, `"gp"`, `"random"`, `"tournament"`)
//! instead of constructing concrete types.
//!
//! # Examples
//!
//! ```
//! use tuna_optimizer::{Objective, Solver};
//! use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
//! use tuna_space::ConfigSpace;
//! use tuna_stats::rng::Rng;
//!
//! let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
//! let mut opt = SmacOptimizer::new(space.clone(), Objective::Minimize, SmacParams::default());
//! let mut rng = Rng::seed_from(0);
//! for _ in 0..20 {
//!     let s = opt.ask(&mut rng);
//!     let x = space.value_of(&s.config, "x").as_float();
//!     let cost = (x - 0.3) * (x - 0.3);
//!     opt.tell(&s.config, cost, s.budget);
//! }
//! let (best, _) = opt.best().unwrap();
//! assert!(space.validate(&best).is_ok());
//! ```

pub mod gp_opt;
pub mod history;
pub mod multifidelity;
pub mod random;
pub mod smac;
pub mod solver;
pub mod tournament;

pub use history::{cost_cmp, History, Observation};
pub use solver::{Capabilities, SolverId, SolverParams, SolverRegistry};

use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;

/// Direction of optimization.
///
/// Internally every optimizer minimizes *cost*; [`Objective`] converts
/// between the SuT's raw metric (throughput up, runtime down, ...) and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Smaller raw values are better (runtime, latency).
    Minimize,
    /// Larger raw values are better (throughput).
    Maximize,
}

impl Objective {
    /// Converts a raw metric value into a cost to minimize.
    pub fn to_cost(&self, raw: f64) -> f64 {
        match self {
            Objective::Minimize => raw,
            Objective::Maximize => -raw,
        }
    }

    /// Converts a cost back into a raw metric value.
    pub fn from_cost(&self, cost: f64) -> f64 {
        match self {
            Objective::Minimize => cost,
            Objective::Maximize => -cost,
        }
    }

    /// Whether `a` is a better raw value than `b`.
    pub fn better(&self, a: f64, b: f64) -> bool {
        self.to_cost(a) < self.to_cost(b)
    }
}

/// A configuration the optimizer wants evaluated at a given budget.
///
/// The budget is the number of distinct nodes to sample the config on
/// (§4.1); single-fidelity optimizers always use budget 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The configuration to evaluate.
    pub config: Config,
    /// Evaluation budget (number of nodes).
    pub budget: usize,
}

/// The ask/tell solver interface shared by all implementations
/// (kurobako-style solver side of the solver/problem split).
///
/// The loop is always the same regardless of the concrete solver:
/// [`Solver::ask`] proposes a [`Suggestion`], the caller measures it,
/// and [`Solver::tell`] feeds the raw metric back. Any type
/// implementing the trait drops into the TUNA pipeline unchanged:
///
/// ```
/// use tuna_optimizer::random::RandomSearch;
/// use tuna_optimizer::{Objective, Solver};
/// use tuna_space::ConfigSpace;
/// use tuna_stats::rng::Rng;
///
/// let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
/// let mut solver: Box<dyn Solver> =
///     Box::new(RandomSearch::new(space.clone(), Objective::Minimize, 1));
/// let mut rng = Rng::seed_from(7);
/// for _ in 0..10 {
///     let s = solver.ask(&mut rng);
///     let x = space.value_of(&s.config, "x").as_float();
///     solver.tell(&s.config, (x - 0.5).abs(), s.budget);
/// }
/// assert_eq!(solver.n_observations(), 10);
/// let (_best, value) = solver.best().expect("ten observations");
/// assert!(value <= 0.5);
/// ```
pub trait Solver {
    /// Proposes the next configuration (and budget) to evaluate.
    fn ask(&mut self, rng: &mut Rng) -> Suggestion;

    /// Reports the (aggregated) raw metric value observed for `config` at
    /// `budget`.
    fn tell(&mut self, config: &Config, raw_value: f64, budget: usize);

    /// The best configuration observed so far and its raw metric value,
    /// preferring observations at the highest budget reached.
    fn best(&self) -> Option<(Config, f64)>;

    /// The search space.
    fn space(&self) -> &ConfigSpace;

    /// The optimization direction.
    fn objective(&self) -> Objective;

    /// Number of tell() calls so far.
    fn n_observations(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_cost_round_trip() {
        for raw in [-3.0, 0.0, 7.5] {
            assert_eq!(
                Objective::Minimize.from_cost(Objective::Minimize.to_cost(raw)),
                raw
            );
            assert_eq!(
                Objective::Maximize.from_cost(Objective::Maximize.to_cost(raw)),
                raw
            );
        }
    }

    #[test]
    fn objective_better() {
        assert!(Objective::Minimize.better(1.0, 2.0));
        assert!(!Objective::Minimize.better(2.0, 1.0));
        assert!(Objective::Maximize.better(2.0, 1.0));
        assert!(!Objective::Maximize.better(1.0, 2.0));
    }
}
