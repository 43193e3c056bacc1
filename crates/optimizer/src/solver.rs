//! String-keyed solver registry (kurobako-style solver/problem split).
//!
//! Arms in `tuna-core` name solvers declaratively (`"smac"`, `"gp"`,
//! `"random"`, `"tournament"`) instead of constructing concrete types.
//! Each registered solver carries a [`Capabilities`] descriptor so a
//! runner can adapt — most importantly [`Capabilities::match_size`],
//! which tells the arena runner how many configs the solver wants
//! evaluated on the *same machine and noise draw* (2 for head-to-head
//! tournament matches).
//!
//! Registry names double as the determinism anchor: per-arm seed salts
//! are derived from [`SolverId::name_hash`] (FNV-1a of the name) rather
//! than hand-numbered enum indices, so adding a solver can never
//! silently reuse another arm's salt.

use std::fmt;
use std::sync::OnceLock;

use crate::gp_opt::{GpOptimizer, GpParams};
use crate::multifidelity::LadderParams;
use crate::random::RandomSearch;
use crate::smac::{SmacOptimizer, SmacParams};
use crate::tournament::{TournamentParams, TournamentSolver};
use crate::{Objective, Solver};
use tuna_space::ConfigSpace;
use tuna_stats::fnv::Checksum;

/// What a registered solver can do; runners adapt to this descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Understands the Successive-Halving budget ladder (may suggest
    /// budgets above 1 when given a multi-rung ladder).
    pub multi_fidelity: bool,
    /// Fits a surrogate model over the observation history.
    pub model_based: bool,
    /// Configs the solver wants evaluated per noise draw: 1 for
    /// independent evaluations, 2 for head-to-head matches whose sides
    /// must share one machine/noise draw.
    pub match_size: usize,
}

/// Construction parameters a registry builder may draw from. Solvers
/// take only the pieces they understand; the rest are ignored.
#[derive(Debug, Clone)]
pub struct SolverParams {
    /// Budget ladder for multi-fidelity solvers.
    pub ladder: LadderParams,
    /// SMAC hyperparameters.
    pub smac: SmacParams,
    /// GP hyperparameters.
    pub gp: GpParams,
    /// Tournament hyperparameters.
    pub tournament: TournamentParams,
    /// Fixed suggestion budget for single-fidelity solvers.
    pub budget: usize,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            ladder: LadderParams::single(),
            smac: SmacParams::default(),
            gp: GpParams::default(),
            tournament: TournamentParams::default(),
            budget: 1,
        }
    }
}

type BuildFn = fn(ConfigSpace, Objective, &SolverParams) -> Box<dyn Solver>;

/// One registered solver: name, capabilities, constructor.
pub struct SolverEntry {
    name: &'static str,
    capabilities: Capabilities,
    build: BuildFn,
}

impl SolverEntry {
    /// The registry key.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The capability descriptor.
    pub fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    /// Constructs the solver.
    pub fn build(
        &self,
        space: ConfigSpace,
        objective: Objective,
        params: &SolverParams,
    ) -> Box<dyn Solver> {
        (self.build)(space, objective, params)
    }
}

/// The string-keyed solver registry.
pub struct SolverRegistry {
    entries: Vec<SolverEntry>,
}

impl SolverRegistry {
    /// The built-in registry: `random`, `smac`, `gp`, `tournament`.
    pub fn builtin() -> &'static SolverRegistry {
        static REGISTRY: OnceLock<SolverRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| SolverRegistry {
            entries: vec![
                SolverEntry {
                    name: "random",
                    capabilities: Capabilities {
                        multi_fidelity: false,
                        model_based: false,
                        match_size: 1,
                    },
                    build: |space, objective, p| {
                        Box::new(RandomSearch::new(space, objective, p.budget.max(1)))
                    },
                },
                SolverEntry {
                    name: "smac",
                    capabilities: Capabilities {
                        multi_fidelity: true,
                        model_based: true,
                        match_size: 1,
                    },
                    build: |space, objective, p| {
                        Box::new(SmacOptimizer::multi_fidelity(
                            space,
                            objective,
                            p.smac.clone(),
                            p.ladder.clone(),
                        ))
                    },
                },
                SolverEntry {
                    name: "gp",
                    capabilities: Capabilities {
                        multi_fidelity: true,
                        model_based: true,
                        match_size: 1,
                    },
                    build: |space, objective, p| {
                        Box::new(GpOptimizer::multi_fidelity(
                            space,
                            objective,
                            p.gp.clone(),
                            p.ladder.clone(),
                        ))
                    },
                },
                SolverEntry {
                    name: "tournament",
                    capabilities: Capabilities {
                        multi_fidelity: false,
                        model_based: false,
                        match_size: 2,
                    },
                    build: |space, objective, p| {
                        Box::new(TournamentSolver::new(
                            space,
                            objective,
                            p.tournament.clone(),
                        ))
                    },
                },
            ],
        })
    }

    /// Registered names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&SolverEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// A validated solver registry name — the declarative handle arms use.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolverId(String);

impl SolverId {
    /// Validates `name` against the built-in registry.
    pub fn new(name: &str) -> Result<SolverId, String> {
        match SolverRegistry::builtin().get(name) {
            Some(entry) => Ok(SolverId(entry.name().to_string())),
            None => Err(format!(
                "unknown solver {name:?}; registered: {}",
                SolverRegistry::builtin().names().join(", ")
            )),
        }
    }

    /// The paper's default optimizer.
    pub fn smac() -> SolverId {
        SolverId("smac".to_string())
    }

    /// The GP alternative (§6.6).
    pub fn gp() -> SolverId {
        SolverId("gp".to_string())
    }

    /// Pure random search.
    pub fn random() -> SolverId {
        SolverId("random".to_string())
    }

    /// DarwinGame head-to-head tournament selection.
    pub fn tournament() -> SolverId {
        SolverId("tournament".to_string())
    }

    /// The registry key.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// FNV-1a/64 of the registry name — the per-arm seed-salt anchor.
    /// Name-derived salts cannot collide with hand-numbered indices when
    /// a new solver is registered.
    pub fn name_hash(&self) -> u64 {
        let mut c = Checksum::new();
        c.push_str(&self.0);
        c.value()
    }

    /// The capability descriptor.
    pub fn capabilities(&self) -> Capabilities {
        SolverRegistry::builtin()
            .get(&self.0)
            .expect("SolverId is validated at construction")
            .capabilities()
    }

    /// Builds the solver.
    pub fn build(
        &self,
        space: ConfigSpace,
        objective: Objective,
        params: &SolverParams,
    ) -> Box<dyn Solver> {
        SolverRegistry::builtin()
            .get(&self.0)
            .expect("SolverId is validated at construction")
            .build(space, objective, params)
    }
}

impl fmt::Display for SolverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_stats::rng::Rng;

    fn space() -> ConfigSpace {
        ConfigSpace::builder().float("x", 0.0, 1.0).build()
    }

    #[test]
    fn builtin_registry_names_and_order() {
        assert_eq!(
            SolverRegistry::builtin().names(),
            vec!["random", "smac", "gp", "tournament"]
        );
    }

    #[test]
    fn unknown_name_lists_registered() {
        let err = SolverId::new("adam").unwrap_err();
        assert!(err.contains("unknown solver"), "{err}");
        assert!(err.contains("random, smac, gp, tournament"), "{err}");
    }

    #[test]
    fn every_registered_solver_builds_and_runs() {
        for name in SolverRegistry::builtin().names() {
            let mut solver = SolverId::new(name).unwrap().build(
                space(),
                Objective::Minimize,
                &SolverParams::default(),
            );
            let mut rng = Rng::seed_from(1);
            for _ in 0..20 {
                let s = solver.ask(&mut rng);
                let x = s.config.get(0).as_float();
                solver.tell(&s.config, x, s.budget);
            }
            assert!(solver.best().is_some(), "{name} found no best");
            assert_eq!(solver.n_observations(), 20, "{name} miscounted");
        }
    }

    #[test]
    fn capabilities_match_solver_nature() {
        let caps = |n: &str| SolverRegistry::builtin().get(n).unwrap().capabilities();
        assert!(caps("smac").model_based && caps("smac").multi_fidelity);
        assert!(caps("gp").model_based && caps("gp").multi_fidelity);
        assert!(!caps("random").model_based);
        assert_eq!(caps("tournament").match_size, 2);
        assert_eq!(caps("smac").match_size, 1);
    }

    #[test]
    fn name_hashes_are_distinct_and_stable() {
        let ids = [
            SolverId::random(),
            SolverId::smac(),
            SolverId::gp(),
            SolverId::tournament(),
        ];
        let mut hashes: Vec<u64> = ids.iter().map(|i| i.name_hash()).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), ids.len(), "salt collision");
        // Pinned: the salt derivation is part of the campaign seed
        // contract — changing it re-seeds every named-solver arm.
        let mut c = Checksum::new();
        c.push_str("smac");
        assert_eq!(SolverId::smac().name_hash(), c.value());
    }

    #[test]
    fn validated_ids_round_trip() {
        for name in SolverRegistry::builtin().names() {
            let id = SolverId::new(name).unwrap();
            assert_eq!(id.as_str(), name);
            assert_eq!(id.to_string(), name);
        }
    }
}
