//! DarwinGame-style tournament selection.
//!
//! Instead of fitting a surrogate over noisy absolute measurements, the
//! tournament solver pits configurations against each other in
//! head-to-head matches: a generation of `bracket_size` configs plays a
//! single-elimination bracket, winners advance, and the champion seeds
//! the next generation (champion + local mutants + fresh random
//! entrants). Because both sides of a match are meant to run on the
//! *same machine and noise draw* (the arena runner in `tuna-core`
//! honors [`Capabilities::match_size`]), machine noise cancels out of
//! the comparison — a direct alternative to TUNA's outlier filtering.
//!
//! Determinism: the bracket structure is a pure function of
//! `(seed, generation, round)`. The solver captures its seed from the
//! first `ask()`'s RNG stream, then derives every generation's
//! population and every round's pairing from forked counters, so two
//! same-seed runs produce bit-identical ask/tell streams.
//!
//! [`Capabilities::match_size`]: crate::solver::Capabilities

use std::collections::VecDeque;

use crate::history::{cost_cmp, History};
use crate::{Objective, Solver, Suggestion};
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::{hash_combine, Rng};

/// Domain salts separating the population stream from the pairing stream.
const GEN_SALT: u64 = 0x7A_0001;
const ROUND_SALT: u64 = 0x7A_0002;

/// Tournament hyperparameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentParams {
    /// Configs per generation; must be a power of two >= 2 so the
    /// single-elimination bracket pairs cleanly.
    pub bracket_size: usize,
    /// Local mutants of the reigning champion seeded into each new
    /// generation (the rest of the bracket is fresh random entrants).
    pub n_mutants: usize,
    /// Evaluation budget (number of nodes) per match play.
    pub budget: usize,
}

impl Default for TournamentParams {
    fn default() -> Self {
        TournamentParams {
            bracket_size: 8,
            n_mutants: 3,
            budget: 1,
        }
    }
}

impl TournamentParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bracket_size` is not a power of two >= 2 or `budget`
    /// is zero.
    pub fn validate(&self) {
        assert!(
            self.bracket_size >= 2 && self.bracket_size.is_power_of_two(),
            "bracket_size must be a power of two >= 2"
        );
        assert!(self.budget > 0, "budget must be positive");
    }
}

/// Head-to-head tournament solver (see module docs).
#[derive(Debug, Clone)]
pub struct TournamentSolver {
    space: ConfigSpace,
    objective: Objective,
    params: TournamentParams,
    history: History,
    /// Captured from the first ask's RNG so brackets are reproducible.
    seed: Option<u64>,
    generation: u64,
    round: u64,
    champion: Option<Config>,
    /// Players remaining in the current bracket (in seeding order).
    players: Vec<Config>,
    /// Configs of the current round not yet handed out by `ask`.
    pending: VecDeque<Config>,
    /// Match slots of the current round, filled by `tell` (slot 2i plays
    /// slot 2i+1).
    awaiting: Vec<(Config, Option<f64>)>,
}

impl TournamentSolver {
    /// Creates a tournament solver.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid (see [`TournamentParams::validate`]).
    pub fn new(space: ConfigSpace, objective: Objective, params: TournamentParams) -> Self {
        params.validate();
        TournamentSolver {
            space,
            objective,
            params,
            history: History::new(),
            seed: None,
            generation: 0,
            round: 0,
            champion: None,
            players: Vec::new(),
            pending: VecDeque::new(),
            awaiting: Vec::new(),
        }
    }

    /// The hyperparameters.
    pub fn params(&self) -> &TournamentParams {
        &self.params
    }

    /// The reigning champion (winner of the last completed bracket).
    pub fn champion(&self) -> Option<&Config> {
        self.champion.as_ref()
    }

    /// Completed generations (brackets played to a champion).
    pub fn generations_played(&self) -> u64 {
        self.generation
    }

    /// Spawns a fresh generation: champion + mutants + random entrants.
    fn spawn_generation(&mut self, seed: u64) {
        let mut gen_rng =
            Rng::seed_from(hash_combine(hash_combine(seed, GEN_SALT), self.generation));
        let mut pop = Vec::with_capacity(self.params.bracket_size);
        if let Some(champ) = &self.champion {
            pop.push(champ.clone());
            let n = self.params.n_mutants.min(self.params.bracket_size - 1);
            pop.extend(self.space.neighbors(champ, n, &mut gen_rng));
        }
        while pop.len() < self.params.bracket_size {
            pop.push(self.space.sample(&mut gen_rng));
        }
        pop.truncate(self.params.bracket_size);
        self.players = pop;
        self.round = 0;
    }

    /// Lays out the current round: pairing is a pure function of
    /// (seed, generation, round).
    fn start_round(&mut self, seed: u64) {
        let mut order: Vec<usize> = (0..self.players.len()).collect();
        let mut pair_rng = Rng::seed_from(hash_combine(
            hash_combine(hash_combine(seed, ROUND_SALT), self.generation),
            self.round,
        ));
        pair_rng.shuffle(&mut order);
        self.awaiting = order
            .iter()
            .map(|&i| (self.players[i].clone(), None))
            .collect();
        self.pending = self.awaiting.iter().map(|(c, _)| c.clone()).collect();
    }

    /// Resolves the completed round: lower cost wins each match, with
    /// non-finite costs losing deterministically (both non-finite: the
    /// earlier slot advances).
    fn resolve_round(&mut self) {
        let mut winners = Vec::with_capacity(self.awaiting.len() / 2);
        for pair in self.awaiting.chunks(2) {
            let (a, a_cost) = (&pair[0].0, pair[0].1.unwrap_or(f64::NAN));
            let winner = if pair.len() == 2 {
                let (b, b_cost) = (&pair[1].0, pair[1].1.unwrap_or(f64::NAN));
                if cost_cmp(a_cost, b_cost) == std::cmp::Ordering::Greater {
                    b
                } else {
                    a
                }
            } else {
                a
            };
            winners.push(winner.clone());
        }
        self.awaiting.clear();
        self.players = winners;
        self.round += 1;
        if self.players.len() == 1 {
            self.champion = self.players.pop();
            self.generation += 1;
            self.round = 0;
        }
    }
}

impl Solver for TournamentSolver {
    fn ask(&mut self, rng: &mut Rng) -> Suggestion {
        let seed = *self.seed.get_or_insert_with(|| rng.next_u64());
        if let Some(config) = self.pending.pop_front() {
            return Suggestion {
                config,
                budget: self.params.budget,
            };
        }
        if self.awaiting.iter().any(|(_, r)| r.is_none()) {
            // A generic driver asked again before telling the round's
            // results; hand out an off-bracket probe instead of stalling.
            return Suggestion {
                config: self.space.sample(rng),
                budget: self.params.budget,
            };
        }
        if self.players.len() < 2 {
            self.spawn_generation(seed);
        }
        self.start_round(seed);
        let config = self.pending.pop_front().expect("non-empty round");
        Suggestion {
            config,
            budget: self.params.budget,
        }
    }

    fn tell(&mut self, config: &Config, raw_value: f64, budget: usize) {
        let cost = self.objective.to_cost(raw_value);
        self.history.push(config.clone(), cost, budget);
        let id = config.id();
        if let Some(slot) = self
            .awaiting
            .iter_mut()
            .find(|(c, r)| r.is_none() && c.id() == id)
        {
            slot.1 = Some(cost);
        }
        if !self.awaiting.is_empty() && self.awaiting.iter().all(|(_, r)| r.is_some()) {
            self.resolve_round();
        }
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
        ConfigSpace::builder()
            .float("x", 0.0, 1.0)
            .int("i", 0, 100)
            .build()
    }

    fn solver() -> TournamentSolver {
        TournamentSolver::new(space(), Objective::Minimize, TournamentParams::default())
    }

    /// Drives ask/tell with cost = x and returns every suggestion.
    fn drive(s: &mut TournamentSolver, iters: usize, seed: u64) -> Vec<Suggestion> {
        let mut rng = Rng::seed_from(seed);
        let mut out = Vec::new();
        for _ in 0..iters {
            let sug = s.ask(&mut rng);
            let x = sug.config.get(0).as_float();
            s.tell(&sug.config, x, sug.budget);
            out.push(sug);
        }
        out
    }

    #[test]
    fn brackets_complete_and_champion_improves_or_holds() {
        let mut s = solver();
        drive(&mut s, 64, 3);
        assert!(s.generations_played() >= 4, "brackets did not complete");
        assert!(s.champion().is_some());
        let (_, best) = s.best().unwrap();
        assert!(best.is_finite());
    }

    #[test]
    fn bracket_is_pure_function_of_seed() {
        let mut a = solver();
        let mut b = solver();
        let sa = drive(&mut a, 48, 7);
        let sb = drive(&mut b, 48, 7);
        assert_eq!(sa, sb, "same-seed runs diverged");
        let mut c = solver();
        let sc = drive(&mut c, 48, 8);
        assert_ne!(sa, sc, "different seeds produced identical brackets");
    }

    #[test]
    fn champion_seeds_next_generation() {
        let mut s = solver();
        let mut rng = Rng::seed_from(5);
        // Play exactly one full bracket (8 -> 4 -> 2 -> 1 = 14 plays).
        for _ in 0..14 {
            let sug = s.ask(&mut rng);
            let x = sug.config.get(0).as_float();
            s.tell(&sug.config, x, sug.budget);
        }
        let champ = s.champion().expect("bracket finished").clone();
        // The champion re-enters the next bracket.
        let mut seen = Vec::new();
        for _ in 0..8 {
            let sug = s.ask(&mut rng);
            seen.push(sug.config.clone());
            let x = sug.config.get(0).as_float();
            s.tell(&sug.config, x, sug.budget);
        }
        assert!(
            seen.iter().any(|c| c.id() == champ.id()),
            "champion missing from next generation"
        );
    }

    #[test]
    fn nan_cost_loses_matches_deterministically() {
        let mut s = solver();
        let mut rng = Rng::seed_from(11);
        let mut nan_ids = std::collections::HashSet::new();
        for i in 0..56 {
            let sug = s.ask(&mut rng);
            if i % 2 == 0 {
                nan_ids.insert(sug.config.id());
                s.tell(&sug.config, f64::NAN, sug.budget);
            } else {
                s.tell(&sug.config, sug.config.get(0).as_float(), sug.budget);
            }
        }
        let (best, value) = s.best().expect("finite observations exist");
        assert!(value.is_finite());
        assert!(!nan_ids.contains(&best.id()), "a NaN config won best()");
    }

    #[test]
    fn tolerates_ask_without_tell() {
        let mut s = solver();
        let mut rng = Rng::seed_from(13);
        // Ask twice as many times as we tell; solver must not stall.
        let mut pending = Vec::new();
        for i in 0..40 {
            let sug = s.ask(&mut rng);
            if i % 2 == 0 {
                pending.push(sug);
            } else {
                s.tell(&sug.config, sug.config.get(0).as_float(), sug.budget);
            }
        }
        for sug in pending {
            s.tell(&sug.config, sug.config.get(0).as_float(), sug.budget);
        }
        assert!(s.best().is_some());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bracket_panics() {
        TournamentSolver::new(
            space(),
            Objective::Minimize,
            TournamentParams {
                bracket_size: 6,
                ..TournamentParams::default()
            },
        );
    }
}
