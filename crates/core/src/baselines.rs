//! The paper's comparison baselines (§6, §6.5).
//!
//! - [`run_traditional`]: the state-of-the-art prior setup — a single node
//!   sequentially evaluating suggested configurations with no repeats.
//! - Extended traditional (§6.5.1) is `run_traditional` with the sample
//!   budget raised to TUNA's total sample count.
//! - [`run_naive_distributed`] (§6.5.2): every config runs on every node
//!   of the cluster, min-aggregated — robust but extremely sample-hungry.
//! - [`run_arena`]: head-to-head arena sampling for registry solvers —
//!   each round's group of configs shares one machine snapshot and one
//!   noise draw, so tournament matches compare configs with machine
//!   noise cancelled (DarwinGame-style).

use crate::executor::{self, ExecutionMode, RunRequest};
use crate::pipeline::{IterationRecord, TuningResult};
use tuna_cloudsim::Cluster;
use tuna_optimizer::{Solver, Suggestion};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

/// Traditional single-node sampling: one sample per suggestion, all on the
/// same worker (worker 0 of `cluster`). Inherently serial — there is only
/// one lane — but run randomness follows the same fork discipline as the
/// executor (`rng.fork(hash_combine(round, config_id))`).
pub fn run_traditional(
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    mut optimizer: Box<dyn Solver>,
    mut cluster: Cluster,
    samples: usize,
    crash_penalty: f64,
    rng: &mut Rng,
) -> TuningResult {
    let mut trace = Vec::with_capacity(samples);
    for round in 0..samples {
        let suggestion = optimizer.ask(rng);
        let mut run_rng = rng.fork(hash_combine(round as u64, suggestion.config.id().0));
        let outcome = sut.run(
            &suggestion.config,
            workload,
            cluster.machine_mut(0),
            &mut run_rng,
        );
        let value = if outcome.crashed {
            crash_penalty
        } else {
            outcome.value
        };
        optimizer.tell(&suggestion.config, value, 1);
        trace.push(IterationRecord {
            round: round + 1,
            config_id: suggestion.config.id(),
            budget: 1,
            new_samples: 1,
            reported: value,
            unstable: false,
            best_so_far: optimizer.best().map(|(_, v)| v),
            cumulative_samples: round + 1,
            model_error: None,
        });
    }
    baseline_result(optimizer.as_ref(), trace)
}

/// Naive distributed sampling: every suggestion runs on *all* workers
/// (one executor lane per worker, parallelizable via `mode`); the worst
/// observation is reported (same aggregation as TUNA so the §6.5.2
/// comparison isolates the scheduling policy). Results are bit-identical
/// across execution modes.
#[allow(clippy::too_many_arguments)]
pub fn run_naive_distributed(
    mode: ExecutionMode,
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    mut optimizer: Box<dyn Solver>,
    mut cluster: Cluster,
    sample_budget: usize,
    crash_penalty: f64,
    rng: &mut Rng,
) -> TuningResult {
    let n = cluster.size();
    let objective = optimizer.objective();
    let mut trace = Vec::new();
    let mut total = 0usize;
    let mut round = 0usize;
    while total + n <= sample_budget {
        let suggestion = optimizer.ask(rng);
        let id = suggestion.config.id();
        let requests: Vec<RunRequest<'_>> = (0..n)
            .map(|i| RunRequest {
                config: &suggestion.config,
                machine: i,
                stream: hash_combine(round as u64, hash_combine(id.0, i as u64)),
            })
            .collect();
        let (outcomes, _) =
            executor::execute_batch(mode, sut, workload, &mut cluster, rng, &requests);
        let values: Vec<f64> = outcomes
            .iter()
            .map(|o| if o.crashed { crash_penalty } else { o.value })
            .collect();
        total += n;
        round += 1;
        let reported = crate::aggregate::AggregationPolicy::WorstCase.aggregate(&values, objective);
        // Told at the cluster budget so `best()` trusts these fully.
        optimizer.tell(&suggestion.config, reported, n);
        trace.push(IterationRecord {
            round,
            config_id: suggestion.config.id(),
            budget: n,
            new_samples: n,
            reported,
            unstable: false,
            best_so_far: optimizer.best().map(|(_, v)| v),
            cumulative_samples: total,
            model_error: None,
        });
    }
    baseline_result(optimizer.as_ref(), trace)
}

/// Domain salt for the per-round shared noise stream of [`run_arena`].
const ARENA_STREAM_SALT: u64 = 0xA1_2E4A;

/// Head-to-head arena sampling for registry solvers.
///
/// Each round asks the solver for `match_size` configs (see
/// `tuna_optimizer::solver::Capabilities::match_size`) and evaluates the
/// whole group on worker 0 from the *same machine snapshot with the same
/// noise stream* — every member of a match sees identical placement,
/// interference and measurement noise, so the comparison is pure config
/// signal (the DarwinGame premise). The machine then advances by one
/// epoch (the last run's evolution is kept), exactly one step per round
/// like [`run_traditional`]. With `match_size == 1` this degenerates to
/// single-node sampling with per-round noise streams.
///
/// # Panics
///
/// Panics if `match_size == 0` or no full group fits in `samples`.
#[allow(clippy::too_many_arguments)]
pub fn run_arena(
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    mut solver: Box<dyn Solver>,
    mut cluster: Cluster,
    samples: usize,
    match_size: usize,
    crash_penalty: f64,
    rng: &mut Rng,
) -> TuningResult {
    assert!(match_size >= 1, "match_size must be positive");
    let mut trace = Vec::with_capacity(samples);
    let mut total = 0usize;
    let mut round = 0usize;
    while total + match_size <= samples {
        let group: Vec<Suggestion> = (0..match_size).map(|_| solver.ask(rng)).collect();
        let shared_rng = rng.fork(hash_combine(round as u64, ARENA_STREAM_SALT));
        let snapshot = cluster.machine(0).clone();
        for suggestion in &group {
            // Rewind to the round's snapshot so every group member plays
            // the identical machine; the last member's evolution sticks.
            *cluster.machine_mut(0) = snapshot.clone();
            let mut run_rng = shared_rng.clone();
            let outcome = sut.run(
                &suggestion.config,
                workload,
                cluster.machine_mut(0),
                &mut run_rng,
            );
            let value = if outcome.crashed {
                crash_penalty
            } else {
                outcome.value
            };
            solver.tell(&suggestion.config, value, suggestion.budget);
            total += 1;
            trace.push(IterationRecord {
                round: round + 1,
                config_id: suggestion.config.id(),
                budget: suggestion.budget,
                new_samples: 1,
                reported: value,
                unstable: false,
                best_so_far: solver.best().map(|(_, v)| v),
                cumulative_samples: total,
                model_error: None,
            });
        }
        round += 1;
    }
    baseline_result(solver.as_ref(), trace)
}

/// The [`TuningResult`] every baseline ends with: the solver's best and
/// the trace, which holds one record per config asked, with no unstable
/// configs and no model errors.
fn baseline_result(solver: &dyn Solver, trace: Vec<IterationRecord>) -> TuningResult {
    let (best_config, best_value) = solver.best().expect("at least one finite sample");
    TuningResult {
        best_config,
        best_value,
        total_samples: trace.last().map_or(0, |r| r.cumulative_samples),
        n_configs: trace.len(),
        trace,
        n_unstable_configs: 0,
        model_errors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_cloudsim::{Region, VmSku};
    use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
    use tuna_optimizer::Objective;
    use tuna_sut::postgres::Postgres;

    fn cluster(seed: u64, n: usize) -> Cluster {
        Cluster::new(n, VmSku::d8s_v5(), Region::westus2(), seed)
    }

    fn smac(pg: &Postgres) -> Box<dyn Solver> {
        Box::new(SmacOptimizer::new(
            pg.space().clone(),
            Objective::Maximize,
            SmacParams {
                n_init: 5,
                n_random_candidates: 40,
                ..SmacParams::default()
            },
        ))
    }

    #[test]
    fn traditional_consumes_exactly_one_sample_per_round() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut rng = Rng::seed_from(1);
        let result = run_traditional(&pg, &w, smac(&pg), cluster(1, 1), 30, 1.0, &mut rng);
        assert_eq!(result.total_samples, 30);
        assert_eq!(result.trace.len(), 30);
        assert!(result.best_value > 300.0);
        assert!(result.trace.iter().all(|r| r.budget == 1));
    }

    #[test]
    fn naive_distributed_uses_full_cluster_per_round() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut rng = Rng::seed_from(2);
        let result = run_naive_distributed(
            ExecutionMode::Serial,
            &pg,
            &w,
            smac(&pg),
            cluster(2, 10),
            100,
            1.0,
            &mut rng,
        );
        assert_eq!(result.total_samples, 100);
        assert_eq!(result.trace.len(), 10);
        assert!(result.trace.iter().all(|r| r.new_samples == 10));
    }

    #[test]
    fn naive_distributed_parallel_matches_serial() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let run = |mode| {
            let mut rng = Rng::seed_from(5);
            run_naive_distributed(mode, &pg, &w, smac(&pg), cluster(5, 10), 80, 1.0, &mut rng)
        };
        let serial = run(ExecutionMode::Serial);
        for workers in [2, 4, 10] {
            assert_eq!(
                serial,
                run(ExecutionMode::Parallel { workers }),
                "naive distributed diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn arena_match_sides_see_identical_noise() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tuna_optimizer::History;
        use tuna_space::{Config, ConfigSpace};
        use tuna_sut::SystemUnderTest;

        // A solver proposing the same config for both sides of each match
        // must observe byte-identical values: same machine, same draw.
        struct Fixed {
            space: ConfigSpace,
            config: Config,
            history: History,
            told: Rc<RefCell<Vec<f64>>>,
        }
        impl Solver for Fixed {
            fn ask(&mut self, _rng: &mut Rng) -> Suggestion {
                Suggestion {
                    config: self.config.clone(),
                    budget: 1,
                }
            }
            fn tell(&mut self, config: &Config, raw_value: f64, budget: usize) {
                self.told.borrow_mut().push(raw_value);
                self.history.push(config.clone(), raw_value, budget);
            }
            fn best(&self) -> Option<(Config, f64)> {
                self.history.best().map(|r| (r.config.clone(), r.cost))
            }
            fn space(&self) -> &ConfigSpace {
                &self.space
            }
            fn objective(&self) -> Objective {
                Objective::Minimize
            }
            fn n_observations(&self) -> usize {
                self.history.len()
            }
        }

        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let told = Rc::new(RefCell::new(Vec::new()));
        let solver = Box::new(Fixed {
            space: pg.space().clone(),
            config: pg.default_config(),
            history: History::new(),
            told: Rc::clone(&told),
        });
        let mut rng = Rng::seed_from(9);
        let result = run_arena(&pg, &w, solver, cluster(9, 1), 20, 2, 1.0, &mut rng);
        assert_eq!(result.total_samples, 20);
        let vals = told.borrow();
        assert_eq!(vals.len(), 20);
        for pair in vals.chunks(2) {
            assert_eq!(pair[0].to_bits(), pair[1].to_bits(), "match sides diverged");
        }
        let distinct: std::collections::HashSet<u64> =
            vals.chunks(2).map(|p| p[0].to_bits()).collect();
        assert!(distinct.len() > 1, "noise draw never changed across rounds");
    }

    #[test]
    fn arena_tournament_runs_deterministically() {
        use tuna_optimizer::solver::{SolverId, SolverParams};
        let run = || {
            let pg = Postgres::new();
            let w = tuna_workloads::tpcc();
            let solver = SolverId::new("tournament").unwrap().build(
                pg.space().clone(),
                Objective::Maximize,
                &SolverParams::default(),
            );
            let mut rng = Rng::seed_from(21);
            run_arena(&pg, &w, solver, cluster(21, 1), 32, 2, 1.0, &mut rng)
        };
        let a = run();
        assert_eq!(a, run(), "same-seed arena runs diverged");
        assert!(a.best_value.is_finite());
        assert_eq!(a.total_samples, 32);
    }

    #[test]
    fn best_so_far_improves_monotonically_traditional() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut rng = Rng::seed_from(3);
        let result = run_traditional(&pg, &w, smac(&pg), cluster(3, 1), 40, 1.0, &mut rng);
        let mut prev = f64::NEG_INFINITY;
        for r in &result.trace {
            let b = r.best_so_far.unwrap();
            assert!(b >= prev - 1e-9, "best-so-far regressed");
            prev = b;
        }
    }
}
