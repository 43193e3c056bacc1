//! The paper's comparison baselines (§6, §6.5).
//!
//! - [`run_traditional`]: the state-of-the-art prior setup — a single node
//!   sequentially evaluating suggested configurations with no repeats.
//! - Extended traditional (§6.5.1) is `run_traditional` with the sample
//!   budget raised to TUNA's total sample count.
//! - [`run_naive_distributed`] (§6.5.2): every config runs on every node
//!   of the cluster, min-aggregated — robust but extremely sample-hungry.

use crate::executor::{self, ExecutionMode, RunRequest};
use crate::pipeline::{IterationRecord, TuningResult};
use tuna_cloudsim::Cluster;
use tuna_optimizer::Solver;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

/// Traditional single-node sampling: one sample per suggestion, all on the
/// same worker (worker 0 of `cluster`). Run randomness follows the same
/// fork discipline as the executor (`rng.fork(hash_combine(round,
/// config_id))`).
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
            best_so_far: optimizer.best_value(),
            cumulative_samples: round + 1,
            model_error: None,
        });
    }
    baseline_result(optimizer.as_ref(), trace)
}

/// Naive distributed sampling: every suggestion runs on *all* workers;
/// the worst observation is reported (same aggregation as TUNA so the
/// §6.5.2 comparison isolates the scheduling policy). `_mode` is
/// ignored: trials run in plan order on the calling thread.
#[allow(clippy::too_many_arguments)]
pub fn run_naive_distributed(
    _mode: ExecutionMode,
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
        let (outcomes, _) = executor::execute_batch(sut, workload, &mut cluster, rng, &requests);
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
            best_so_far: optimizer.best_value(),
            cumulative_samples: total,
            model_error: None,
        });
    }
    baseline_result(optimizer.as_ref(), trace)
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
