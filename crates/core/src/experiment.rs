//! End-to-end experiment orchestration (the §6 protocol).
//!
//! An [`Experiment`] fixes the workload, SKU, region and budgets; a
//! [`Method`] picks the sampling methodology. `run` tunes, then deploys
//! the best config on fresh VMs and reports the deployment distribution —
//! exactly how every figure in the paper's evaluation is produced.

use crate::baselines::{run_naive_distributed, run_traditional};
use crate::deploy::{default_worst_case_with, evaluate_deployment_with, DeployStats};
use crate::executor::ExecutionMode;
use crate::pipeline::{TunaConfig, TunaPipeline, TuningResult};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_optimizer::gp_opt::GpParams;
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::smac::SmacParams;
use tuna_optimizer::solver::SolverParams;
use tuna_optimizer::{Objective, Solver};
use tuna_space::Config;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::nginx::Nginx;
use tuna_sut::postgres::Postgres;
use tuna_sut::redis::Redis;
use tuna_sut::SystemUnderTest;
use tuna_workloads::{TargetSystem, Workload};

/// Solvers are named declaratively: arms carry a [`SolverId`] resolved
/// against the string-keyed registry in `tuna_optimizer::solver` instead
/// of a hand-numbered enum of concrete types.
pub use tuna_optimizer::solver::SolverId;

/// Sampling methodology under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full TUNA.
    Tuna,
    /// TUNA without the unstable-config detector (Figure 20).
    TunaNoOutlier,
    /// TUNA without the noise-adjuster model (Figure 19).
    TunaNoAdjuster,
    /// Traditional single-node sequential sampling.
    Traditional,
    /// Traditional with an explicit (larger) sample budget (§6.5.1).
    TraditionalExtended {
        /// Total samples granted.
        samples: usize,
    },
    /// Every config on every node, min aggregation (§6.5.2).
    NaiveDistributed {
        /// Total samples granted.
        samples: usize,
    },
    /// No tuning: deploy the vendor default.
    DefaultConfig,
}

impl Method {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Tuna => "TUNA",
            Method::TunaNoOutlier => "TUNA w/o outlier detector",
            Method::TunaNoAdjuster => "TUNA w/o noise adjuster",
            Method::Traditional => "Traditional",
            Method::TraditionalExtended { .. } => "Traditional (equal cost)",
            Method::NaiveDistributed { .. } => "Naive distributed",
            Method::DefaultConfig => "Default",
        }
    }
}

/// A fully specified experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The workload (determines the SuT).
    pub workload: Workload,
    /// Worker SKU.
    pub sku: VmSku,
    /// Region.
    pub region: Region,
    /// Tuning rounds on the equal-time basis (one suggestion per round;
    /// the paper's 8 hours of 5-minute evaluations ≈ 96).
    pub rounds: usize,
    /// Tuning-cluster size.
    pub cluster_size: usize,
    /// Deployment VMs.
    pub deploy_vms: usize,
    /// Measurement epochs per deployment VM.
    pub deploy_repeats: usize,
    /// Solver registry name driving the search.
    pub optimizer: SolverId,
    /// SMAC hyperparameters.
    pub smac: SmacParams,
    /// GP hyperparameters.
    pub gp: GpParams,
    /// Trial execution mode (tuning batches, naive-distributed rounds and
    /// deployment evaluation). Results are bit-identical across modes —
    /// this knob only trades wall-clock for threads.
    pub exec: ExecutionMode,
}

/// One tuning-plus-deployment outcome.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Methodology name.
    pub method: &'static str,
    /// Best config found (or the default).
    pub best_config: Config,
    /// Tuning trace (absent for [`Method::DefaultConfig`]).
    pub tuning: Option<TuningResult>,
    /// Deployment distribution on fresh VMs.
    pub deployment: DeployStats,
}

impl Experiment {
    /// Paper-faithful experiment for a workload: D8s_v5 in westus2,
    /// 96 rounds, 10-worker cluster, deploy on 10 fresh VMs.
    pub fn paper_default(workload: Workload) -> Self {
        Experiment {
            workload,
            sku: VmSku::d8s_v5(),
            region: Region::westus2(),
            rounds: 96,
            cluster_size: 10,
            deploy_vms: 10,
            deploy_repeats: 3,
            optimizer: SolverId::smac(),
            smac: SmacParams {
                n_init: 10,
                n_random_candidates: 100,
                ..SmacParams::default()
            },
            gp: GpParams::default(),
            exec: ExecutionMode::from_env(),
        }
    }

    /// A small, fast experiment for demos and tests.
    pub fn quick_demo() -> Self {
        Experiment {
            rounds: 25,
            deploy_vms: 5,
            deploy_repeats: 2,
            smac: SmacParams {
                n_init: 5,
                n_random_candidates: 30,
                n_neighbors: 4,
                ..SmacParams::default()
            },
            ..Self::paper_default(tuna_workloads::tpcc())
        }
    }

    /// Builds the SuT matching the workload's target system.
    pub fn make_sut(&self) -> Box<dyn SystemUnderTest> {
        match self.workload.target {
            TargetSystem::Postgres => Box::new(Postgres::new()),
            TargetSystem::Redis => Box::new(Redis::new()),
            TargetSystem::Nginx => Box::new(Nginx::new()),
        }
    }

    /// The optimization direction of the workload metric.
    pub fn objective(&self) -> Objective {
        if self.workload.metric.higher_is_better() {
            Objective::Maximize
        } else {
            Objective::Minimize
        }
    }

    /// The [`SolverParams`] this experiment hands to registry builders.
    /// The SMAC surrogate grows its trees on [`Experiment::exec`]'s
    /// threads, which leaves every result bit unchanged.
    pub fn solver_params(&self, multi_fidelity: bool) -> SolverParams {
        let ladder = if multi_fidelity {
            LadderParams::paper_default()
        } else {
            LadderParams::single()
        };
        let mut smac = self.smac.clone();
        smac.forest.threads = self.exec.workers();
        SolverParams {
            ladder,
            smac,
            gp: self.gp.clone(),
            ..SolverParams::default()
        }
    }

    fn make_optimizer(
        &self,
        space: &tuna_space::ConfigSpace,
        multi_fidelity: bool,
    ) -> Box<dyn Solver> {
        let params = self.solver_params(multi_fidelity);
        self.optimizer
            .build(space.clone(), self.objective(), &params)
    }

    /// Runs one tuning run + deployment for `method` with a given seed.
    pub fn run(&self, method: Method, seed: u64) -> RunSummary {
        let sut = self.make_sut();
        let base_cluster = Cluster::new(
            self.cluster_size,
            self.sku.clone(),
            self.region.clone(),
            hash_combine(seed, 0xE0_0001),
        );
        let mut rng = Rng::seed_from(hash_combine(seed, 0xE0_0002));
        let crash_penalty =
            default_worst_case_with(self.exec, sut.as_ref(), &self.workload, &base_cluster, &rng);

        let (best_config, tuning) = match method {
            Method::DefaultConfig => (sut.default_config(), None),
            Method::Tuna | Method::TunaNoOutlier | Method::TunaNoAdjuster => {
                let mut cfg = match method {
                    Method::TunaNoOutlier => TunaConfig::without_outlier(crash_penalty),
                    Method::TunaNoAdjuster => TunaConfig::without_adjuster(crash_penalty),
                    _ => TunaConfig::paper_default(crash_penalty),
                };
                cfg.cluster_size = self.cluster_size;
                cfg.mode = self.exec;
                let optimizer = self.make_optimizer(sut.space(), true);
                let mut pipeline = TunaPipeline::new(
                    cfg,
                    sut.as_ref(),
                    &self.workload,
                    optimizer,
                    base_cluster.clone(),
                );
                // Equal-time basis (§6): in each 5-minute slot the
                // scheduler keeps all workers busy, so TUNA consumes up to
                // cluster_size samples per slot while traditional takes
                // one. (§6.5's equal-cost comparisons call the pipeline
                // with an explicit sample budget instead.)
                pipeline.run_until_samples(self.rounds * self.cluster_size, &mut rng);
                let result = pipeline.finish();
                (result.best_config.clone(), Some(result))
            }
            Method::Traditional => {
                let optimizer = self.make_optimizer(sut.space(), false);
                let result = run_traditional(
                    sut.as_ref(),
                    &self.workload,
                    optimizer,
                    base_cluster.clone(),
                    self.rounds,
                    crash_penalty,
                    &mut rng,
                );
                (result.best_config.clone(), Some(result))
            }
            Method::TraditionalExtended { samples } => {
                let optimizer = self.make_optimizer(sut.space(), false);
                let result = run_traditional(
                    sut.as_ref(),
                    &self.workload,
                    optimizer,
                    base_cluster.clone(),
                    samples,
                    crash_penalty,
                    &mut rng,
                );
                (result.best_config.clone(), Some(result))
            }
            Method::NaiveDistributed { samples } => {
                let optimizer = self.make_optimizer(sut.space(), false);
                let result = run_naive_distributed(
                    self.exec,
                    sut.as_ref(),
                    &self.workload,
                    optimizer,
                    base_cluster.clone(),
                    samples,
                    crash_penalty,
                    &mut rng,
                );
                (result.best_config.clone(), Some(result))
            }
        };

        let deployment = evaluate_deployment_with(
            self.exec,
            sut.as_ref(),
            &self.workload,
            &best_config,
            &base_cluster,
            hash_combine(seed, 0xD3_0003),
            self.deploy_vms,
            self.deploy_repeats,
            crash_penalty,
            &rng,
        );

        RunSummary {
            method: method.name(),
            best_config,
            tuning,
            deployment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_demo_tuna_beats_default_deployment() {
        let exp = Experiment::quick_demo();
        let tuna = exp.run(Method::Tuna, 1);
        let default = exp.run(Method::DefaultConfig, 1);
        assert!(
            tuna.deployment.mean > default.deployment.mean,
            "TUNA {} vs default {}",
            tuna.deployment.mean,
            default.deployment.mean
        );
        assert!(tuna.tuning.is_some());
        assert!(default.tuning.is_none());
    }

    #[test]
    fn methods_have_distinct_names() {
        let names = [
            Method::Tuna.name(),
            Method::TunaNoOutlier.name(),
            Method::TunaNoAdjuster.name(),
            Method::Traditional.name(),
            Method::TraditionalExtended { samples: 1 }.name(),
            Method::NaiveDistributed { samples: 1 }.name(),
            Method::DefaultConfig.name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn traditional_runs_and_deploys() {
        let exp = Experiment::quick_demo();
        let t = exp.run(Method::Traditional, 2);
        let tuning = t.tuning.unwrap();
        assert_eq!(tuning.total_samples, exp.rounds);
        assert!(t.deployment.mean > 0.0);
    }

    #[test]
    fn run_varies_with_seed() {
        let exp = Experiment::quick_demo();
        let a = exp.run(Method::DefaultConfig, hash_combine(7, 0));
        let b = exp.run(Method::DefaultConfig, hash_combine(7, 1));
        assert_ne!(a.deployment.values, b.deployment.values);
    }

    #[test]
    fn objective_follows_metric() {
        let tpcc = Experiment::paper_default(tuna_workloads::tpcc());
        assert_eq!(tpcc.objective(), Objective::Maximize);
        let tpch = Experiment::paper_default(tuna_workloads::tpch());
        assert_eq!(tpch.objective(), Objective::Minimize);
    }
}
