//! End-to-end experiment orchestration (the §6 protocol).
//!
//! An [`Experiment`] fixes the workload, SKU, region and budgets. Every
//! study in the evaluation is one tune-then-deploy protocol, so one
//! driver runs them all: a [`RunPlan`] names the seed labels, optional
//! cluster-shape and region overrides, the [`Tuner`]s to run in order on
//! one RNG stream, and whether to deploy the winner on fresh VMs;
//! [`Experiment::execute`] runs SuT → base cluster → crash penalty →
//! tuners → deployment. [`Experiment::run`] lowers a [`Method`] to a
//! plan, as the campaign recipes and Figure 19 lower theirs.

use crate::aggregate::AggregationPolicy;
use crate::baselines::{run_arena, run_naive_distributed, run_traditional};
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
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

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

/// A tuning-cluster shape override: size plus the budget ladder that
/// fits it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterShape {
    /// Worker-cluster size.
    pub size: usize,
    /// Budget ladder whose max rung fits the cluster.
    pub ladder: LadderParams,
}

/// The [`TunaConfig`] changes a TUNA tuner makes to the paper defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TunaTweaks {
    /// Drops the unstable-config detector (Figure 20).
    pub without_outlier: bool,
    /// Drops the noise-adjuster model (Figure 19).
    pub without_adjuster: bool,
    /// Aggregation-policy override (§4.4 ablation).
    pub aggregation: Option<AggregationPolicy>,
    /// Outlier-threshold override (§4.2 ablation).
    pub outlier_threshold: Option<f64>,
}

/// One tuner of a [`RunPlan`]. Each starts from the plan's base cluster
/// and draws from the plan's single RNG stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Tuner {
    /// The TUNA pipeline on a multi-fidelity `solver`.
    Tuna {
        /// Config changes from the paper defaults.
        tweaks: TunaTweaks,
        /// Solver registry name.
        solver: SolverId,
        /// Total sample budget (`run_until_samples`).
        samples: usize,
    },
    /// Single-node sequential sampling with [`Experiment::optimizer`],
    /// one sample per suggestion for this many samples.
    Traditional(usize),
    /// Every config on every node with [`Experiment::optimizer`], within
    /// this total sample budget.
    NaiveDistributed(usize),
    /// Head-to-head arena sampling on a one-machine match cluster.
    Arena {
        /// Solver registry name.
        solver: SolverId,
        /// Total sample budget.
        samples: usize,
        /// Seed of the match cluster.
        match_seed: u64,
    },
}

/// One tune-then-deploy run as data: the seeds, the overrides and the
/// tuners. Studies migrated from pre-campaign binaries keep their
/// historical seed derivations by naming them here.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Seed of the base cluster every tuner starts from.
    pub cluster_seed: u64,
    /// Seed of the one RNG stream the tuners share.
    pub rng_seed: u64,
    /// Deployment derivation label, or `None` to skip deployment.
    pub deploy_label: Option<u64>,
    /// Cluster-shape override (else [`Experiment::cluster_size`] and the
    /// paper ladder).
    pub cluster: Option<ClusterShape>,
    /// Region override (else [`Experiment::region`]).
    pub region: Option<Region>,
    /// Tuners, run in order; none deploys the vendor default.
    pub tuners: Vec<Tuner>,
}

impl RunPlan {
    /// A plan with no overrides.
    pub fn new(
        cluster_seed: u64,
        rng_seed: u64,
        deploy_label: Option<u64>,
        tuners: Vec<Tuner>,
    ) -> Self {
        RunPlan {
            cluster_seed,
            rng_seed,
            deploy_label,
            cluster: None,
            region: None,
            tuners,
        }
    }
}

/// What [`Experiment::execute`] returns.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The last tuner's best config, or the default with no tuners.
    pub best_config: Config,
    /// One result per tuner, in plan order.
    pub tunings: Vec<TuningResult>,
    /// Deployment of `best_config`, if the plan deploys.
    pub deployment: Option<DeployStats>,
}

impl PlanOutcome {
    /// The outcome as a [`RunSummary`] labelled `method`, carrying the
    /// last tuner's result.
    ///
    /// # Panics
    ///
    /// Panics if the plan did not deploy.
    pub fn into_summary(mut self, method: &'static str) -> RunSummary {
        RunSummary {
            method,
            best_config: self.best_config,
            tuning: self.tunings.pop(),
            deployment: self.deployment.expect("the plan deploys its winner"),
        }
    }
}

/// The optimization direction of a workload's metric.
pub fn objective_for(workload: &Workload) -> Objective {
    if workload.metric.higher_is_better() {
        Objective::Maximize
    } else {
        Objective::Minimize
    }
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
        tuna_sut::for_target(self.workload.target)
    }

    /// The optimization direction of the workload metric.
    pub fn objective(&self) -> Objective {
        objective_for(&self.workload)
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

    /// Runs one tuning run + deployment for `method` with a given seed.
    pub fn run(&self, method: Method, seed: u64) -> RunSummary {
        self.execute(&self.plan(method, seed))
            .into_summary(method.name())
    }

    /// The plan [`Experiment::run`] executes for `method` and `seed`.
    pub(crate) fn plan(&self, method: Method, seed: u64) -> RunPlan {
        let tuna = |tweaks| {
            vec![Tuner::Tuna {
                tweaks,
                solver: self.optimizer.clone(),
                // Equal-time basis (§6): in each 5-minute slot the
                // scheduler keeps all workers busy, so TUNA consumes up to
                // cluster_size samples per slot while traditional takes
                // one.
                samples: self.rounds * self.cluster_size,
            }]
        };
        let tuners = match method {
            Method::Tuna => tuna(TunaTweaks::default()),
            Method::TunaNoOutlier => tuna(TunaTweaks {
                without_outlier: true,
                ..TunaTweaks::default()
            }),
            Method::TunaNoAdjuster => tuna(TunaTweaks {
                without_adjuster: true,
                ..TunaTweaks::default()
            }),
            Method::Traditional => vec![Tuner::Traditional(self.rounds)],
            Method::TraditionalExtended { samples } => vec![Tuner::Traditional(samples)],
            Method::NaiveDistributed { samples } => vec![Tuner::NaiveDistributed(samples)],
            Method::DefaultConfig => Vec::new(),
        };
        RunPlan::new(
            hash_combine(seed, 0xE0_0001),
            hash_combine(seed, 0xE0_0002),
            Some(hash_combine(seed, 0xD3_0003)),
            tuners,
        )
    }

    /// Executes `plan`: builds the SuT and the base cluster, derives the
    /// crash penalty from the default config on it, runs the tuners in
    /// order on one RNG stream, then deploys the winner if the plan says
    /// so.
    pub fn execute(&self, plan: &RunPlan) -> PlanOutcome {
        let sut = self.make_sut();
        let region = plan.region.as_ref().unwrap_or(&self.region);
        let cluster_size = plan.cluster.as_ref().map_or(self.cluster_size, |c| c.size);
        let base = Cluster::new(
            cluster_size,
            self.sku.clone(),
            region.clone(),
            plan.cluster_seed,
        );
        let mut rng = Rng::seed_from(plan.rng_seed);
        let crash_penalty =
            default_worst_case_with(self.exec, sut.as_ref(), &self.workload, &base, &rng);
        let (sut, workload) = (sut.as_ref(), &self.workload);

        let tunings: Vec<TuningResult> = plan
            .tuners
            .iter()
            .map(|tuner| match tuner {
                Tuner::Tuna {
                    tweaks,
                    solver,
                    samples,
                } => {
                    let mut cfg = TunaConfig::paper_default(crash_penalty);
                    cfg.outlier_enabled = !tweaks.without_outlier;
                    cfg.adjuster_enabled = !tweaks.without_adjuster;
                    if let Some(aggregation) = tweaks.aggregation {
                        cfg.aggregation = aggregation;
                    }
                    if let Some(threshold) = tweaks.outlier_threshold {
                        cfg.outlier_threshold = threshold;
                    }
                    cfg.cluster_size = cluster_size;
                    cfg.mode = self.exec;
                    let mut params = self.solver_params(true);
                    if let Some(shape) = &plan.cluster {
                        cfg.ladder = shape.ladder.clone();
                        params.ladder = shape.ladder.clone();
                    }
                    let optimizer = solver.build(sut.space().clone(), self.objective(), &params);
                    let mut pipeline =
                        TunaPipeline::new(cfg, sut, workload, optimizer, base.clone());
                    pipeline.run_until_samples(*samples, &mut rng);
                    pipeline.finish()
                }
                Tuner::Traditional(samples) => run_traditional(
                    sut,
                    workload,
                    self.baseline_solver(&self.optimizer, sut),
                    base.clone(),
                    *samples,
                    crash_penalty,
                    &mut rng,
                ),
                Tuner::NaiveDistributed(samples) => run_naive_distributed(
                    self.exec,
                    sut,
                    workload,
                    self.baseline_solver(&self.optimizer, sut),
                    base.clone(),
                    *samples,
                    crash_penalty,
                    &mut rng,
                ),
                Tuner::Arena {
                    solver,
                    samples,
                    match_seed,
                } => {
                    // Matches play on one machine so both sides share its
                    // noise draw.
                    let arena = Cluster::new(1, self.sku.clone(), region.clone(), *match_seed);
                    run_arena(
                        sut,
                        workload,
                        self.baseline_solver(solver, sut),
                        arena,
                        *samples,
                        solver.capabilities().match_size,
                        crash_penalty,
                        &mut rng,
                    )
                }
            })
            .collect();

        let best_config = tunings
            .last()
            .map_or_else(|| sut.default_config(), |t| t.best_config.clone());
        let deployment = plan.deploy_label.map(|label| {
            evaluate_deployment_with(
                self.exec,
                sut,
                workload,
                &best_config,
                &base,
                label,
                self.deploy_vms,
                self.deploy_repeats,
                crash_penalty,
                &rng,
            )
        });
        PlanOutcome {
            best_config,
            tunings,
            deployment,
        }
    }

    /// A single-fidelity `solver` for the baseline tuners.
    fn baseline_solver(&self, solver: &SolverId, sut: &dyn SystemUnderTest) -> Box<dyn Solver> {
        solver.build(
            sut.space().clone(),
            self.objective(),
            &self.solver_params(false),
        )
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
