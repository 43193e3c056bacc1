//! The TUNA pipeline (Figures 7 and 10).
//!
//! One iteration:
//!
//! 1. the optimizer suggests `(config, budget)`;
//! 2. the [`crate::scheduler::TaskScheduler`] plans new runs
//!    on nodes the config has not visited (reusing lower-budget samples);
//! 3. the [`crate::executor`] engine runs the SuT on those workers —
//!    serially or one parallel lane per worker, bit-identically;
//! 4. the [`crate::outlier::OutlierDetector`] classifies
//!    the config from all its samples;
//! 5. stable samples pass through the
//!    [`crate::adjuster::NoiseAdjuster`];
//! 6. the [`crate::aggregate::AggregationPolicy`]
//!    collapses them to one value (min);
//! 7. unstable configs get their reported performance halved;
//! 8. the optimizer is told the result.
//!
//! Configs completing the maximum budget feed the noise-adjuster training
//! set (inference happens before training, so no leakage — §6.6).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::adjuster::{AdjusterConfig, NoiseAdjuster};
use crate::aggregate::AggregationPolicy;
use crate::executor::{self, ExecStats, ExecutionMode, RunRequest};
use crate::outlier::OutlierDetector;
use crate::sample::{Sample, SampleScratch};
use crate::scheduler::TaskScheduler;
use tuna_cloudsim::Cluster;
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::{Objective, Solver};
use tuna_space::{Config, ConfigId};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

/// TUNA configuration.
#[derive(Debug, Clone)]
pub struct TunaConfig {
    /// Worker-cluster size (paper: 10, chosen for 95% detection
    /// confidence, Figure 9).
    pub cluster_size: usize,
    /// Multi-fidelity budget ladder.
    pub ladder: LadderParams,
    /// Whether the unstable-config detector is active.
    pub outlier_enabled: bool,
    /// Detector threshold.
    pub outlier_threshold: f64,
    /// Whether the noise-adjuster model is active.
    pub adjuster_enabled: bool,
    /// Aggregation policy.
    pub aggregation: AggregationPolicy,
    /// Value substituted for crashed runs (orientation-appropriate; e.g.
    /// the worst default-config p95 per §6.4).
    pub crash_penalty: f64,
    /// How each round's scheduled trials execute. Results are
    /// bit-identical across modes and worker counts (see
    /// [`crate::executor`]); parallel mode only changes wall-clock.
    pub mode: ExecutionMode,
}

impl TunaConfig {
    /// Paper-faithful defaults. The execution mode comes from the
    /// `TUNA_WORKERS` environment variable (serial when unset) — results
    /// do not depend on it.
    pub fn paper_default(crash_penalty: f64) -> Self {
        TunaConfig {
            cluster_size: 10,
            ladder: LadderParams::paper_default(),
            outlier_enabled: true,
            outlier_threshold: 0.30,
            adjuster_enabled: true,
            aggregation: AggregationPolicy::WorstCase,
            crash_penalty,
            mode: ExecutionMode::from_env(),
        }
    }
}

/// Model accuracy bookkeeping for Figure 19b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelErrorRecord {
    /// Model generation at measurement time (0 = untrained).
    pub generation: usize,
    /// Mean relative error of the raw samples vs the config's
    /// ground-truth mean.
    pub raw_rel_err: f64,
    /// Mean relative error of the adjusted samples vs the same truth.
    pub adjusted_rel_err: f64,
}

/// Per-iteration trace record.
///
/// Contains no timing data, so two traces compare bit-identical across
/// execution modes; wall-clock accounting lives in
/// [`TunaPipeline::exec_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index.
    pub round: usize,
    /// Config evaluated.
    pub config_id: ConfigId,
    /// Budget of the suggestion.
    pub budget: usize,
    /// Newly scheduled runs this iteration.
    pub new_samples: usize,
    /// Value reported to the optimizer.
    pub reported: f64,
    /// Whether the config was classified unstable.
    pub unstable: bool,
    /// Best raw metric value known to the optimizer after this round.
    pub best_so_far: Option<f64>,
    /// Total samples consumed so far.
    pub cumulative_samples: usize,
    /// Model accuracy snapshot (max-budget completions only).
    pub model_error: Option<ModelErrorRecord>,
}

/// Output of a tuning run.
///
/// Deliberately `PartialEq` and free of wall-clock data: the
/// serial-equivalence contract is that the *entire* result — trace, best
/// config, sample counts, unstable set — is bit-identical for any
/// [`ExecutionMode`].
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// Best configuration found (highest-budget tier preferred).
    pub best_config: Config,
    /// Its reported metric value.
    pub best_value: f64,
    /// Per-iteration trace.
    pub trace: Vec<IterationRecord>,
    /// Total samples consumed.
    pub total_samples: usize,
    /// Distinct configs classified unstable at least once.
    pub n_unstable_configs: usize,
    /// Distinct configs evaluated.
    pub n_configs: usize,
    /// Noise-model accuracy records (Figure 19b).
    pub model_errors: Vec<ModelErrorRecord>,
}

/// Everything the pipeline keeps about one suggested config.
#[derive(Debug, Default)]
struct ConfigState {
    /// One sample per visited worker, in schedule order.
    samples: Vec<Sample>,
    /// Classified unstable at least once.
    unstable: bool,
    /// Already fed to the noise adjuster.
    trained: bool,
}

/// Cached handles for the pipeline's fleet-wide counters, so a step
/// costs a relaxed atomic add instead of a registry lookup.
/// Observability only: counters never feed back into tuning.
struct PipelineMetrics {
    rounds: tuna_obs::Counter,
    unstable: tuna_obs::Counter,
}

fn pipeline_metrics() -> &'static PipelineMetrics {
    static METRICS: OnceLock<PipelineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tuna_obs::global();
        PipelineMetrics {
            rounds: reg.counter("tuna_pipeline_rounds_total", "tuning rounds executed"),
            unstable: reg.counter(
                "tuna_pipeline_unstable_total",
                "rounds whose config was classified unstable",
            ),
        }
    })
}

/// Empties `requests` and hands back its allocation at another
/// lifetime, so one buffer serves every step's borrowed suggestion:
/// collecting an emptied `Vec` into one of the same layout reuses it.
fn recycle<'b>(mut requests: Vec<RunRequest<'_>>) -> Vec<RunRequest<'b>> {
    requests.clear();
    requests.into_iter().map(|_| unreachable!()).collect()
}

/// The TUNA sampling pipeline.
pub struct TunaPipeline<'a> {
    config: TunaConfig,
    sut: &'a dyn SystemUnderTest,
    workload: &'a Workload,
    optimizer: Box<dyn Solver>,
    cluster: Cluster,
    scheduler: TaskScheduler,
    detector: OutlierDetector,
    adjuster: NoiseAdjuster,
    configs: BTreeMap<ConfigId, ConfigState>,
    trace: Vec<IterationRecord>,
    round: usize,
    exec: ExecStats,
    scratch: SampleScratch,
    /// The step's run requests, kept empty between steps for their
    /// allocation (see [`recycle`]).
    requests: Vec<RunRequest<'static>>,
}

impl<'a> TunaPipeline<'a> {
    /// Creates a pipeline over an optimizer and a tuning cluster.
    ///
    /// # Panics
    ///
    /// Panics if the ladder's max budget exceeds the cluster size.
    pub fn new(
        config: TunaConfig,
        sut: &'a dyn SystemUnderTest,
        workload: &'a Workload,
        optimizer: Box<dyn Solver>,
        cluster: Cluster,
    ) -> Self {
        assert!(
            config.ladder.max_budget() <= config.cluster_size,
            "max budget exceeds cluster size"
        );
        assert_eq!(cluster.size(), config.cluster_size, "cluster size mismatch");
        let scheduler = TaskScheduler::new(config.cluster_size);
        let detector = OutlierDetector::new(config.outlier_threshold);
        let mut adjuster_config = AdjusterConfig::paper_default(config.cluster_size);
        adjuster_config.forest.threads = config.mode.workers();
        let adjuster = NoiseAdjuster::new(adjuster_config);
        TunaPipeline {
            config,
            sut,
            workload,
            optimizer,
            cluster,
            scheduler,
            detector,
            adjuster,
            configs: BTreeMap::new(),
            trace: Vec::new(),
            round: 0,
            exec: ExecStats::default(),
            scratch: SampleScratch::new(),
            requests: Vec::new(),
        }
    }

    /// The optimizer's objective.
    pub fn objective(&self) -> Objective {
        self.optimizer.objective()
    }

    /// Executes one pipeline iteration.
    pub fn step(&mut self, rng: &mut Rng) {
        let suggestion = self.optimizer.ask(rng);
        let id = suggestion.config.id();
        let state = self.configs.entry(id).or_default();

        // Schedule new runs on unvisited, least-loaded workers and execute
        // them through the trial engine — one lane per worker. Run-level
        // randomness is forked per (config, machine) from the current rng
        // state rather than drawn sequentially, so serial and parallel
        // execution are bit-identical (see `crate::executor`).
        let assigned = self.scheduler.assign(id, suggestion.budget);
        let new_samples = assigned.len();
        let mut requests: Vec<RunRequest<'_>> = std::mem::take(&mut self.requests);
        requests.extend(assigned.iter().map(|&machine_idx| RunRequest {
            config: &suggestion.config,
            machine: machine_idx,
            stream: hash_combine(id.0, machine_idx as u64),
        }));
        let (outcomes, batch) = executor::execute_batch(
            self.config.mode,
            self.sut,
            self.workload,
            &mut self.cluster,
            rng,
            &requests,
        );
        if !requests.is_empty() {
            self.exec.absorb(&batch);
        }
        self.requests = recycle(requests);
        state.samples.reserve_exact(new_samples);
        for (&machine_idx, outcome) in assigned.iter().zip(outcomes) {
            let raw = if outcome.crashed {
                self.config.crash_penalty
            } else {
                outcome.value
            };
            state.samples.push(Sample::new(
                machine_idx,
                raw,
                outcome.metrics,
                outcome.crashed,
            ));
        }

        let samples = &state.samples;
        if samples.is_empty() {
            return; // Nothing to report (degenerate suggestion).
        }
        let scratch = &mut self.scratch;
        scratch.raws.clear();
        scratch.raws.extend(samples.iter().map(|s| s.raw));

        // Outlier detection over *all* samples of the config (single
        // min/max/mean pass).
        let unstable =
            self.config.outlier_enabled && self.detector.classify(&scratch.raws).is_unstable();
        state.unstable |= unstable;

        // Noise adjustment (bypassed for unstable configs and crashes).
        scratch.values.clear();
        if self.config.adjuster_enabled {
            for s in samples {
                scratch.values.push(self.adjuster.adjust(s, unstable));
            }
        } else {
            scratch.values.extend_from_slice(&scratch.raws);
        }

        // Aggregate and penalize.
        let objective = self.optimizer.objective();
        let mut reported =
            self.config
                .aggregation
                .aggregate_with(&scratch.values, objective, &mut scratch.select);
        if unstable {
            reported = self.detector.penalize(reported, objective);
        }
        self.optimizer
            .tell(&suggestion.config, reported, suggestion.budget);

        // Max-budget completions feed the model (inference above happened
        // with the pre-update model: no leakage). A config holds one
        // sample per visited worker, so its sample count is its budget.
        let mut model_error = None;
        let at_max = samples.len() >= self.config.ladder.max_budget();
        if at_max && !unstable && !state.trained {
            state.trained = true;
            let clean: Vec<&Sample> = samples.iter().filter(|s| !s.crashed).collect();
            if clean.len() >= 2 {
                // Inline mean over the clean raws (same left-to-right
                // summation as `summary::mean`, without the collect).
                let truth = clean.iter().map(|s| s.raw).sum::<f64>() / clean.len() as f64;
                if truth != 0.0 {
                    let raw_rel_err = clean
                        .iter()
                        .map(|s| (s.raw - truth).abs() / truth.abs())
                        .sum::<f64>()
                        / clean.len() as f64;
                    let adjusted_rel_err = clean
                        .iter()
                        .map(|s| (self.adjuster.adjust(s, false) - truth).abs() / truth.abs())
                        .sum::<f64>()
                        / clean.len() as f64;
                    model_error = Some(ModelErrorRecord {
                        generation: self.adjuster.generations(),
                        raw_rel_err,
                        adjusted_rel_err,
                    });
                }
            }
            if self.config.adjuster_enabled {
                self.adjuster.train_on_config(samples, rng);
            }
        }

        self.round += 1;
        let metrics = pipeline_metrics();
        metrics.rounds.inc();
        if unstable {
            metrics.unstable.inc();
        }
        self.trace.push(IterationRecord {
            round: self.round,
            config_id: id,
            budget: suggestion.budget,
            new_samples,
            reported,
            unstable,
            best_so_far: self.optimizer.best_value(),
            cumulative_samples: self.scheduler.total_assigned() as usize,
            model_error,
        });
    }

    /// Runs `rounds` iterations.
    pub fn run_rounds(&mut self, rounds: usize, rng: &mut Rng) {
        for _ in 0..rounds {
            self.step(rng);
        }
    }

    /// Runs until at least `sample_budget` samples have been consumed
    /// (the §6.5 equal-cost basis), with a hard iteration cap.
    pub fn run_until_samples(&mut self, sample_budget: usize, rng: &mut Rng) {
        let cap = sample_budget * 4 + 100;
        let mut iters = 0;
        while (self.scheduler.total_assigned() as usize) < sample_budget && iters < cap {
            self.step(rng);
            iters += 1;
        }
    }

    /// Finalizes the run.
    ///
    /// # Panics
    ///
    /// Panics if no iterations were executed.
    pub fn finish(self) -> TuningResult {
        let (best_config, best_value) = self
            .optimizer
            .best()
            .expect("finish() before any iteration");
        let n_unstable = self.configs.values().filter(|c| c.unstable).count();
        let model_errors = self
            .trace
            .iter()
            .filter_map(|r| r.model_error)
            .collect::<Vec<_>>();
        TuningResult {
            best_config,
            best_value,
            total_samples: self.scheduler.total_assigned() as usize,
            n_unstable_configs: n_unstable,
            n_configs: self.configs.len(),
            model_errors,
            trace: self.trace,
        }
    }

    /// The tuning cluster (for post-run inspection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Cumulative trial-execution accounting (lane busy time, wall-clock,
    /// critical path). Kept out of [`TuningResult`] so results stay
    /// bit-comparable across execution modes.
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_cloudsim::{Region, VmSku};
    use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
    use tuna_sut::postgres::Postgres;

    #[test]
    fn recycle_keeps_the_allocation() {
        let config = Postgres::new().default_config();
        let requests = vec![
            RunRequest {
                config: &config,
                machine: 0,
                stream: 0,
            };
            5
        ];
        let (ptr, capacity) = (requests.as_ptr() as usize, requests.capacity());
        let recycled: Vec<RunRequest<'static>> = recycle(requests);
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), capacity);
        assert_eq!(recycled.as_ptr() as usize, ptr);
    }

    fn quick_pipeline<'a>(pg: &'a Postgres, workload: &'a Workload, seed: u64) -> TunaPipeline<'a> {
        let cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), seed);
        let optimizer = SmacOptimizer::multi_fidelity(
            pg.space().clone(),
            Objective::Maximize,
            SmacParams {
                n_init: 5,
                n_random_candidates: 40,
                ..SmacParams::default()
            },
            LadderParams::paper_default(),
        );
        TunaPipeline::new(
            TunaConfig::paper_default(1.0),
            pg,
            workload,
            Box::new(optimizer),
            cluster,
        )
    }

    #[test]
    fn pipeline_runs_and_produces_result() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut p = quick_pipeline(&pg, &w, 1);
        let mut rng = Rng::seed_from(2);
        p.run_rounds(40, &mut rng);
        let result = p.finish();
        assert_eq!(result.trace.len(), 40);
        assert!(result.total_samples >= 40);
        assert!(result.best_value > 300.0, "best {}", result.best_value);
        assert!(result.n_configs > 5);
    }

    #[test]
    fn budgets_follow_ladder_and_reuse_samples() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut p = quick_pipeline(&pg, &w, 3);
        let mut rng = Rng::seed_from(4);
        p.run_rounds(80, &mut rng);
        let result = p.finish();
        // Promotions happened.
        assert!(result.trace.iter().any(|r| r.budget == 3));
        // A budget-3 re-evaluation of a config sampled at budget 1 adds at
        // most 2 new samples.
        for r in result.trace.iter().filter(|r| r.budget == 3) {
            assert!(r.new_samples <= 2, "budget-3 round took {}", r.new_samples);
        }
        for r in result.trace.iter().filter(|r| r.budget == 10) {
            assert!(r.new_samples <= 7);
        }
    }

    #[test]
    fn run_until_samples_respects_budget() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut p = quick_pipeline(&pg, &w, 5);
        let mut rng = Rng::seed_from(6);
        p.run_until_samples(60, &mut rng);
        let result = p.finish();
        assert!(result.total_samples >= 60);
        assert!(
            result.total_samples < 90,
            "overshot: {}",
            result.total_samples
        );
    }

    #[test]
    fn unstable_configs_detected_under_plan_sensitive_workload() {
        // TPC-C's planner tie zone should surface unstable configs during
        // search; individual seeds can get lucky, so pool a few runs.
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut total_unstable = 0;
        for seed in [7u64, 8, 9] {
            let mut p = quick_pipeline(&pg, &w, seed);
            let mut rng = Rng::seed_from(seed + 1);
            p.run_rounds(150, &mut rng);
            total_unstable += p.finish().n_unstable_configs;
        }
        assert!(total_unstable > 0, "no unstable configs across 3 runs");
    }

    #[test]
    fn model_errors_recorded_at_max_budget() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let mut p = quick_pipeline(&pg, &w, 9);
        let mut rng = Rng::seed_from(10);
        p.run_rounds(150, &mut rng);
        let result = p.finish();
        assert!(
            !result.model_errors.is_empty(),
            "no configs completed max budget"
        );
        for rec in &result.model_errors {
            assert!(rec.raw_rel_err >= 0.0 && rec.raw_rel_err < 1.0);
            assert!(rec.adjusted_rel_err >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "max budget exceeds cluster size")]
    fn oversized_ladder_rejected() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let cluster = Cluster::new(5, VmSku::d8s_v5(), Region::westus2(), 1);
        let optimizer = SmacOptimizer::new(
            pg.space().clone(),
            Objective::Maximize,
            SmacParams::default(),
        );
        let mut cfg = TunaConfig::paper_default(1.0);
        cfg.cluster_size = 5;
        TunaPipeline::new(cfg, &pg, &w, Box::new(optimizer), cluster);
    }
}
