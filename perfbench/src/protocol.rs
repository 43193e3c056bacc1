//! A traced reconstruction of `Experiment::run`, built from the public
//! pieces it is made of (`default_worst_case_with`, `TunaPipeline`, the
//! baselines and `evaluate_deployment_with`) with the traced solver and
//! SuT plugged in. The workloads check that it matches `Experiment::run`
//! bit for bit.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use tuna_cloudsim::Cluster;
use tuna_core::baselines::{run_naive_distributed, run_traditional};
use tuna_core::campaign::CellRow;
use tuna_core::deploy::{default_worst_case_with, evaluate_deployment_with};
use tuna_core::executor::ExecStats;
use tuna_core::experiment::{Experiment, Method, RunSummary, SolverId};
use tuna_core::pipeline::{IterationRecord, TunaConfig, TunaPipeline};
use tuna_optimizer::multifidelity::MultiFidelityOptimizer;
use tuna_optimizer::smac::SmacProposer;
use tuna_optimizer::Solver;
use tuna_space::ConfigSpace;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::SystemUnderTest;

use crate::trace::{
    self, span, Captured, Layer, SutCounters, SutRun, TracedProposer, TracedSolver, TracedSut,
};
use crate::Outcome;

/// Capture one in this many surrogate-eligible histories for the replay.
const CAPTURE_EVERY: usize = 4;

/// What a TUNA pipeline fed its noise adjuster: every SuT run of the
/// tuning phase and the per-round trace that says how each was used.
#[derive(Debug)]
pub struct TuningCapture {
    pub runs: Vec<SutRun>,
    pub trace: Vec<IterationRecord>,
    pub crash_penalty: f64,
    pub config: TunaConfig,
}

/// Shared sinks of the traced seams across runs and threads.
#[derive(Debug, Default)]
pub struct Probes {
    pub sut: Arc<SutCounters>,
    pub captured: Arc<Captured>,
    /// `TunaPipeline::exec_stats` summed over TUNA pipelines.
    pub exec: Mutex<ExecStats>,
    /// Whether TUNA runs keep a [`TuningCapture`] in `tuning`.
    pub capture_tuning: bool,
    pub tuning: Mutex<Vec<TuningCapture>>,
}

impl Probes {
    /// Reports the layers the reconstruction exercises — the solver seam,
    /// the SuT and executor counters, pipeline, deployment and baselines —
    /// and checks the self times: each non-negative, all summing to at
    /// most `thread_wall_ns` (the traced wall times the threads that open
    /// spans). The executor's wall moves out of the pipeline's self time.
    pub fn report(
        &self,
        out: &mut Outcome,
        layers: &BTreeMap<&'static str, Layer>,
        thread_wall_ns: u64,
    ) {
        let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
        let ask = get("optimizer.ask");
        out.set("optimizer.ask.calls", ask.calls as f64);
        out.set("optimizer.ask.busy_s", ask.busy_s());
        out.set("optimizer.tell.busy_s", get("optimizer.tell").busy_s());
        out.set(
            "sut.run.calls",
            self.sut.calls.load(Ordering::Relaxed) as f64,
        );
        out.set(
            "sut.run.busy_s",
            self.sut.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        );
        let exec = *self.exec.lock().expect("exec stats poisoned");
        let exec_wall_s = exec.wall_nanos as f64 / 1e9;
        out.set("core.executor.batches", exec.batches as f64);
        out.set("core.executor.wall_s", exec_wall_s);
        out.set("core.executor.busy_s", exec.busy_nanos as f64 / 1e9);
        out.set("core.executor.speedup", exec.speedup());
        let pipeline_self = get("core.pipeline").self_s() - exec_wall_s;
        out.set("core.pipeline.self_s", pipeline_self);
        out.set("core.deploy.busy_s", get("core.deploy").busy_s());
        out.set(
            "core.baselines.traditional_s",
            get("core.baselines.traditional").busy_s(),
        );

        for (name, layer) in layers {
            let s = if *name == "core.pipeline" {
                pipeline_self
            } else {
                layer.self_s()
            };
            out.check(s >= 0.0, format!("layer {name} has negative self time {s}"));
        }
        trace::check_self_sum(out, layers.values(), thread_wall_ns);
    }
}

fn traced_solver(
    exp: &Experiment,
    space: &ConfigSpace,
    multi_fidelity: bool,
    probes: &Probes,
) -> Box<dyn Solver> {
    let params = exp.solver_params(multi_fidelity);
    // SMAC is rebuilt around the proposer seam exactly as the registry
    // builds it; every other solver comes from the registry itself.
    let inner: Box<dyn Solver> = if exp.optimizer == SolverId::smac() {
        Box::new(MultiFidelityOptimizer::with_proposer(
            space.clone(),
            exp.objective(),
            params.ladder.clone(),
            TracedProposer::new(
                SmacProposer::new(params.smac.clone()),
                params.smac.n_init,
                CAPTURE_EVERY,
                Arc::clone(&probes.captured),
            ),
        ))
    } else {
        exp.optimizer.build(space.clone(), exp.objective(), &params)
    };
    Box::new(TracedSolver::new(inner))
}

/// `Experiment::run(method, seed)`, traced, for the methods the benchmark
/// runs.
pub fn run_traced(exp: &Experiment, method: Method, seed: u64, probes: &Probes) -> RunSummary {
    let _run = span("experiment.run");
    let mut sut = TracedSut::new(exp.make_sut(), Arc::clone(&probes.sut));
    if probes.capture_tuning && matches!(method, Method::Tuna) {
        sut = sut.capturing();
    }
    let base_cluster = Cluster::new(
        exp.cluster_size,
        exp.sku.clone(),
        exp.region.clone(),
        hash_combine(seed, 0xE0_0001),
    );
    let mut rng = Rng::seed_from(hash_combine(seed, 0xE0_0002));
    let crash_penalty = {
        let _s = span("core.deploy");
        default_worst_case_with(exp.exec, &sut, &exp.workload, &base_cluster, &rng)
    };

    let (best_config, tuning) = match method {
        Method::DefaultConfig => (sut.default_config(), None),
        Method::Tuna => {
            let _s = span("core.pipeline");
            let mut cfg = TunaConfig::paper_default(crash_penalty);
            cfg.cluster_size = exp.cluster_size;
            cfg.mode = exp.exec;
            let optimizer = traced_solver(exp, sut.space(), true, probes);
            // Drop the worst-case probe's runs: only tuning runs feed
            // the adjuster.
            sut.take_runs();
            let mut pipeline = TunaPipeline::new(
                cfg.clone(),
                &sut,
                &exp.workload,
                optimizer,
                base_cluster.clone(),
            );
            pipeline.run_until_samples(exp.rounds * exp.cluster_size, &mut rng);
            let stats = *pipeline.exec_stats();
            let mut total = probes.exec.lock().expect("exec stats poisoned");
            total.batches += stats.batches;
            total.runs += stats.runs;
            total.wall_nanos += stats.wall_nanos;
            total.busy_nanos += stats.busy_nanos;
            total.critical_nanos += stats.critical_nanos;
            drop(total);
            let result = pipeline.finish();
            if probes.capture_tuning {
                probes
                    .tuning
                    .lock()
                    .expect("tuning captures poisoned")
                    .push(TuningCapture {
                        runs: sut.take_runs(),
                        trace: result.trace.clone(),
                        crash_penalty,
                        config: cfg,
                    });
            }
            (result.best_config.clone(), Some(result))
        }
        Method::Traditional => {
            let _s = span("core.baselines.traditional");
            let optimizer = traced_solver(exp, sut.space(), false, probes);
            let result = run_traditional(
                &sut,
                &exp.workload,
                optimizer,
                base_cluster.clone(),
                exp.rounds,
                crash_penalty,
                &mut rng,
            );
            (result.best_config.clone(), Some(result))
        }
        Method::NaiveDistributed { samples } => {
            let _s = span("core.baselines.naive");
            let optimizer = traced_solver(exp, sut.space(), false, probes);
            let result = run_naive_distributed(
                exp.exec,
                &sut,
                &exp.workload,
                optimizer,
                base_cluster.clone(),
                samples,
                crash_penalty,
                &mut rng,
            );
            (result.best_config.clone(), Some(result))
        }
        Method::TunaNoOutlier | Method::TunaNoAdjuster | Method::TraditionalExtended { .. } => {
            unreachable!("not used by the benchmark")
        }
    };

    let deployment = {
        let _s = span("core.deploy");
        evaluate_deployment_with(
            exp.exec,
            &sut,
            &exp.workload,
            &best_config,
            &base_cluster,
            hash_combine(seed, 0xD3_0003),
            exp.deploy_vms,
            exp.deploy_repeats,
            crash_penalty,
            &rng,
        )
    };

    RunSummary {
        method: method.name(),
        best_config,
        tuning,
        deployment,
    }
}

/// The bit-level fingerprint of a run: trace, best config and deployment
/// values. `Debug` prints every float in its shortest round-trip form, so
/// equal strings mean bit-identical values (NaN included).
pub fn fingerprint(run: &RunSummary) -> String {
    let bits: Vec<u64> = run.deployment.values.iter().map(|v| v.to_bits()).collect();
    format!(
        "{}|{:?}|{:?}|{:?}|{}",
        run.method, run.best_config, run.tuning, bits, run.deployment.crashes
    )
}

/// The campaign store row of a protocol cell (what the campaign engine
/// records for a `RunSummary`).
pub fn cell_row(label: &str, seed: u64, run: &RunSummary) -> CellRow {
    CellRow {
        label: label.to_string(),
        seed,
        samples: run.tuning.as_ref().map_or(0, |t| t.total_samples as u64),
        best: run.tuning.as_ref().map(|t| t.best_value),
        mean: Some(run.deployment.mean),
        std: Some(run.deployment.std),
        min: Some(run.deployment.five.min),
        max: Some(run.deployment.five.max),
        crashes: Some(run.deployment.crashes as u64),
    }
}
