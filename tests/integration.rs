//! Cross-crate integration tests: the full TUNA stack end to end.

use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::deploy::{default_worst_case_with, evaluate_deployment_with};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Experiment, Method, SolverId};
use tuna_core::pipeline::{TunaConfig, TunaPipeline};
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::Objective;
use tuna_stats::rng::Rng;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

fn fast_smac() -> SmacParams {
    SmacParams {
        n_init: 5,
        n_random_candidates: 30,
        n_neighbors: 4,
        ..SmacParams::default()
    }
}

#[test]
fn end_to_end_tuna_run_is_deterministic() {
    let run = |seed: u64| {
        let exp = Experiment::quick_demo();
        let s = exp.run(Method::Tuna, seed);
        (s.best_config.id(), s.deployment.mean)
    };
    let (a_cfg, a_mean) = run(5);
    let (b_cfg, b_mean) = run(5);
    assert_eq!(a_cfg, b_cfg, "same seed must pick the same config");
    assert_eq!(a_mean, b_mean, "same seed must measure identically");
    let (c_cfg, _) = run(6);
    assert_ne!(a_cfg, c_cfg, "different seeds should explore differently");
}

#[test]
fn tuna_pipeline_budget_accounting_consistent() {
    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();
    let cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 31);
    let optimizer = SmacOptimizer::multi_fidelity(
        pg.space().clone(),
        Objective::Maximize,
        fast_smac(),
        LadderParams::paper_default(),
    );
    let mut pipeline = TunaPipeline::new(
        TunaConfig::paper_default(1.0),
        &pg,
        &workload,
        Box::new(optimizer),
        cluster,
    );
    let mut rng = Rng::seed_from(32);
    pipeline.run_rounds(60, &mut rng);
    let result = pipeline.finish();

    // Sample accounting: the trace's cumulative counter must equal the sum
    // of new samples and never exceed rounds * max budget.
    let total: usize = result.trace.iter().map(|r| r.new_samples).sum();
    assert_eq!(total, result.total_samples);
    assert_eq!(
        result.trace.last().unwrap().cumulative_samples,
        result.total_samples
    );
    assert!(result.total_samples <= 60 * 10);
    // Multi-fidelity saves samples vs naive distributed.
    assert!(
        result.total_samples < 60 * 10 / 2,
        "multi-fidelity saved too little: {}",
        result.total_samples
    );
}

#[test]
fn deployment_distributions_differ_between_methods() {
    let exp = Experiment::quick_demo();
    let tuna = exp.run(Method::Tuna, 77);
    let trad = exp.run(Method::Traditional, 77);
    assert_ne!(
        tuna.deployment.values, trad.deployment.values,
        "methods should not produce identical deployments"
    );
}

#[test]
fn gp_optimizer_path_works_end_to_end() {
    let mut exp = Experiment::quick_demo();
    exp.optimizer = SolverId::gp();
    exp.rounds = 12;
    let s = exp.run(Method::Tuna, 3);
    assert!(s.deployment.mean > 0.0);
}

#[test]
fn all_three_suts_tune_end_to_end() {
    for workload in [
        tuna_workloads::tpcc(),
        tuna_workloads::ycsb_c(),
        tuna_workloads::wikipedia(),
    ] {
        let mut exp = Experiment::quick_demo();
        exp.workload = workload.clone();
        exp.rounds = 15;
        let s = exp.run(Method::Tuna, 9);
        assert!(
            s.deployment.mean > 0.0,
            "{} deployment broken",
            workload.name
        );
    }
}

#[test]
fn olap_runtime_tuning_reduces_runtime() {
    let mut exp = Experiment::quick_demo();
    exp.workload = tuna_workloads::mssales();
    exp.rounds = 40;
    let tuna = exp.run(Method::Tuna, 21);
    let default = exp.run(Method::DefaultConfig, 21);
    assert!(
        tuna.deployment.mean < default.deployment.mean,
        "tuned mssales runtime {} should beat default {}",
        tuna.deployment.mean,
        default.deployment.mean
    );
}

#[test]
fn crash_penalty_flows_through_tuning_and_deployment() {
    // Redis with a crash-heavy space: penalties must appear instead of
    // raw values for crashed runs.
    let exp = {
        let mut e = Experiment::quick_demo();
        e.workload = tuna_workloads::ycsb_c();
        e.rounds = 20;
        e
    };
    let sut = exp.make_sut();
    let base = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 41);
    let rng = Rng::seed_from(42);
    let penalty = default_worst_case_with(
        ExecutionMode::Serial,
        sut.as_ref(),
        &exp.workload,
        &base,
        &rng,
    );
    assert!(penalty > 0.0);
    // Deploy a config that always crashes: every value equals the penalty.
    let broken = {
        let rd = tuna_sut::redis::Redis::new();
        rd.default_config().with(
            rd.space().index_of("maxmemory_mb").unwrap(),
            tuna_space::ParamValue::Int(4_096),
        )
    };
    let stats = evaluate_deployment_with(
        ExecutionMode::Serial,
        sut.as_ref(),
        &exp.workload,
        &broken,
        &base,
        5,
        5,
        2,
        penalty,
        &rng,
    );
    assert_eq!(stats.crashes, 10);
    assert!(stats.values.iter().all(|&v| v == penalty));
}

#[test]
fn best_config_always_validates_in_space() {
    let exp = Experiment::quick_demo();
    for method in [Method::Tuna, Method::Traditional] {
        let s = exp.run(method, 55);
        let sut = exp.make_sut();
        assert!(
            sut.space().validate(&s.best_config).is_ok(),
            "{:?} produced an invalid config",
            method
        );
    }
}
