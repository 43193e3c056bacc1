//! Scaled-down statistical checks of the paper's major claims (C1-C5 of
//! the artifact appendix).
//!
//! These run the real experiment machinery at reduced budgets, so they
//! assert *direction and rough magnitude*, not exact numbers.
//! `tuna figures` runs the full-scale versions; each test names the
//! figure claim ids (`tuna_bench::figures::Claim`) it checks.

use tuna_cloudsim::study::{run_study, Lifespan, StudyConfig};
use tuna_core::experiment::{Experiment, Method, RunSummary};
use tuna_core::report::summarize_method;
use tuna_stats::rng::hash_combine;
use tuna_stats::summary;

/// `n` independent runs of `method`; run `i` is seeded `hash_combine(seed, i)`.
fn runs(exp: &Experiment, method: Method, n: usize, seed: u64) -> Vec<RunSummary> {
    (0..n as u64)
        .map(|i| exp.run(method, hash_combine(seed, i)))
        .collect()
}

/// C2/C3 substrate: the cloud's component noise ordering (the study
/// motivating §3.2). Claims `fig04.cpu_cov`, `fig04.disk_cov`,
/// `fig04.mem_cov`, `fig04.os_cov` and `fig04.cache_cov` (reprinted as
/// `table1.*_cov`).
#[test]
fn claim_component_noise_ordering() {
    let report = run_study(&StudyConfig::quick());
    let cov = |bench: &str| report.pooled_short_cov(bench, "Standard_D8s_v5").unwrap();
    let cpu = cov("sysbench-cpu-prime");
    let disk = cov("fio-randwrite-aio");
    let mem = cov("mlc-maxbw-1to1");
    let os = cov("osbench-create-threads");
    let cache = cov("stress-ng-cache");
    assert!(
        cpu < 0.01 && disk < 0.01,
        "CPU/disk too noisy: {cpu} {disk}"
    );
    assert!(mem > 0.02 && os > 0.05 && cache > 0.08);
    assert!(cpu < disk && disk < mem && mem < os && os < cache);
}

/// C1 (scaled): added sampling noise slows convergence. We compare the
/// oracle quality of the incumbent after a fixed number of iterations with
/// and without 10% injected noise, pooled over seeds. Claims
/// `fig02.slowdown_5pct` and `fig02.slowdown_10pct`.
#[test]
fn claim_noise_slows_convergence() {
    use tuna_cloudsim::{Cluster, Region, VmSku};
    use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
    use tuna_optimizer::{Objective, Solver};
    use tuna_stats::rng::Rng;
    use tuna_sut::postgres::Postgres;
    use tuna_sut::SystemUnderTest;

    let pg = Postgres::new();
    let workload = tuna_workloads::epinions();
    let memory_mb = VmSku::c220g5().memory_gb * 1024.0;
    let iters = 40;
    // Area under the incumbent-quality curve: a noise-slowed tuner holds
    // worse incumbents for longer even if it eventually catches up.
    let mut clean_auc = Vec::new();
    let mut noisy_auc = Vec::new();
    for seed in 0..10u64 {
        for &sigma in &[0.0, 0.30] {
            let mut rng = Rng::seed_from(1000 + seed * 7 + (sigma * 100.0) as u64);
            let mut cluster = Cluster::new(1, VmSku::c220g5(), Region::cloudlab(), seed);
            let mut opt = SmacOptimizer::new(
                pg.space().clone(),
                Objective::Maximize,
                SmacParams {
                    n_init: 8,
                    n_random_candidates: 30,
                    ..SmacParams::default()
                },
            );
            let mut auc = 0.0;
            for _ in 0..iters {
                let s = opt.ask(&mut rng);
                let outcome = pg.run(&s.config, &workload, cluster.machine_mut(0), &mut rng);
                outcome.metrics.settle(&mut rng);
                let value = outcome.value * (1.0 + sigma * rng.next_gaussian()).max(0.05);
                opt.tell(&s.config, value, s.budget);
                if let Some((best_cfg, _)) = opt.best() {
                    auc += pg.noiseless_rel(&best_cfg, &workload, memory_mb);
                }
            }
            if sigma == 0.0 {
                clean_auc.push(auc / iters as f64);
            } else {
                noisy_auc.push(auc / iters as f64);
            }
        }
    }
    let clean = summary::mean(&clean_auc);
    let noisy = summary::mean(&noisy_auc);
    assert!(
        clean > noisy,
        "noise should slow convergence: clean AUC {clean:.4} vs noisy {noisy:.4}"
    );
}

/// C2 (scaled): on plan-sensitive TPC-C, TUNA's deployment variability is
/// lower than traditional sampling's, pooled over several runs. Claims
/// `fig11.tpcc_tuna_mean`, `fig11.tpcc_trad_mean` and
/// `fig11.tpcc_default_mean` (their σ parts), and `fig12.std_ratio`.
#[test]
fn claim_tuna_reduces_deployment_variance() {
    let mut exp = Experiment::quick_demo();
    exp.rounds = 45;
    let n = 4;
    let tuna = summarize_method(&runs(&exp, Method::Tuna, n, 9_001));
    let trad = summarize_method(&runs(&exp, Method::Traditional, n, 9_001));
    // Direction: TUNA should not be more volatile than traditional. Allow
    // slack for the small scale.
    assert!(
        tuna.mean_std <= trad.mean_std * 1.35,
        "TUNA std {:.1} vs traditional {:.1}",
        tuna.mean_std,
        trad.mean_std
    );
    // And it must comfortably beat the default.
    let def = summarize_method(&runs(&exp, Method::DefaultConfig, n, 9_001));
    assert!(tuna.mean_of_means > def.mean_of_means * 1.2);
}

/// C4 (scaled): on Redis, TUNA avoids the crashing configs. Claim
/// `fig14.tuna_crashes`.
#[test]
fn claim_tuna_avoids_redis_crashes() {
    let mut exp = Experiment::quick_demo();
    exp.workload = tuna_workloads::ycsb_c();
    exp.rounds = 35;
    let tuna = runs(&exp, Method::Tuna, 3, 77);
    let crashes: usize = tuna.iter().map(|r| r.deployment.crashes).sum();
    let total: usize = tuna.len() * exp.deploy_vms * exp.deploy_repeats;
    assert!(
        (crashes as f64) < total as f64 * 0.1,
        "TUNA deployments crash too often: {crashes}/{total}"
    );
}

/// C5 substrate: burstable VMs are bimodal, non-burstable are not.
/// Figure 3 prints this as free-form lines; no claim is declared for it.
#[test]
fn claim_burstable_bimodality() {
    let report = run_study(&StudyConfig::quick());
    let low_mode = |sku: &str| {
        let s = report
            .series("pgbench-rw", "westus2", sku, Lifespan::Short)
            .unwrap();
        let rel = s.relative_samples();
        rel.iter().filter(|&&x| x < 0.75).count() as f64 / rel.len() as f64
    };
    assert!(low_mode("Standard_B8ms") > 0.05);
    assert!(low_mode("Standard_D8s_v5") < 0.01);
}

/// §4.1/§5.1 sample accounting under parallel execution: the total number
/// of samples consumed equals the ladder's analytical budget — the sum,
/// over evaluated configs, of the highest budget each config reached
/// (lower-budget samples are reused on promotion, never retaken) — and is
/// independent of the worker count.
#[test]
fn claim_parallel_sampling_preserves_ladder_budget() {
    use std::collections::HashMap;
    use tuna_cloudsim::{Cluster, Region, VmSku};
    use tuna_core::executor::ExecutionMode;
    use tuna_core::pipeline::{TunaConfig, TunaPipeline};
    use tuna_optimizer::multifidelity::LadderParams;
    use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
    use tuna_optimizer::Objective;
    use tuna_stats::rng::Rng;
    use tuna_sut::postgres::Postgres;
    use tuna_sut::SystemUnderTest;

    let tune = |mode: ExecutionMode| {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 51);
        let optimizer = SmacOptimizer::multi_fidelity(
            pg.space().clone(),
            Objective::Maximize,
            SmacParams {
                n_init: 5,
                n_random_candidates: 30,
                ..SmacParams::default()
            },
            LadderParams::paper_default(),
        );
        let mut cfg = TunaConfig::paper_default(1.0);
        cfg.mode = mode;
        let mut p = TunaPipeline::new(cfg, &pg, &workload, Box::new(optimizer), cluster);
        let mut rng = Rng::seed_from(52);
        p.run_rounds(60, &mut rng);
        p.finish()
    };

    let serial = tune(ExecutionMode::Serial);
    // Analytical ladder budget from the trace: each config consumes
    // exactly its highest requested budget in distinct-node samples.
    let mut peak_budget: HashMap<_, usize> = HashMap::new();
    for r in &serial.trace {
        let peak = peak_budget.entry(r.config_id).or_insert(0);
        *peak = (*peak).max(r.budget);
    }
    let analytical: usize = peak_budget.values().sum();
    assert_eq!(
        serial.total_samples, analytical,
        "sample reuse broken: consumed {} vs ladder budget {}",
        serial.total_samples, analytical
    );
    assert_eq!(
        serial.trace.last().unwrap().cumulative_samples,
        serial.total_samples
    );

    for workers in [1usize, 2, 4, 10] {
        let parallel = tune(ExecutionMode::Parallel { workers });
        assert_eq!(
            parallel.total_samples, analytical,
            "worker count {workers} changed the sample budget"
        );
        let per_round: usize = parallel.trace.iter().map(|r| r.new_samples).sum();
        assert_eq!(per_round, analytical);
    }
}

/// The outlier detector's effect (Figure 20, scaled): without it, the
/// deployment std across runs should not shrink. Claim `fig20.std_ratio`.
#[test]
fn claim_outlier_detector_contains_variance() {
    let mut exp = Experiment::quick_demo();
    exp.rounds = 45;
    let n = 4;
    let with = summarize_method(&runs(&exp, Method::Tuna, n, 31_337));
    let without = summarize_method(&runs(&exp, Method::TunaNoOutlier, n, 31_337));
    assert!(
        without.mean_std >= with.mean_std * 0.6,
        "detector made things worse: with {:.1} vs without {:.1}",
        with.mean_std,
        without.mean_std
    );
}
