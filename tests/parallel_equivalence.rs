//! Serial ≡ parallel equivalence: the executor's determinism contract,
//! end to end.
//!
//! The engine promises that a tuning run's *entire* [`TuningResult`] —
//! trace, best config, sample counts, unstable set, model-error records —
//! is bit-identical whether trials execute serially or on any number of
//! worker threads. These tests pin that contract for all three SuTs and
//! worker counts {1, 2, 4, 10}, at the pipeline level and at the full
//! experiment level (tuning + deployment on fresh VMs).

use tuna_core::campaign::{Arm, Campaign, CampaignRunner, Recipe, ResultStore, SampleBudgetSpec};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Experiment, Method};
use tuna_core::pipeline::{TunaConfig, TunaPipeline, TuningResult};
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::Objective;
use tuna_stats::rng::Rng;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 10];

fn tune(workload: &Workload, mode: ExecutionMode, seed: u64, rounds: usize) -> TuningResult {
    // Reuse the production workload→SuT and metric→objective mappings.
    let mut exp = Experiment::quick_demo();
    exp.workload = workload.clone();
    let sut = exp.make_sut();
    let objective = exp.objective();
    let cluster = tuna_cloudsim::Cluster::new(
        10,
        tuna_cloudsim::VmSku::d8s_v5(),
        tuna_cloudsim::Region::westus2(),
        seed,
    );
    let optimizer = SmacOptimizer::multi_fidelity(
        sut.space().clone(),
        objective,
        SmacParams {
            n_init: 5,
            n_random_candidates: 30,
            n_neighbors: 4,
            ..SmacParams::default()
        },
        LadderParams::paper_default(),
    );
    let mut cfg = TunaConfig::paper_default(workload.metric.nominal());
    cfg.mode = mode;
    let mut pipeline = TunaPipeline::new(cfg, sut.as_ref(), workload, Box::new(optimizer), cluster);
    let mut rng = Rng::seed_from(seed + 1);
    pipeline.run_rounds(rounds, &mut rng);
    pipeline.finish()
}

/// For each SuT and each worker count, the full `TuningResult` must be
/// bit-identical to serial execution.
#[test]
fn tuning_result_bit_identical_across_modes_all_suts() {
    for workload in [
        tuna_workloads::tpcc(),
        tuna_workloads::ycsb_c(),
        tuna_workloads::wikipedia(),
    ] {
        let serial = tune(&workload, ExecutionMode::Serial, 11, 25);
        assert!(!serial.trace.is_empty());
        for workers in WORKER_COUNTS {
            let parallel = tune(&workload, ExecutionMode::Parallel { workers }, 11, 25);
            assert_eq!(
                serial, parallel,
                "{} diverged from serial at {workers} workers",
                workload.name
            );
        }
    }
}

/// Equality must extend to every result facet the paper reports: best
/// value bits, per-round reported values, unstable classifications and
/// cumulative sample accounting.
#[test]
fn trace_facets_match_bitwise() {
    let workload = tuna_workloads::tpcc();
    let serial = tune(&workload, ExecutionMode::Serial, 23, 40);
    let parallel = tune(&workload, ExecutionMode::Parallel { workers: 10 }, 23, 40);
    assert_eq!(serial.best_value.to_bits(), parallel.best_value.to_bits());
    assert_eq!(serial.best_config, parallel.best_config);
    assert_eq!(serial.n_unstable_configs, parallel.n_unstable_configs);
    assert_eq!(serial.total_samples, parallel.total_samples);
    for (s, p) in serial.trace.iter().zip(&parallel.trace) {
        assert_eq!(
            s.reported.to_bits(),
            p.reported.to_bits(),
            "round {}",
            s.round
        );
        assert_eq!(s.unstable, p.unstable, "round {}", s.round);
        assert_eq!(s.cumulative_samples, p.cumulative_samples);
    }
    assert_eq!(serial.model_errors, parallel.model_errors);
}

/// The full experiment protocol — tuning plus deployment on fresh VMs —
/// is mode-invariant too (deployment lanes use the same fork discipline).
#[test]
fn experiment_with_deployment_is_mode_invariant() {
    let run = |exec: ExecutionMode| {
        let mut exp = Experiment::quick_demo();
        exp.rounds = 15;
        exp.exec = exec;
        exp.run(Method::Tuna, 77)
    };
    let serial = run(ExecutionMode::Serial);
    for workers in [2, 4] {
        let parallel = run(ExecutionMode::Parallel { workers });
        assert_eq!(serial.best_config, parallel.best_config);
        assert_eq!(serial.tuning, parallel.tuning);
        assert_eq!(
            serial.deployment.values, parallel.deployment.values,
            "deployment distribution diverged at {workers} workers"
        );
        assert_eq!(serial.deployment.crashes, parallel.deployment.crashes);
    }
}

/// The naive-distributed baseline rides the same engine; §6.5.2 numbers
/// must not depend on the worker count either.
#[test]
fn naive_distributed_baseline_is_mode_invariant() {
    let run = |exec: ExecutionMode| {
        let mut exp = Experiment::quick_demo();
        exp.rounds = 10;
        exp.exec = exec;
        exp.run(Method::NaiveDistributed { samples: 100 }, 13)
    };
    let serial = run(ExecutionMode::Serial);
    let parallel = run(ExecutionMode::Parallel { workers: 10 });
    assert_eq!(serial.tuning, parallel.tuning);
    assert_eq!(serial.deployment.values, parallel.deployment.values);
}

/// A small mixed-recipe campaign for the determinism tests below: two
/// workloads, a protocol arm, a default arm and a pinned sample-budget
/// arm — every recipe family the figures use except the
/// convergence pair (covered by the campaign module's own tests).
fn test_campaign(name: &str) -> Campaign {
    let mut campaign = Campaign::protocol(
        name,
        17,
        vec![tuna_workloads::tpcc(), tuna_workloads::ycsb_c()],
        &[],
    )
    .with_runs(2)
    .with_rounds(2);
    campaign.arms = vec![
        Arm::new("TUNA", Recipe::protocol(Method::Tuna)),
        Arm::new("Default", Recipe::protocol(Method::DefaultConfig)),
        Arm::new(
            "TUNA (equal cost)",
            Recipe::SampleBudget(SampleBudgetSpec::new(25, 900, 2, 77)),
        ),
    ];
    campaign
}

/// The campaign engine's determinism contract, grid-level: a campaign's
/// entire result store — every cell record, every per-cell digest, the
/// campaign checksum — is bit-identical whether cells execute serially or
/// are work-stolen by 4 worker threads.
#[test]
fn campaign_serial_and_parallel_stores_bit_identical() {
    let campaign = test_campaign("equivalence");
    let mut serial_store = ResultStore::in_memory(&campaign);
    let serial = CampaignRunner::serial().run(&campaign, &mut serial_store);
    assert!(serial.complete);
    assert_eq!(serial.cells.len(), campaign.n_cells());
    for workers in [1usize, 4] {
        let mut store = ResultStore::in_memory(&campaign);
        let parallel = CampaignRunner::with_workers(workers).run(&campaign, &mut store);
        assert_eq!(
            serial.checksum, parallel.checksum,
            "campaign checksum diverged at {workers} workers"
        );
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                s.record, p.record,
                "cell {} record diverged at {workers} workers",
                s.cell
            );
        }
    }
}

/// Resume-after-interrupt equals an uninterrupted run: a campaign stopped
/// partway through (at any cut point, under either execution mode) and
/// rerun against its store finalizes to byte-identical CSV/JSON files and
/// the same campaign checksum.
#[test]
fn campaign_resume_after_interrupt_is_bit_identical() {
    let campaign = test_campaign("resume");
    let dir = std::env::temp_dir().join(format!(
        "tuna-parallel-equivalence-campaign-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let reference_path = dir.join("reference.csv");
    let mut reference_store = ResultStore::open(&reference_path, &campaign).unwrap();
    let reference = CampaignRunner::serial().run(&campaign, &mut reference_store);
    assert!(reference.complete);
    let reference_csv = std::fs::read_to_string(&reference_path).unwrap();
    let reference_json = std::fs::read_to_string(reference_path.with_extension("json")).unwrap();

    for (cut, workers) in [(1usize, 1usize), (3, 1), (5, 4)] {
        let path = dir.join(format!("resume-{cut}-{workers}.csv"));
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        let partial = CampaignRunner::with_workers(workers)
            .with_cell_limit(cut)
            .run(&campaign, &mut store);
        assert!(!partial.complete);
        assert_eq!(partial.executed, cut);
        drop(store);

        let mut store = ResultStore::open(&path, &campaign).unwrap();
        assert_eq!(store.len(), cut, "journal lost cells at cut {cut}");
        let resumed = CampaignRunner::with_workers(workers).run(&campaign, &mut store);
        assert!(resumed.complete);
        assert_eq!(resumed.executed, campaign.n_cells() - cut);
        assert_eq!(
            resumed.checksum, reference.checksum,
            "cut {cut} workers {workers}"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            reference_csv,
            "resumed CSV differs (cut {cut}, workers {workers})"
        );
        assert_eq!(
            std::fs::read_to_string(path.with_extension("json")).unwrap(),
            reference_json,
            "resumed JSON differs (cut {cut}, workers {workers})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Executor accounting: every scheduled sample is executed and counted
/// exactly once, and the critical path never exceeds the busy total.
#[test]
fn exec_stats_account_for_every_run() {
    let workload = tuna_workloads::tpcc();
    let sut = Postgres::new();
    let cluster = tuna_cloudsim::Cluster::new(
        10,
        tuna_cloudsim::VmSku::d8s_v5(),
        tuna_cloudsim::Region::westus2(),
        3,
    );
    let optimizer = SmacOptimizer::multi_fidelity(
        sut.space().clone(),
        Objective::Maximize,
        SmacParams {
            n_init: 5,
            n_random_candidates: 30,
            ..SmacParams::default()
        },
        LadderParams::paper_default(),
    );
    let mut cfg = TunaConfig::paper_default(1.0);
    cfg.mode = ExecutionMode::Parallel { workers: 4 };
    let mut pipeline = TunaPipeline::new(cfg, &sut, &workload, Box::new(optimizer), cluster);
    let mut rng = Rng::seed_from(4);
    pipeline.run_rounds(30, &mut rng);
    let stats = *pipeline.exec_stats();
    let result = pipeline.finish();
    assert_eq!(stats.runs, result.total_samples);
    assert!(stats.batches <= 30);
    assert!(stats.critical_nanos <= stats.busy_nanos);
    assert!(stats.speedup() > 0.0);
}
