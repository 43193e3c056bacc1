//! PostgreSQL / TPC-C walkthrough: drive the TUNA pipeline by hand.
//!
//! Unlike `quickstart` (which uses the packaged [`Experiment`] runner),
//! this example wires the pipeline pieces explicitly — optimizer, cluster,
//! scheduler, detector, adjuster — the way a downstream user integrating
//! TUNA with their own system would.
//!
//! ```text
//! cargo run --release --example postgres_tpcc
//! ```

use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::deploy::{default_worst_case_with, evaluate_deployment_with};
use tuna_core::executor::ExecutionMode;
use tuna_core::pipeline::{TunaConfig, TunaPipeline};
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::Objective;
use tuna_stats::rng::Rng;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

fn main() {
    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();
    let mut rng = Rng::seed_from(7);

    // A 10-worker tuning cluster of D8s_v5 VMs in westus2, exactly the
    // paper's setup (§6).
    let cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 7);

    // SMAC with the paper's budget ladder: configs are evaluated on 1,
    // then 3, then all 10 nodes as they keep looking promising.
    let optimizer = SmacOptimizer::multi_fidelity(
        pg.space().clone(),
        Objective::Maximize,
        SmacParams::default(),
        LadderParams::paper_default(),
    );

    let crash_penalty =
        default_worst_case_with(ExecutionMode::from_env(), &pg, &workload, &cluster, &rng);
    let mut pipeline = TunaPipeline::new(
        TunaConfig::paper_default(crash_penalty),
        &pg,
        &workload,
        Box::new(optimizer),
        cluster.clone(),
    );

    println!("running 60 TUNA iterations on PostgreSQL/TPC-C...");
    pipeline.run_rounds(60, &mut rng);
    let result = pipeline.finish();

    println!(
        "configs: {}   samples: {}   unstable flagged: {}",
        result.n_configs, result.total_samples, result.n_unstable_configs
    );
    println!(
        "reported best: {:.0} tx/s (min across its nodes)",
        result.best_value
    );

    // Inspect the winning knobs.
    let knobs = pg.knobs(&result.best_config);
    println!("winning knobs:");
    println!("  shared_buffers_mb    = {}", knobs.shared_buffers_mb);
    println!("  work_mem_mb          = {}", knobs.work_mem_mb);
    println!("  random_page_cost     = {:.2}", knobs.random_page_cost);
    println!("  enable_nestloop      = {}", knobs.enable_nestloop);
    println!("  max_connections      = {}", knobs.max_connections);

    // Deploy on 10 brand-new VMs, the paper's robustness test.
    let stats = evaluate_deployment_with(
        ExecutionMode::from_env(),
        &pg,
        &workload,
        &result.best_config,
        &cluster,
        99,
        10,
        3,
        crash_penalty,
        &rng,
    );
    println!(
        "deployment on 10 fresh VMs: mean {:.0} tx/s, std {:.0}, range [{:.0}, {:.0}], relative range {:.1}%",
        stats.mean,
        stats.std,
        stats.five.min,
        stats.five.max,
        stats.relative_range * 100.0
    );
    if stats.relative_range <= 0.30 {
        println!("the deployed config is STABLE by the paper's 30% criterion");
    } else {
        println!("warning: deployed config exceeds the 30% relative-range criterion");
    }
}
