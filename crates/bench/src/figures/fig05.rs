//! Figure 5 + §3.2.1 — the unstable-configuration case study.
//!
//! (a) Evaluates an initialization set of configs on the *same 30 nodes*
//!     and shows that some configs (the paper's "Config C") perform
//!     extremely well or extremely poorly depending on the machine.
//! (b) Runs 30 independent traditional tuning runs, deploys each run's
//!     best config on 10 fresh VMs, and classifies the transferred configs
//!     stable/unstable: the paper finds 13 of 30 unstable, with up to
//!     76.1% degradation and CoVs up to 36.3%.

use crate::{paper_vs, HarnessArgs};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::deploy::evaluate_deployment_with;
use tuna_core::experiment::{Experiment, Method};
use tuna_core::report::{fmt_value, render_table};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

pub fn run(args: &HarnessArgs) {
    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();

    // (a) Initialization set across 30 identical-SKU nodes.
    println!("--- (a) initialization set on 30 shared nodes ---");
    let mut cluster = Cluster::new(30, VmSku::d8s_v5(), Region::westus2(), args.seed);
    let mut rng = Rng::seed_from(hash_combine(args.seed, 1));
    let mut rows = vec![vec![
        "config".to_string(),
        "mean".to_string(),
        "min".to_string(),
        "max".to_string(),
        "rel.range".to_string(),
        "verdict".to_string(),
    ]];
    let mut init_unstable = 0;
    let n_init = 10;
    let mut init_rng = Rng::seed_from(hash_combine(args.seed, 2));
    let mut shown = 0;
    for idx in 0..n_init {
        let config = if idx == 0 {
            pg.default_config()
        } else {
            pg.space().sample(&mut init_rng)
        };
        let vals: Vec<f64> = (0..30)
            .map(|i| {
                pg.run(&config, &workload, cluster.machine_mut(i), &mut rng)
                    .value
            })
            .collect();
        let rr = summary::relative_range(&vals);
        let unstable = rr > 0.30;
        if unstable {
            init_unstable += 1;
        }
        // The paper presents the default + the configs that do not crash;
        // we show the first six for the table.
        if shown < 6 {
            shown += 1;
            rows.push(vec![
                if idx == 0 {
                    "Default".to_string()
                } else {
                    format!("Config {}", (b'A' + idx as u8 - 1) as char)
                },
                fmt_value(summary::mean(&vals)),
                fmt_value(summary::min(&vals).unwrap()),
                fmt_value(summary::max(&vals).unwrap()),
                format!("{:.1}%", rr * 100.0),
                if unstable { "UNSTABLE" } else { "stable" }.to_string(),
            ]);
        }
    }
    println!("{}", render_table(&rows));
    println!("init-set unstable: {init_unstable}/{n_init}");
    println!();

    // (b) Transferability of best configs from 30 tuning runs.
    println!("--- (b) best configs transferred to 10 new VMs ---");
    let n_runs = args.runs_or(6, 30, 30);
    let rounds = args.rounds_or(25, 50, 96);
    let mut exp = Experiment::paper_default(workload.clone());
    exp.rounds = rounds;
    let mut unstable_count = 0;
    let mut worst_degradation: f64 = 0.0;
    let mut max_cov: f64 = 0.0;
    let mut rows = vec![vec![
        "run".to_string(),
        "tuning best".to_string(),
        "deploy mean".to_string(),
        "deploy min".to_string(),
        "rel.range".to_string(),
        "CoV".to_string(),
        "verdict".to_string(),
    ]];
    for run in 0..n_runs {
        let summary_run = exp.run(
            Method::Traditional,
            hash_combine(args.seed, 100 + run as u64),
        );
        let tuning_best = summary_run
            .tuning
            .as_ref()
            .map(|t| t.best_value)
            .unwrap_or(f64::NAN);
        let d = &summary_run.deployment;
        let rr = d.relative_range;
        let cov = if d.mean != 0.0 { d.std / d.mean } else { 0.0 };
        let unstable = rr > 0.30;
        if unstable {
            unstable_count += 1;
        }
        let degradation = 1.0 - d.five.min / tuning_best.max(1e-9);
        worst_degradation = worst_degradation.max(degradation);
        max_cov = max_cov.max(cov);
        if run < 8 {
            rows.push(vec![
                format!("{}", run + 1),
                fmt_value(tuning_best),
                fmt_value(d.mean),
                fmt_value(d.five.min),
                format!("{:.1}%", rr * 100.0),
                format!("{:.1}%", cov * 100.0),
                if unstable { "UNSTABLE" } else { "stable" }.to_string(),
            ]);
        }
    }
    println!("{}", render_table(&rows));
    paper_vs(
        "transferred best configs unstable",
        "13/30 (43%)",
        &format!("{unstable_count}/{n_runs}"),
    );
    paper_vs(
        "worst transfer degradation vs tuning-time value",
        "up to 76.1%",
        &format!("{:.1}%", worst_degradation * 100.0),
    );
    paper_vs(
        "max deployment CoV",
        "36.3%",
        &format!("{:.1}%", max_cov * 100.0),
    );

    // Bonus: a stable deployment must exist too (the paper's 'stable'
    // panel of Figure 5b) — deploy the default config.
    let base = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), args.seed);
    let drng = Rng::seed_from(hash_combine(args.seed, 3));
    let stable = evaluate_deployment_with(
        exp.exec,
        &pg,
        &workload,
        &pg.default_config(),
        &base,
        7,
        10,
        3,
        1.0,
        &drng,
    );
    println!(
        "default-config deployment relative range: {:.1}% (stable reference)",
        stable.relative_range * 100.0
    );
}
