//! Ablation — outlier-detection threshold sensitivity (§4.2).
//!
//! The paper picks 30% ("the trough between the first and second peaks")
//! and argues any value in 15-30% is reasonable: false positives only cost
//! a little search (another stable config exists nearby), while false
//! negatives deploy disasters. This sweep runs TUNA across thresholds and
//! reports deployment quality plus how much of the search was discarded.

use crate::{fail, run_campaign, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};
use tuna_core::report::render_table;
use tuna_stats::summary;

const THRESHOLDS: [f64; 6] = [0.10, 0.15, 0.20, 0.30, 0.50, 0.80];

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 5, 10);
    let rounds = args.rounds_or(25, 60, 96);

    // One arm per threshold, every arm on the same seeds (historical
    // salt 5000, rng label 13, deploy label 37).
    let mut campaign = Campaign::protocol(
        "ablation_threshold",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &[],
    )
    .with_runs(runs);
    let cluster_size = campaign
        .experiment(0, tuna_core::executor::ExecutionMode::Serial)
        .cluster_size;
    campaign.arms = THRESHOLDS
        .iter()
        .map(|&threshold| {
            Arm::new(
                format!("{:.0}%", threshold * 100.0),
                Recipe::SampleBudget(SampleBudgetSpec {
                    outlier_threshold: Some(threshold),
                    ..SampleBudgetSpec::new(rounds * cluster_size, 5_000, 13, 37)
                }),
            )
        })
        .collect();
    let result = run_campaign(args, &campaign);

    let mut rows = vec![vec![
        "threshold".to_string(),
        "deploy mean (tx/s)".to_string(),
        "deploy std".to_string(),
        "flagged unstable/run".to_string(),
        "worst deploy value".to_string(),
    ]];
    for (a, arm) in campaign.arms.iter().enumerate() {
        let summaries = result.run_summaries(0, a).unwrap_or_else(|| {
            fail("the unstable-config column needs in-process results; delete the --store file to recompute")
        });
        let means: Vec<f64> = summaries.iter().map(|r| r.deployment.mean).collect();
        let stds: Vec<f64> = summaries.iter().map(|r| r.deployment.std).collect();
        let flagged: Vec<f64> = summaries
            .iter()
            .map(|r| r.tuning.as_ref().unwrap().n_unstable_configs as f64)
            .collect();
        let worst = summaries
            .iter()
            .map(|r| r.deployment.five.min)
            .fold(f64::INFINITY, f64::min);
        rows.push(vec![
            arm.label.clone(),
            format!("{:.0}", summary::mean(&means)),
            format!("{:.0}", summary::mean(&stds)),
            format!("{:.1}", summary::mean(&flagged)),
            format!("{worst:.0}"),
        ]);
    }
    println!("{}", render_table(&rows));
    println!(
        "expected shape: tight thresholds flag more configs (some falsely) at little cost;\n\
         loose thresholds stop flagging anything and the worst deployment value collapses."
    );
}
