//! Ablation — outlier-detection threshold sensitivity (§4.2).
//!
//! The paper picks 30% ("the trough between the first and second peaks")
//! and argues any value in 15-30% is reasonable: false positives only cost
//! a little search (another stable config exists nearby), while false
//! negatives deploy disasters. This sweep runs TUNA across thresholds and
//! reports deployment quality plus how much of the search was discarded.

use super::FigureReport;
use crate::{run_campaign_keeping, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};
use tuna_core::report::render_table;
use tuna_stats::summary;

const THRESHOLDS: [f64; 6] = [0.10, 0.15, 0.20, 0.30, 0.50, 0.80];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(25, 96);

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
    // Each run keeps its deployment mean, std and worst value, and how
    // many configs its tuning flagged unstable.
    let result = run_campaign_keeping(args, &campaign, |_, r| {
        let flagged = r.tuning.as_ref().unwrap().n_unstable_configs as f64;
        let d = &r.deployment;
        (d.mean, d.std, d.five.min, flagged)
    });

    let mut rows = super::header(&[
        "threshold",
        "deploy mean (tx/s)",
        "deploy std",
        "flagged unstable/run",
        "worst deploy value",
    ]);
    for (a, arm) in campaign.arms.iter().enumerate() {
        let runs = result.kept(0, a).expect("a kept grid has no resumed cell");
        let means: Vec<f64> = runs.iter().map(|&&(mean, ..)| mean).collect();
        let stds: Vec<f64> = runs.iter().map(|&&(_, std, ..)| std).collect();
        let flagged: Vec<f64> = runs.iter().map(|&&(.., flagged)| flagged).collect();
        let worst = runs
            .iter()
            .map(|&&(_, _, min, _)| min)
            .fold(f64::INFINITY, f64::min);
        rows.push(vec![
            arm.label.clone(),
            format!("{:.0}", summary::mean(&means)),
            format!("{:.0}", summary::mean(&stds)),
            format!("{:.1}", summary::mean(&flagged)),
            format!("{worst:.0}"),
        ]);
    }
    let mut report = FigureReport::default();
    report.line(render_table(&rows));
    report.line(
        "expected shape: tight thresholds flag more configs (some falsely) at little cost;\n\
         loose thresholds stop flagging anything and the worst deployment value collapses.",
    );
    report
}
