//! Ablation — tuning-cluster size (§5.1).
//!
//! The paper fixes the cluster at 10 nodes (the 95%-confidence point of
//! Figure 9). This sweep varies the cluster size with a proportional
//! budget ladder and measures deployment robustness: small clusters miss
//! flips; larger ones spend more per config for diminishing returns.

use super::FigureReport;
use crate::{run_campaign_keeping, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};
use tuna_core::experiment::ClusterShape;
use tuna_core::report::render_table;
use tuna_optimizer::multifidelity::LadderParams;
use tuna_stats::summary;

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 10);
    let sample_budget = args.rounds_or(250, 960);

    // One arm per cluster shape, every arm on the same seeds (historical
    // salt 6000, rng label 17, deploy label 41).
    let shapes = [
        (3usize, vec![1usize, 3]),
        (5, vec![1, 2, 5]),
        (10, vec![1, 3, 10]),
        (15, vec![1, 4, 15]),
    ];
    let mut campaign = Campaign::protocol(
        "ablation_cluster_size",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &[],
    )
    .with_runs(runs);
    campaign.arms = shapes
        .iter()
        .map(|(size, budgets)| {
            Arm::new(
                format!("{size}"),
                Recipe::SampleBudget(SampleBudgetSpec {
                    cluster: Some(ClusterShape {
                        size: *size,
                        ladder: LadderParams {
                            budgets: budgets.clone(),
                            eta: 3,
                            min_rung_size: 3,
                        },
                    }),
                    ..SampleBudgetSpec::new(sample_budget, 6_000, 17, 41)
                }),
            )
        })
        .collect();
    // Each run keeps its deployment mean, std and relative range.
    let result = run_campaign_keeping(args, &campaign, |_, summary| {
        let d = &summary.deployment;
        (d.mean, d.std, d.relative_range)
    });

    let mut rows = super::header(&[
        "cluster",
        "ladder",
        "deploy mean (tx/s)",
        "deploy std",
        "deploy rel.range",
    ]);
    for (a, (arm, (_, budgets))) in campaign.arms.iter().zip(&shapes).enumerate() {
        let runs = result.kept(0, a).expect("a kept grid has no resumed cell");
        let means: Vec<f64> = runs.iter().map(|&&(mean, ..)| mean).collect();
        let stds: Vec<f64> = runs.iter().map(|&&(_, std, _)| std).collect();
        let ranges: Vec<f64> = runs.iter().map(|&&(.., range)| range).collect();
        rows.push(vec![
            arm.label.clone(),
            format!("{budgets:?}"),
            format!("{:.0}", summary::mean(&means)),
            format!("{:.0}", summary::mean(&stds)),
            format!("{:.1}%", summary::mean(&ranges) * 100.0),
        ]);
    }
    let mut report = FigureReport::default();
    report.line(render_table(&rows));
    report.line("expected shape: deployment spread shrinks with cluster size, flattening near 10.");
    report
}
