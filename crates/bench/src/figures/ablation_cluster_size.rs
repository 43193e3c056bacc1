//! Ablation — tuning-cluster size (§5.1).
//!
//! The paper fixes the cluster at 10 nodes (the 95%-confidence point of
//! Figure 9). This sweep varies the cluster size with a proportional
//! budget ladder and measures deployment robustness: small clusters miss
//! flips; larger ones spend more per config for diminishing returns.

use crate::{fail, run_campaign, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};
use tuna_core::experiment::ClusterShape;
use tuna_core::report::render_table;
use tuna_optimizer::multifidelity::LadderParams;
use tuna_stats::summary;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 5, 10);
    let sample_budget = args.rounds_or(250, 600, 960);

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
    let result = run_campaign(args, &campaign);

    let mut rows = vec![vec![
        "cluster".to_string(),
        "ladder".to_string(),
        "deploy mean (tx/s)".to_string(),
        "deploy std".to_string(),
        "deploy rel.range".to_string(),
    ]];
    for (a, (arm, (_, budgets))) in campaign.arms.iter().zip(&shapes).enumerate() {
        let summaries = result.run_summaries(0, a).unwrap_or_else(|| {
            fail("the relative-range column needs in-process results; delete the --store file to recompute")
        });
        let means: Vec<f64> = summaries.iter().map(|r| r.deployment.mean).collect();
        let stds: Vec<f64> = summaries.iter().map(|r| r.deployment.std).collect();
        let ranges: Vec<f64> = summaries
            .iter()
            .map(|r| r.deployment.relative_range)
            .collect();
        rows.push(vec![
            arm.label.clone(),
            format!("{budgets:?}"),
            format!("{:.0}", summary::mean(&means)),
            format!("{:.0}", summary::mean(&stds)),
            format!("{:.1}%", summary::mean(&ranges) * 100.0),
        ]);
    }
    println!("{}", render_table(&rows));
    println!("expected shape: deployment spread shrinks with cluster size, flattening near 10.");
}
