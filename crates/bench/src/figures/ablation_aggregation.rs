//! Ablation — sample-aggregation policy (§4.4).
//!
//! The paper argues for **min** (worst case) over mean/median because the
//! latter hide outliers; with the detector bounding stable configs to a
//! 30% range, min is a tight robust lower bound. This ablation swaps the
//! aggregation policy inside an otherwise unchanged TUNA and deploys each
//! winner.

use super::protocol::{self, Versus::*};
use super::FigureReport;
use crate::{run_campaign, HarnessArgs};
use tuna_core::aggregate::AggregationPolicy;
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(25, 96);

    // One arm per aggregation policy, every arm on the same seeds
    // (historical salt 4000, rng label 9, deploy label 31).
    let mut campaign = Campaign::protocol(
        "ablation_aggregation",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &[],
    )
    .with_runs(runs);
    let cluster_size = campaign
        .experiment(0, tuna_core::executor::ExecutionMode::Serial)
        .cluster_size;
    let policies = [
        ("min (paper)", AggregationPolicy::WorstCase),
        ("mean", AggregationPolicy::Mean),
        ("median", AggregationPolicy::Median),
        ("max (best case)", AggregationPolicy::BestCase),
    ];
    campaign.arms = policies
        .iter()
        .map(|(name, policy)| {
            Arm::new(
                *name,
                Recipe::SampleBudget(SampleBudgetSpec {
                    aggregation: Some(*policy),
                    ..SampleBudgetSpec::new(rounds * cluster_size, 4_000, 9, 31)
                }),
            )
        })
        .collect();
    let result = run_campaign(args, &campaign);
    let mut report = FigureReport::default();
    let table = protocol::table(&mut report, &campaign, &result, 0);

    let (min, max) = (policies[0].0, policies[3].0);
    report.line(format!(
        "best-case aggregation vs min: mean {:+.1}%, std {:.2}x — optimizing the lucky face invites instability",
        MeanChange(max, min).value(&table) * 100.0,
        StdRatio(max, min).value(&table)
    ));
    report
}
