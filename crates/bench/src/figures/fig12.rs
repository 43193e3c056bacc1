//! Figure 12 — generalization across regions: TPC-C tuned in `centralus`.
//!
//! The paper repeats the Figure 11a evaluation in a region with higher
//! variability (fewer high-performing machines) and finds TUNA at
//! 2321 tx/s σ113.0 vs traditional 2239 tx/s σ267.7 (57.8% lower std).

use crate::{
    arm, campaign_method_table, fail, paper_vs, run_campaign_keeping, run_summary, HarnessArgs,
};
use tuna_core::campaign::{Campaign, CampaignResult, CellPayload};
use tuna_core::experiment::Method;
use tuna_stats::summary::coefficient_of_variation;

pub fn run(args: &HarnessArgs) {
    // The default-config CoV below pools each run's deployment values.
    let deployment_values =
        |_: usize, payload: &CellPayload| run_summary(payload).deployment.values.clone();
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(30, 96);

    let (sku, _) = Campaign::PAPER_SITE;
    let campaign = Campaign::protocol(
        "fig12_region",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &crate::PROTOCOL_METHODS,
    )
    .with_runs(runs)
    .with_rounds(rounds)
    .with_site(sku, "centralus");
    let result = run_campaign_keeping(args, &campaign, deployment_values);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna = arm(&results, "TUNA");
    let trad = arm(&results, "Traditional");
    paper_vs(
        "TUNA std / traditional std",
        "42.2% (57.8% lower)",
        &format!("{:.1}%", tuna.mean_std / trad.mean_std * 100.0),
    );
    paper_vs(
        "TUNA mean >= traditional mean",
        "yes (2321 vs 2239)",
        &format!("{}", tuna.mean_of_means >= trad.mean_of_means * 0.95),
    );
    // Region character: compare default-config deployment spread across
    // regions — centralus should be the wider one. The centralus spread
    // reuses the campaign's Default arm; westus2 needs its own.
    let west = Campaign::protocol(
        "fig12_region_westus2",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &[("Default", Method::DefaultConfig)],
    )
    .with_runs(runs)
    .with_rounds(rounds);
    let west_result = run_campaign_keeping(args, &west, deployment_values);
    let spread = |result: &CampaignResult<Vec<f64>>, arm: usize| {
        let values = result.kept(0, arm).unwrap_or_else(|| {
            fail("the default-config CoV needs in-process results; delete the --store files to recompute")
        });
        let all: Vec<f64> = values.into_iter().flatten().copied().collect();
        coefficient_of_variation(&all)
    };
    println!(
        "  default-config deployment CoV: westus2 {:.1}% vs centralus {:.1}% (paper: centralus has fewer high-performing machines)",
        spread(&west_result, 0) * 100.0,
        spread(&result, 2) * 100.0
    );
}
