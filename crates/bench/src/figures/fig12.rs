//! Figure 12 — generalization across regions: TPC-C tuned in `centralus`.
//!
//! The paper repeats the Figure 11a evaluation in a region with higher
//! variability (fewer high-performing machines) and finds TUNA at
//! 2321 tx/s σ113.0 vs traditional 2239 tx/s σ267.7 (57.8% lower std).

use super::protocol::{self, Versus, Versus::*, METHODS};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign_keeping, HarnessArgs};
use tuna_core::campaign::{Campaign, CampaignResult};
use tuna_core::experiment::{Method, RunSummary};
use tuna_stats::summary::coefficient_of_variation;

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 2] = [
    (claim("fig12.std_ratio", "TUNA std / traditional std", "42.2% (57.8% lower)", Some(0.422), Percent(1)), StdRatio("TUNA", "Traditional")),
    (claim("fig12.tuna_mean_holds", "TUNA mean >= traditional mean", "yes (2321 vs 2239)", None, AtLeast(0.95)), MeanRatio("TUNA", "Traditional")),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    // The default-config CoV below pools each run's deployment values.
    let deployment_values = |_: usize, summary: &RunSummary| summary.deployment.values.clone();
    let tpcc = || vec![tuna_workloads::tpcc()];
    let (sku, _) = Campaign::PAPER_SITE;
    let campaign = protocol::campaign(args, "fig12_region", tpcc(), &METHODS, (3, 30))
        .with_site(sku, "centralus");
    let result = run_campaign_keeping(args, &campaign, deployment_values);
    let mut report = protocol::report(&campaign, &result, &CLAIMS);
    // Region character: compare default-config deployment spread across
    // regions — centralus should be the wider one. The centralus spread
    // reuses the campaign's Default arm; westus2 needs its own.
    let default = [("Default", Method::DefaultConfig)];
    let west = protocol::campaign(args, "fig12_region_westus2", tpcc(), &default, (3, 30));
    let west_result = run_campaign_keeping(args, &west, deployment_values);
    let spread = |result: &CampaignResult<Vec<f64>>, arm: usize| {
        let values = result
            .kept(0, arm)
            .expect("a kept grid has no resumed cell");
        let all: Vec<f64> = values.into_iter().flatten().copied().collect();
        coefficient_of_variation(&all)
    };
    report.line(format!(
        "  default-config deployment CoV: westus2 {:.1}% vs centralus {:.1}% (paper: centralus has fewer high-performing machines)",
        spread(&west_result, 0) * 100.0,
        spread(&result, 2) * 100.0
    ));
    report
}
