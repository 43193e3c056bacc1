//! Figure 14 — Redis / YCSB-C p95 latency with crash handling.
//!
//! Paper: three traditional-found configs crash Redis 30% of the time
//! (OOM), the default crashes 8%; crashed runs are replaced by the worst
//! default p95 (0.908 ms). TUNA's configs never crash; TUNA ends with
//! 27.5% lower std than default and 86.8% lower than traditional, at
//! +1.7% mean latency vs the default.

use super::protocol::{self, arm, Versus, Versus::*, METHODS};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};
use tuna_core::executor::ExecutionMode;

#[rustfmt::skip]
static CRASHES: [Claim; 3] = [
    claim("fig14.tuna_crashes", "TUNA deployment crashes", "0", Some(0.0), Fixed(0)),
    claim("fig14.trad_crashes", "traditional deployment crashes", "3 configs crash ~30% of runs", None, Fixed(0)),
    claim("fig14.default_crash_rate", "default crash rate", "8%", Some(0.08), Percent(1)),
];

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 2] = [
    (claim("fig14.std_ratio", "TUNA std / traditional std", "13.2% (86.8% lower)", Some(0.132), Percent(1)), StdRatio("TUNA", "Traditional")),
    (claim("fig14.mean_vs_default", "TUNA mean vs default mean", "+1.7%", Some(0.017), Change(1)), MeanChange("TUNA", "Default")),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let ycsb = vec![tuna_workloads::ycsb_c()];
    let campaign = protocol::campaign(args, "fig14_redis", ycsb, &METHODS, (3, 30));
    let exp = campaign.experiment(0, ExecutionMode::Serial);
    let mut report = FigureReport::default();
    let table = protocol::table(&mut report, &campaign, &run_campaign(args, &campaign), 0);
    let crashes = |label| arm(&table, label).crashes as f64;
    let deployments = (campaign.runs * exp.deploy_vms * exp.deploy_repeats) as f64;
    report.claim(&CRASHES[0], crashes("TUNA"), "");
    report.claim(&CRASHES[1], crashes("Traditional"), " crashed runs");
    report.claim(&CRASHES[2], crashes("Default") / deployments, "");
    for (claim, versus) in &CLAIMS {
        report.claim(claim, versus.value(&table), "");
    }
    report
}
