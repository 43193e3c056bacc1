//! Figure 20 — outlier-detector ablation.
//!
//! Paper: removing the detector lets the optimizer chase raw performance
//! into the unstable zone — mean rises 8.5% but deployment variability is
//! 10.1x higher (σ 550.8 vs 54.8 tx/s).

use super::protocol::{self, Versus, Versus::*};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};
use tuna_core::experiment::Method;

const ABLATED: &str = "TUNA w/o outlier detector";

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 2] = [
    (claim("fig20.mean_change", "mean without detector vs with", "+8.5% (2810 vs 2572)", Some(0.085), Change(1)), MeanChange(ABLATED, "TUNA")),
    (claim("fig20.std_ratio", "std without detector / with", "10.1x (550.8 vs 54.8)", Some(10.1), Times(1)), StdRatio(ABLATED, "TUNA")),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let methods =
        [Method::Tuna, Method::TunaNoOutlier, Method::DefaultConfig].map(|m| (m.name(), m));
    let tpcc = vec![tuna_workloads::tpcc()];
    let campaign = protocol::campaign(args, "fig20_outlier_ablation", tpcc, &methods, (3, 30));
    protocol::report(&campaign, &run_campaign(args, &campaign), &CLAIMS)
}
