//! Figure 18 — optimizer generality: TUNA with a Gaussian-process
//! optimizer (§6.6).
//!
//! Paper: swapping SMAC for a GP (OtterTune-style), TUNA achieves 53.1%
//! higher performance with 89.5% lower standard deviation than traditional
//! sampling under the same GP optimizer.

use super::protocol::{self, Versus, Versus::*, METHODS};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};
use tuna_core::experiment::SolverId;

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 2] = [
    (claim("fig18.mean_change", "TUNA mean vs traditional (GP)", "+53.1%", Some(0.531), Change(1)), MeanChange("TUNA", "Traditional")),
    (claim("fig18.std_ratio", "TUNA std / traditional std (GP)", "10.5% (89.5% lower)", Some(0.105), Percent(1)), StdRatio("TUNA", "Traditional")),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let tpcc = vec![tuna_workloads::tpcc()];
    let campaign = protocol::campaign(args, "fig18_gp_optimizer", tpcc, &METHODS, (2, 10))
        .with_optimizer(SolverId::gp());
    protocol::report(&campaign, &run_campaign(args, &campaign), &CLAIMS)
}
