//! Figure 13 — generalization across hardware: TPC-C on CloudLab c220g5
//! bare metal.
//!
//! Paper: TUNA 5756 tx/s (19.1x over default) vs traditional 5380 tx/s
//! (17.8x); 8/10 traditional configs unstable with 7.71x higher std; all
//! TUNA configs stable and on average 7% faster.

use super::protocol::{self, Versus, Versus::*, METHODS};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 3] = [
    (claim("fig13.tuna_gain", "TUNA improvement over default", "19.1x", Some(19.1), Times(1)), MeanRatio("TUNA", "Default")),
    (claim("fig13.trad_gain", "traditional improvement over default", "17.8x", Some(17.8), Times(1)), MeanRatio("Traditional", "Default")),
    (claim("fig13.trad_std_ratio", "traditional std / TUNA std", "7.71x", Some(7.71), Times(2)), StdRatio("Traditional", "TUNA")),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let tpcc = vec![tuna_workloads::tpcc()];
    let campaign = protocol::campaign(args, "fig13_cloudlab", tpcc, &METHODS, (3, 30))
        .with_site("c220g5", "cloudlab");
    let mut report = protocol::report(&campaign, &run_campaign(args, &campaign), &CLAIMS);
    report.line(
        "  note: the default config wastes the 192 GB box — random reads hammer the slow local disk;\n\
         tuning moves the working set into memory, which is why the headroom is an order of magnitude.",
    );
    report
}
