//! Figure 15 — NGINX serving the Wikipedia Top-500 workload (p95 ms).
//!
//! Paper: TUNA 42.6 ms (-38.9% vs default) vs traditional 46.6 ms
//! (-32.7%); TUNA std 0.82 ms vs traditional 1.46 ms (63.3% lower).

use super::protocol::{self, Versus, Versus::*, METHODS};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 3] = [
    (claim("fig15.tuna_vs_default", "TUNA improvement over default", "-38.9%", Some(-0.389), Change(1)), MeanChange("TUNA", "Default")),
    (claim("fig15.trad_vs_default", "traditional improvement over default", "-32.7%", Some(-0.327), Change(1)), MeanChange("Traditional", "Default")),
    (claim("fig15.std_ratio", "TUNA std / traditional std", "36.7% (63.3% lower)", Some(0.367), Percent(1)), StdRatio("TUNA", "Traditional")),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let web = vec![tuna_workloads::wikipedia()];
    let campaign = protocol::campaign(args, "fig15_nginx", web, &METHODS, (3, 30));
    protocol::report(&campaign, &run_campaign(args, &campaign), &CLAIMS)
}
