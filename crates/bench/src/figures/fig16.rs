//! Figure 16 — equal-cost comparison vs extended traditional sampling
//! (§6.5.1).
//!
//! Instead of equal wall-clock time, both methods get the same number of
//! samples (the paper uses 500). Extending traditional sampling
//! exacerbates instability: its peak rises but so does its variance; TUNA
//! ends 9.2% faster on average with 87.8% lower std.

use super::protocol::{self, Versus, Versus::*};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};
use tuna_core::experiment::Method;

const TUNA: &str = "TUNA (equal cost)";
const TRADITIONAL: &str = "Traditional (equal cost)";

#[rustfmt::skip]
static CLAIMS: [(Claim, Versus); 2] = [
    (claim("fig16.mean_change", "TUNA mean vs extended traditional", "+9.2%", Some(0.092), Change(1)), MeanChange(TUNA, TRADITIONAL)),
    (claim("fig16.std_ratio", "TUNA std / extended traditional std", "12.2% (87.8% lower)", Some(0.122), Percent(1)), StdRatio(TUNA, TRADITIONAL)),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 10);
    let sample_budget = args.rounds_or(150, 500);

    // Both arms get the same sample budget; the TUNA arm pins the
    // historical seed labels (salt 900, rng label 2, deploy label 77) and
    // the traditional arm the historical per-arm seed salt.
    let mut campaign = Campaign::protocol(
        "fig16_equal_cost",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &[],
    )
    .with_runs(runs);
    campaign.arms = vec![
        Arm::new(
            TUNA,
            Recipe::SampleBudget(SampleBudgetSpec::new(sample_budget, 900, 2, 77)),
        ),
        Arm::new(
            TRADITIONAL,
            Recipe::Protocol {
                method: Method::TraditionalExtended {
                    samples: sample_budget,
                },
                seed_salt: Some(901),
            },
        ),
    ];
    let result = run_campaign(args, &campaign);
    let mut report = protocol::report(&campaign, &result, &CLAIMS);
    // Sample accounting from the stored rows, so it survives `--store`
    // resumes bit-identically.
    let avg_samples: f64 = result
        .group_rows(0, 0)
        .iter()
        .map(|r| r.samples as f64)
        .sum::<f64>()
        / runs as f64;
    report.line(format!(
        "  TUNA actually consumed {avg_samples:.0} samples/run (budget {sample_budget})"
    ));
    report
}
