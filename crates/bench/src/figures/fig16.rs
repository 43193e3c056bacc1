//! Figure 16 — equal-cost comparison vs extended traditional sampling
//! (§6.5.1).
//!
//! Instead of equal wall-clock time, both methods get the same number of
//! samples (the paper uses 500). Extending traditional sampling
//! exacerbates instability: its peak rises but so does its variance; TUNA
//! ends 9.2% faster on average with 87.8% lower std.

use crate::{campaign_method_table, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, Recipe, SampleBudgetSpec};
use tuna_core::experiment::Method;

pub fn run(args: &HarnessArgs) {
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
            "TUNA (equal cost)",
            Recipe::SampleBudget(SampleBudgetSpec::new(sample_budget, 900, 2, 77)),
        ),
        Arm::new(
            "Traditional (equal cost)",
            Recipe::Protocol {
                method: Method::TraditionalExtended {
                    samples: sample_budget,
                },
                seed_salt: Some(901),
            },
        ),
    ];
    let result = run_campaign(args, &campaign);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna_summary = results[0].1;
    let trad_summary = results[1].1;
    paper_vs(
        "TUNA mean vs extended traditional",
        "+9.2%",
        &format!(
            "{:+.1}%",
            (tuna_summary.mean_of_means / trad_summary.mean_of_means - 1.0) * 100.0
        ),
    );
    paper_vs(
        "TUNA std / extended traditional std",
        "12.2% (87.8% lower)",
        &format!(
            "{:.1}%",
            tuna_summary.mean_std / trad_summary.mean_std.max(1e-9) * 100.0
        ),
    );
    // Sample accounting from the stored rows, so it survives `--store`
    // resumes bit-identically.
    let avg_samples: f64 = result
        .group_rows(0, 0)
        .iter()
        .map(|r| r.samples as f64)
        .sum::<f64>()
        / runs as f64;
    println!("  TUNA actually consumed {avg_samples:.0} samples/run (budget {sample_budget})");
}
