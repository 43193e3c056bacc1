//! Figure 18 — optimizer generality: TUNA with a Gaussian-process
//! optimizer (§6.6).
//!
//! Paper: swapping SMAC for a GP (OtterTune-style), TUNA achieves 53.1%
//! higher performance with 89.5% lower standard deviation than traditional
//! sampling under the same GP optimizer.

use crate::{arm, campaign_method_table, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;
use tuna_core::experiment::SolverId;

pub fn run(args: &HarnessArgs) {
    // The GP's cubic fit cost keeps default budgets lower than SMAC's.
    let runs = args.runs_or(2, 4, 10);
    let rounds = args.rounds_or(10, 30, 96);

    let campaign = Campaign::protocol(
        "fig18_gp_optimizer",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &crate::PROTOCOL_METHODS,
    )
    .with_runs(runs)
    .with_rounds(rounds)
    .with_optimizer(SolverId::gp());
    let result = run_campaign(args, &campaign);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna = arm(&results, "TUNA");
    let trad = arm(&results, "Traditional");
    paper_vs(
        "TUNA mean vs traditional (GP)",
        "+53.1%",
        &format!(
            "{:+.1}%",
            (tuna.mean_of_means / trad.mean_of_means - 1.0) * 100.0
        ),
    );
    paper_vs(
        "TUNA std / traditional std (GP)",
        "10.5% (89.5% lower)",
        &format!("{:.1}%", tuna.mean_std / trad.mean_std.max(1e-9) * 100.0),
    );
}
