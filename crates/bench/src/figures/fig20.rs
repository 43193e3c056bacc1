//! Figure 20 — outlier-detector ablation.
//!
//! Paper: removing the detector lets the optimizer chase raw performance
//! into the unstable zone — mean rises 8.5% but deployment variability is
//! 10.1x higher (σ 550.8 vs 54.8 tx/s).

use crate::{arm, campaign_method_table, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;
use tuna_core::experiment::Method;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(30, 96);

    let methods =
        [Method::Tuna, Method::TunaNoOutlier, Method::DefaultConfig].map(|m| (m.name(), m));
    let campaign = Campaign::protocol(
        "fig20_outlier_ablation",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &methods,
    )
    .with_runs(runs)
    .with_rounds(rounds);
    let result = run_campaign(args, &campaign);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna = arm(&results, "TUNA");
    let ablated = arm(&results, "TUNA w/o outlier detector");
    paper_vs(
        "mean without detector vs with",
        "+8.5% (2810 vs 2572)",
        &format!(
            "{:+.1}%",
            (ablated.mean_of_means / tuna.mean_of_means - 1.0) * 100.0
        ),
    );
    paper_vs(
        "std without detector / with",
        "10.1x (550.8 vs 54.8)",
        &format!("{:.1}x", ablated.mean_std / tuna.mean_std.max(1e-9)),
    );
}
