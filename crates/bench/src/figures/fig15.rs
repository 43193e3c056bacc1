//! Figure 15 — NGINX serving the Wikipedia Top-500 workload (p95 ms).
//!
//! Paper: TUNA 42.6 ms (-38.9% vs default) vs traditional 46.6 ms
//! (-32.7%); TUNA std 0.82 ms vs traditional 1.46 ms (63.3% lower).

use crate::{arm, campaign_method_table, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(30, 96);

    let campaign = Campaign::protocol(
        "fig15_nginx",
        args.seed,
        vec![tuna_workloads::wikipedia()],
        &crate::PROTOCOL_METHODS,
    )
    .with_runs(runs)
    .with_rounds(rounds);
    let result = run_campaign(args, &campaign);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna = arm(&results, "TUNA");
    let trad = arm(&results, "Traditional");
    let def = arm(&results, "Default");
    paper_vs(
        "TUNA improvement over default",
        "-38.9%",
        &format!(
            "{:+.1}%",
            (tuna.mean_of_means / def.mean_of_means - 1.0) * 100.0
        ),
    );
    paper_vs(
        "traditional improvement over default",
        "-32.7%",
        &format!(
            "{:+.1}%",
            (trad.mean_of_means / def.mean_of_means - 1.0) * 100.0
        ),
    );
    paper_vs(
        "TUNA std / traditional std",
        "36.7% (63.3% lower)",
        &format!("{:.1}%", tuna.mean_std / trad.mean_std.max(1e-9) * 100.0),
    );
}
