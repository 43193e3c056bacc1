//! Figure 14 — Redis / YCSB-C p95 latency with crash handling.
//!
//! Paper: three traditional-found configs crash Redis 30% of the time
//! (OOM), the default crashes 8%; crashed runs are replaced by the worst
//! default p95 (0.908 ms). TUNA's configs never crash; TUNA ends with
//! 27.5% lower std than default and 86.8% lower than traditional, at
//! +1.7% mean latency vs the default.

use crate::{arm, campaign_method_table, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;
use tuna_core::executor::ExecutionMode;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(30, 96);

    let campaign = Campaign::protocol(
        "fig14_redis",
        args.seed,
        vec![tuna_workloads::ycsb_c()],
        &crate::PROTOCOL_METHODS,
    )
    .with_runs(runs)
    .with_rounds(rounds);
    let exp = campaign.experiment(0, ExecutionMode::Serial);
    let result = run_campaign(args, &campaign);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna = arm(&results, "TUNA");
    let trad = arm(&results, "Traditional");
    let def = arm(&results, "Default");
    paper_vs("TUNA deployment crashes", "0", &format!("{}", tuna.crashes));
    paper_vs(
        "traditional deployment crashes",
        "3 configs crash ~30% of runs",
        &format!("{} crashed runs", trad.crashes),
    );
    paper_vs(
        "default crash rate",
        "8%",
        &format!(
            "{:.1}%",
            def.crashes as f64 / (runs * exp.deploy_vms * exp.deploy_repeats) as f64 * 100.0
        ),
    );
    paper_vs(
        "TUNA std / traditional std",
        "13.2% (86.8% lower)",
        &format!("{:.1}%", tuna.mean_std / trad.mean_std.max(1e-9) * 100.0),
    );
    paper_vs(
        "TUNA mean vs default mean",
        "+1.7%",
        &format!(
            "{:+.1}%",
            (tuna.mean_of_means / def.mean_of_means - 1.0) * 100.0
        ),
    );
}
