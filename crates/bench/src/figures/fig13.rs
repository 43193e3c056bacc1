//! Figure 13 — generalization across hardware: TPC-C on CloudLab c220g5
//! bare metal.
//!
//! Paper: TUNA 5756 tx/s (19.1x over default) vs traditional 5380 tx/s
//! (17.8x); 8/10 traditional configs unstable with 7.71x higher std; all
//! TUNA configs stable and on average 7% faster.

use crate::{arm, campaign_method_table, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 10);
    let rounds = args.rounds_or(30, 96);

    let campaign = Campaign::protocol(
        "fig13_cloudlab",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &crate::PROTOCOL_METHODS,
    )
    .with_runs(runs)
    .with_rounds(rounds)
    .with_site("c220g5", "cloudlab");
    let result = run_campaign(args, &campaign);
    let results = campaign_method_table(&campaign, &result, 0);

    let tuna = arm(&results, "TUNA");
    let trad = arm(&results, "Traditional");
    let def = arm(&results, "Default");
    paper_vs(
        "TUNA improvement over default",
        "19.1x",
        &format!("{:.1}x", tuna.mean_of_means / def.mean_of_means),
    );
    paper_vs(
        "traditional improvement over default",
        "17.8x",
        &format!("{:.1}x", trad.mean_of_means / def.mean_of_means),
    );
    paper_vs(
        "traditional std / TUNA std",
        "7.71x",
        &format!("{:.2}x", trad.mean_std / tuna.mean_std.max(1e-9)),
    );
    println!(
        "  note: the default config wastes the 192 GB box — random reads hammer the slow local disk;\n\
         tuning moves the working set into memory, which is why the headroom is an order of magnitude."
    );
}
