//! Arena study — solver generality under noise regimes.
//!
//! Grids noise regime (region) × solver over TPC-C: the full TUNA
//! pipeline, the registry solvers it subsumes (SMAC, GP, random), and
//! the DarwinGame-style tournament whose head-to-head matches share one
//! machine and noise draw per round. The comparison asks whether
//! match-based noise cancellation can stand in for TUNA's filtering as
//! regions get noisier — and is bit-identical for any `TUNA_WORKERS`.

use crate::{arm, campaign_method_table, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;

pub fn run(args: &HarnessArgs) {
    let samples = args.rounds_or(16, 96, 240);

    let campaign = Campaign::arena(
        "arena_solvers",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &["westus2", "centralus"],
        &["tuna", "smac", "gp", "random", "tournament"],
        samples,
    );
    let result = run_campaign(args, &campaign);
    let entries = campaign_method_table(&campaign, &result, 0);

    // Tournament resilience: how much of its westus2 deployment mean each
    // solver keeps when moved to the noisy region.
    for solver in ["tuna", "smac", "gp", "random", "tournament"] {
        let calm = arm(&entries, &format!("westus2/{solver}"));
        let noisy = arm(&entries, &format!("centralus/{solver}"));
        println!(
            "{solver:>10}: centralus keeps {:5.1}% of westus2 mean (std {:.2}x)",
            noisy.mean_of_means / calm.mean_of_means * 100.0,
            noisy.mean_std / calm.mean_std.max(1e-9),
        );
    }
}
