//! Figure 17 — TUNA vs naive distributed sampling (§6.5.2).
//!
//! Naive distributed runs every config on every node (max budget
//! immediately); TUNA ramps budgets. Initially naive leads (it has
//! max-budget results first), but once TUNA starts promoting, it reaches
//! the same performance ~2.47x faster, matching naive's 500-sample result
//! within ~206 samples on average.

use crate::{fail, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, ConvergenceSpec, Recipe};
use tuna_core::report::render_table;
use tuna_stats::summary;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 6, 10);
    let sample_budget = args.rounds_or(150, 500, 500);
    let step = 10usize;

    // One convergence cell per run: TUNA and naive distributed share one
    // RNG stream (historical salt 700, label 3).
    let mut campaign = Campaign::protocol(
        "fig17_naive_distributed",
        args.seed,
        vec![tuna_workloads::tpcc()],
        &[],
    )
    .with_runs(runs);
    campaign.arms = vec![Arm::new(
        "TUNA vs naive",
        Recipe::Convergence(ConvergenceSpec {
            samples: sample_budget,
            seed_salt: 700,
            rng_label: 3,
        }),
    )];
    let result = run_campaign(args, &campaign);
    let pairs = result.pairs(0, 0).unwrap_or_else(|| {
        fail(
            "convergence curves need in-process traces; delete the --store file \
             (or run without --store) to recompute them",
        )
    });

    let points = sample_budget / step;
    let mut tuna_curves: Vec<Vec<f64>> = Vec::new();
    let mut naive_curves: Vec<Vec<f64>> = Vec::new();
    let mut crossover_samples = Vec::new();
    for (tuna_result, naive_result) in &pairs {
        let t = super::curve_at(&tuna_result.trace, sample_budget, step);
        let n = super::curve_at(&naive_result.trace, sample_budget, step);
        // Samples TUNA needs to reach naive's final performance.
        let naive_final = *n.last().unwrap();
        let reach = t
            .iter()
            .position(|&v| v >= naive_final)
            .map(|i| (i + 1) * step);
        if let Some(s) = reach {
            crossover_samples.push(s as f64);
        }
        tuna_curves.push(t);
        naive_curves.push(n);
    }

    let mut rows = vec![vec![
        "samples".to_string(),
        "TUNA best-so-far (tx/s)".to_string(),
        "naive best-so-far (tx/s)".to_string(),
    ]];
    for i in (0..points).step_by((points / 12).max(1)) {
        let t: Vec<f64> = tuna_curves
            .iter()
            .map(|c| c[i])
            .filter(|v| v.is_finite())
            .collect();
        let n: Vec<f64> = naive_curves
            .iter()
            .map(|c| c[i])
            .filter(|v| v.is_finite())
            .collect();
        rows.push(vec![
            format!("{}", (i + 1) * step),
            format!("{:.0}", summary::mean(&t)),
            format!("{:.0}", summary::mean(&n)),
        ]);
    }
    println!("{}", render_table(&rows));

    if crossover_samples.is_empty() {
        println!("TUNA did not reach naive's final level within the budget on any run");
    } else {
        let mean_cross = summary::mean(&crossover_samples);
        paper_vs(
            "samples for TUNA to match naive's final perf",
            "206 (2.47x faster)",
            &format!(
                "{:.0} ({:.2}x faster), reached in {}/{} runs",
                mean_cross,
                sample_budget as f64 / mean_cross,
                crossover_samples.len(),
                runs
            ),
        );
    }
    // The early-phase claim: naive leads before TUNA reaches max budget.
    let early = points / 5;
    let t_early = summary::mean(&tuna_curves.iter().map(|c| c[early]).collect::<Vec<_>>());
    let n_early = summary::mean(&naive_curves.iter().map(|c| c[early]).collect::<Vec<_>>());
    println!(
        "  early phase (at {} samples): naive {:.0} vs TUNA {:.0} (paper: naive leads early)",
        (early + 1) * step,
        n_early,
        t_early
    );
}
