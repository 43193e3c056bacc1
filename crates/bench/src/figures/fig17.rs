//! Figure 17 — TUNA vs naive distributed sampling (§6.5.2).
//!
//! Naive distributed runs every config on every node (max budget
//! immediately); TUNA ramps budgets. Initially naive leads (it has
//! max-budget results first), but once TUNA starts promoting, it reaches
//! the same performance ~2.47x faster, matching naive's 500-sample result
//! within ~206 samples on average.

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign_keeping, HarnessArgs};
use tuna_core::campaign::{Arm, Campaign, CellPayload, ConvergenceSpec, Recipe};
use tuna_core::report::render_table;
use tuna_stats::summary;

#[rustfmt::skip]
static CROSSOVER: Claim = claim("fig17.crossover_samples", "samples for TUNA to match naive's final perf", "206 (2.47x faster)", Some(206.0), Fixed(0));

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 10);
    let sample_budget = args.rounds_or(150, 500);
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
    // Each run keeps its two best-so-far curves, sampled every `step`
    // samples, instead of both full traces.
    let result = run_campaign_keeping(args, &campaign, |_, payload| {
        let CellPayload::Pair { tuna, naive } = payload else {
            panic!("a convergence cell runs a TUNA / naive pair")
        };
        (
            super::curve_at(&tuna.trace, sample_budget, step),
            super::curve_at(&naive.trace, sample_budget, step),
        )
    });
    let pairs = result.kept(0, 0).expect("a kept grid has no resumed cell");

    let points = sample_budget / step;
    let mut tuna_curves: Vec<&Vec<f64>> = Vec::new();
    let mut naive_curves: Vec<&Vec<f64>> = Vec::new();
    let mut crossover_samples = Vec::new();
    for (t, n) in pairs {
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

    let mut rows = super::header(&[
        "samples",
        "TUNA best-so-far (tx/s)",
        "naive best-so-far (tx/s)",
    ]);
    for i in (0..points).step_by((points / 12).max(1)) {
        rows.push(vec![
            format!("{}", (i + 1) * step),
            format!("{:.0}", super::finite_mean_at(&tuna_curves, i)),
            format!("{:.0}", super::finite_mean_at(&naive_curves, i)),
        ]);
    }
    let mut report = FigureReport::default();
    report.line(render_table(&rows));

    if crossover_samples.is_empty() {
        report.line("TUNA did not reach naive's final level within the budget on any run");
    } else {
        let mean_cross = summary::mean(&crossover_samples);
        let note = format!(
            " ({:.2}x faster), reached in {}/{} runs",
            sample_budget as f64 / mean_cross,
            crossover_samples.len(),
            runs
        );
        report.claim(&CROSSOVER, mean_cross, &note);
    }
    // The early-phase claim: naive leads before TUNA reaches max budget.
    let early = points / 5;
    let t_early = summary::mean(&tuna_curves.iter().map(|c| c[early]).collect::<Vec<_>>());
    let n_early = summary::mean(&naive_curves.iter().map(|c| c[early]).collect::<Vec<_>>());
    report.line(format!(
        "  early phase (at {} samples): naive {:.0} vs TUNA {:.0} (paper: naive leads early)",
        (early + 1) * step,
        n_early,
        t_early
    ));
    report
}
