//! Figure 17 — TUNA vs naive distributed sampling (§6.5.2).
//!
//! Naive distributed runs every config on every node (max budget
//! immediately); TUNA ramps budgets. Initially naive leads (it has
//! max-budget results first), but once TUNA starts promoting, it reaches
//! the same performance ~2.47x faster, matching naive's 500-sample result
//! within ~206 samples on average.

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{map_runs, HarnessArgs};
use tuna_core::experiment::{Experiment, RunPlan, TunaTweaks, Tuner};
use tuna_core::report::render_table;
use tuna_stats::rng::hash_combine;
use tuna_stats::summary;

#[rustfmt::skip]
static CROSSOVER: Claim = claim("fig17.crossover_samples", "samples for TUNA to match naive's final perf", "206 (2.47x faster)", Some(206.0), Fixed(0));

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 10);
    let sample_budget = args.rounds_or(150, 500);
    let step = 10usize;
    let mut report = FigureReport::default();
    let template = Experiment::paper_default(tuna_workloads::tpcc());

    // Naive distributed spends a whole cluster round on each config, and
    // the curves sample every `step` samples: a smaller budget fills
    // neither.
    let needed = template.cluster_size.max(step);
    if sample_budget < needed {
        report.line(format!(
            "  a {sample_budget}-sample budget cannot fit one naive-distributed round: \
             this figure needs --rounds >= {needed}"
        ));
        return report;
    }

    // Each run keeps its two best-so-far curves, sampled every `step`
    // samples, instead of both full traces.
    let (tuna_curves, naive_curves): (Vec<_>, Vec<_>) =
        map_runs((0..runs).collect(), |run, exec| {
            let seed = hash_combine(args.seed, 700 + run as u64);
            let exp = Experiment {
                exec,
                ..template.clone()
            };
            // TUNA and naive distributed share one RNG stream (label 3): the
            // naive run continues it where the pipeline stopped. Neither
            // deploys: the figure reads only the tuning traces.
            let tuners = vec![
                Tuner::Tuna {
                    tweaks: TunaTweaks::default(),
                    solver: exp.optimizer.clone(),
                    samples: sample_budget,
                },
                Tuner::NaiveDistributed(sample_budget),
            ];
            let plan = RunPlan::new(seed, hash_combine(seed, 3), None, tuners);
            let tunings = exp.execute(&plan).tunings;
            let curve = |i: usize| super::curve_at(&tunings[i].trace, sample_budget, step);
            (curve(0), curve(1))
        })
        .into_iter()
        .unzip();

    let points = sample_budget / step;
    // Samples TUNA needs to reach naive's final performance, on the runs
    // where it gets there.
    let crossover_samples: Vec<f64> = tuna_curves
        .iter()
        .zip(&naive_curves)
        .filter_map(|(t, n)| {
            let naive_final = *n.last().unwrap();
            let reach = t.iter().position(|&v| v >= naive_final);
            reach.map(|i| ((i + 1) * step) as f64)
        })
        .collect();

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
