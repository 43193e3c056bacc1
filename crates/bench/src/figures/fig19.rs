//! Figure 19 — noise-adjuster ablation (§6.6).
//!
//! (a) Convergence: full TUNA vs TUNA without the noise-adjuster model on
//!     epinions — the model makes convergence 13.3% faster on average.
//! (b) Model accuracy: relative error of reported values vs the
//!     max-budget ground truth, by model generation — the paper reports
//!     4.87% → 1.99% after the halfway mark (a 59.2% reduction; 35.8%
//!     averaged over the whole run).

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{map_runs, HarnessArgs};
use tuna_core::experiment::{Experiment, RunPlan, TunaTweaks, Tuner};
use tuna_core::pipeline::ModelErrorRecord;
use tuna_core::report::render_table;
use tuna_stats::rng::hash_combine;
use tuna_stats::summary;

#[rustfmt::skip]
static CLAIMS: [Claim; 5] = [
    claim("fig19.speedup", "convergence speedup from the model", "13.3% faster", Some(0.133), Change(1)),
    claim("fig19.late_error_without", "error without model (past midpoint)", "4.87%", Some(0.0487), Percent(2)),
    claim("fig19.late_error_with", "error with model (past midpoint)", "1.99%", Some(0.0199), Percent(2)),
    claim("fig19.late_error_reduction", "relative error reduction (past midpoint)", "59.2% (67.3% of noise removed)", Some(0.592), Percent(1)),
    claim("fig19.error_reduction", "whole-run error reduction", "35.8%", Some(0.358), Percent(1)),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let runs = args.runs_or(3, 100);
    let sample_budget = args.rounds_or(120, 500);
    let mut report = FigureReport::default();
    // The speedup reads each ablation curve at half its points and more,
    // so a curve needs two points, 10 samples apart.
    if sample_budget < 20 {
        report.line(format!(
            "  a {sample_budget}-sample budget gives fewer than two curve points: \
             this figure needs --rounds >= 20"
        ));
        return report;
    }

    let per_run = map_runs((0..runs).collect(), |run, exec| {
        let seed = hash_combine(args.seed, 500 + run as u64);
        let mut exp = Experiment::paper_default(tuna_workloads::epinions());
        exp.exec = exec;
        // Both variants tune from the run seed's cluster with RNG label 5
        // and skip deployment: the figure reads only the tuning traces.
        let variant = |without_adjuster| {
            let tuner = Tuner::Tuna {
                tweaks: TunaTweaks {
                    without_adjuster,
                    ..TunaTweaks::default()
                },
                solver: exp.optimizer.clone(),
                samples: sample_budget,
            };
            let plan = RunPlan::new(seed, hash_combine(seed, 5), None, vec![tuner]);
            let result = exp.execute(&plan).tunings.remove(0);
            let curve = super::curve_at(&result.trace, sample_budget, 10);
            let errors: Vec<ModelErrorRecord> =
                result.trace.iter().filter_map(|r| r.model_error).collect();
            (curve, errors)
        };
        let (cw, ew) = variant(false);
        let (co, _) = variant(true);
        (cw, co, ew)
    });

    let mut with_curves = Vec::new();
    let mut without_curves = Vec::new();
    let mut with_errors: Vec<ModelErrorRecord> = Vec::new();
    let mut speedups = Vec::new();
    for (cw, co, ew) in per_run {
        // Convergence speedup averaged over matched performance levels:
        // for the ablation's level at 50%, 75% and 100% of the budget,
        // how many samples did the full system need to get there?
        for frac in [2usize, 4, 3] {
            let idx = (co.len() * frac / 4).min(co.len()) - 1;
            let target = co[idx];
            if let Some(i) = cw.iter().position(|&v| v >= target) {
                speedups.push((idx + 1) as f64 / (i + 1) as f64);
            }
        }
        with_errors.extend(ew);
        with_curves.push(cw);
        without_curves.push(co);
    }

    report.line("--- (a) convergence (best-so-far tx/s by samples) ---");
    let points = sample_budget / 10;
    let mut rows = super::header(&["samples", "TUNA", "TUNA w/o model"]);
    for i in (0..points).step_by((points / 10).max(1)) {
        rows.push(vec![
            format!("{}", (i + 1) * 10),
            format!("{:.0}", super::finite_mean_at(&with_curves, i)),
            format!("{:.0}", super::finite_mean_at(&without_curves, i)),
        ]);
    }
    report.line(render_table(&rows));
    if speedups.is_empty() {
        report.line("full TUNA never matched the ablation's final level (increase budget)");
    } else {
        let levels = speedups.len();
        let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / levels as f64).exp();
        let note = format!(" faster (geometric mean over {levels} matched levels)");
        report.claim(&CLAIMS[0], geomean - 1.0, &note);
    }

    report.line("");
    report.line("--- (b) reported-value error vs max-budget ground truth ---");
    let mut rows = super::header(&[
        "model generation",
        "raw error (w/o model)",
        "adjusted error (with model)",
        "n",
    ]);
    let max_gen = with_errors.iter().map(|e| e.generation).max().unwrap_or(0);
    let buckets = 8.min(max_gen + 1);
    for b in 0..buckets {
        let lo = b * (max_gen + 1) / buckets;
        let hi = (b + 1) * (max_gen + 1) / buckets;
        let (raw, adj, n) = mean_errors(
            with_errors
                .iter()
                .filter(|e| e.generation >= lo && e.generation < hi),
        );
        if n == 0 {
            continue;
        }
        rows.push(vec![
            format!("{lo}..{hi}"),
            format!("{:.2}%", raw * 100.0),
            format!("{:.2}%", adj * 100.0),
            format!("{n}"),
        ]);
    }
    report.line(render_table(&rows));

    // Past-midpoint reduction, as the paper reports.
    let mid = max_gen / 2;
    let (raw, adj, n) = mean_errors(with_errors.iter().filter(|e| e.generation >= mid));
    if n > 0 {
        report.claim(&CLAIMS[1], raw, "");
        report.claim(&CLAIMS[2], adj, "");
        report.claim(&CLAIMS[3], 1.0 - adj / raw.max(1e-12), "");
    }
    let (all_raw, all_adj, _) = mean_errors(with_errors.iter());
    report.claim(&CLAIMS[4], 1.0 - all_adj / all_raw.max(1e-12), "");
    report
}

/// The mean raw and adjusted relative errors of `records`, and how many
/// there are.
fn mean_errors<'a>(records: impl Iterator<Item = &'a ModelErrorRecord>) -> (f64, f64, usize) {
    let (raw, adjusted): (Vec<f64>, Vec<f64>) =
        records.map(|e| (e.raw_rel_err, e.adjusted_rel_err)).unzip();
    (summary::mean(&raw), summary::mean(&adjusted), raw.len())
}
