//! Figure 19 — noise-adjuster ablation (§6.6).
//!
//! (a) Convergence: full TUNA vs TUNA without the noise-adjuster model on
//!     epinions — the model makes convergence 13.3% faster on average.
//! (b) Model accuracy: relative error of reported values vs the
//!     max-budget ground truth, by model generation — the paper reports
//!     4.87% → 1.99% after the halfway mark (a 59.2% reduction; 35.8%
//!     averaged over the whole run).

use tuna_bench::{banner, paper_vs, HarnessArgs};
use tuna_cloudsim::Cluster;
use tuna_core::deploy::default_worst_case_with;
use tuna_core::experiment::Experiment;
use tuna_core::pipeline::{ModelErrorRecord, TunaConfig, TunaPipeline};
use tuna_core::report::render_table;
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::smac::SmacOptimizer;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;

fn run_variant(
    exp: &Experiment,
    with_model: bool,
    sample_budget: usize,
    seed: u64,
) -> (Vec<f64>, Vec<ModelErrorRecord>) {
    let sut = exp.make_sut();
    let base = Cluster::new(exp.cluster_size, exp.sku.clone(), exp.region.clone(), seed);
    let mut rng = Rng::seed_from(hash_combine(seed, 5));
    let crash_penalty = default_worst_case_with(exp.exec, sut.as_ref(), &exp.workload, &base, &rng);
    let cfg = if with_model {
        TunaConfig::paper_default(crash_penalty)
    } else {
        TunaConfig::without_adjuster(crash_penalty)
    };
    let optimizer = SmacOptimizer::multi_fidelity(
        sut.space().clone(),
        exp.objective(),
        exp.smac.clone(),
        LadderParams::paper_default(),
    );
    let mut pipeline =
        TunaPipeline::new(cfg, sut.as_ref(), &exp.workload, Box::new(optimizer), base);
    pipeline.run_until_samples(sample_budget, &mut rng);
    let result = pipeline.finish();
    // Best-so-far per 10-sample step.
    let step = 10;
    let mut curve = Vec::new();
    let mut best = f64::NEG_INFINITY;
    let mut idx = 0;
    for target in (step..=sample_budget).step_by(step) {
        while idx < result.trace.len() && result.trace[idx].cumulative_samples <= target {
            if let Some(b) = result.trace[idx].best_so_far {
                best = best.max(b);
            }
            idx += 1;
        }
        curve.push(best);
    }
    (curve, result.model_errors)
}

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Figure 19",
        "Noise-adjuster ablation on epinions",
        "(a) 13.3% faster convergence with the model; (b) 4.87% -> 1.99% error past midpoint",
    );
    let runs = args.runs_or(3, 8, 100);
    let sample_budget = args.rounds_or(120, 400, 500);

    let exp = Experiment::paper_default(tuna_workloads::epinions());
    let mut with_curves = Vec::new();
    let mut without_curves = Vec::new();
    let mut with_errors: Vec<ModelErrorRecord> = Vec::new();
    let mut speedups = Vec::new();

    for run in 0..runs {
        let seed = hash_combine(args.seed, 500 + run as u64);
        let (cw, ew) = run_variant(&exp, true, sample_budget, seed);
        let (co, _) = run_variant(&exp, false, sample_budget, seed);
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

    println!("--- (a) convergence (best-so-far tx/s by samples) ---");
    let points = sample_budget / 10;
    let mut rows = vec![vec![
        "samples".to_string(),
        "TUNA".to_string(),
        "TUNA w/o model".to_string(),
    ]];
    for i in (0..points).step_by((points / 10).max(1)) {
        let w: Vec<f64> = with_curves
            .iter()
            .map(|c| c[i])
            .filter(|v| v.is_finite())
            .collect();
        let o: Vec<f64> = without_curves
            .iter()
            .map(|c| c[i])
            .filter(|v| v.is_finite())
            .collect();
        rows.push(vec![
            format!("{}", (i + 1) * 10),
            format!("{:.0}", summary::mean(&w)),
            format!("{:.0}", summary::mean(&o)),
        ]);
    }
    println!("{}", render_table(&rows));
    if speedups.is_empty() {
        println!("full TUNA never matched the ablation's final level (increase budget)");
    } else {
        paper_vs(
            "convergence speedup from the model",
            "13.3% faster",
            &format!(
                "{:+.1}% faster (geometric mean over {} matched levels)",
                (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
                    * 100.0
                    - 100.0,
                speedups.len(),
            ),
        );
    }

    println!();
    println!("--- (b) reported-value error vs max-budget ground truth ---");
    let mut rows = vec![vec![
        "model generation".to_string(),
        "raw error (w/o model)".to_string(),
        "adjusted error (with model)".to_string(),
        "n".to_string(),
    ]];
    let max_gen = with_errors.iter().map(|e| e.generation).max().unwrap_or(0);
    let buckets = 8.min(max_gen + 1);
    for b in 0..buckets {
        let lo = b * (max_gen + 1) / buckets;
        let hi = (b + 1) * (max_gen + 1) / buckets;
        let in_bucket: Vec<&ModelErrorRecord> = with_errors
            .iter()
            .filter(|e| e.generation >= lo && e.generation < hi)
            .collect();
        if in_bucket.is_empty() {
            continue;
        }
        let raw = summary::mean(&in_bucket.iter().map(|e| e.raw_rel_err).collect::<Vec<_>>());
        let adj = summary::mean(
            &in_bucket
                .iter()
                .map(|e| e.adjusted_rel_err)
                .collect::<Vec<_>>(),
        );
        rows.push(vec![
            format!("{lo}..{hi}"),
            format!("{:.2}%", raw * 100.0),
            format!("{:.2}%", adj * 100.0),
            format!("{}", in_bucket.len()),
        ]);
    }
    println!("{}", render_table(&rows));

    // Past-midpoint reduction, as the paper reports.
    let mid = max_gen / 2;
    let late: Vec<&ModelErrorRecord> = with_errors.iter().filter(|e| e.generation >= mid).collect();
    if !late.is_empty() {
        let raw = summary::mean(&late.iter().map(|e| e.raw_rel_err).collect::<Vec<_>>());
        let adj = summary::mean(&late.iter().map(|e| e.adjusted_rel_err).collect::<Vec<_>>());
        paper_vs(
            "error without model (past midpoint)",
            "4.87%",
            &format!("{:.2}%", raw * 100.0),
        );
        paper_vs(
            "error with model (past midpoint)",
            "1.99%",
            &format!("{:.2}%", adj * 100.0),
        );
        paper_vs(
            "relative error reduction (past midpoint)",
            "59.2% (67.3% of noise removed)",
            &format!("{:.1}%", (1.0 - adj / raw.max(1e-12)) * 100.0),
        );
    }
    let all_raw = summary::mean(
        &with_errors
            .iter()
            .map(|e| e.raw_rel_err)
            .collect::<Vec<_>>(),
    );
    let all_adj = summary::mean(
        &with_errors
            .iter()
            .map(|e| e.adjusted_rel_err)
            .collect::<Vec<_>>(),
    );
    paper_vs(
        "whole-run error reduction",
        "35.8%",
        &format!("{:.1}%", (1.0 - all_adj / all_raw.max(1e-12)) * 100.0),
    );
}
