//! Figure 2 — optimizer rate of convergence under synthetic sampling noise.
//!
//! Reproduces §3.1: tune PostgreSQL/epinions with SMAC on an isolated
//! bare-metal node, injecting multiplicative Gaussian noise
//! `P* = P × N(1, σ²)` into the values reported to the tuner, for
//! σ ∈ {0%, 5%, 10%}. The paper finds 5% noise slows time-to-optimal by
//! 2.50x and 10% by 4.35x.

use crate::{paper_vs, HarnessArgs};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::report::{fmt_value, render_table};
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::{Objective, Solver};
use tuna_stats::bootstrap::bootstrap_mean_ci;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(6, 100);
    let iters = args.rounds_or(40, 100);

    let pg = Postgres::new();
    let workload = tuna_workloads::epinions();
    let memory_mb = VmSku::c220g5().memory_gb * 1024.0;
    let noise_levels = [0.0, 0.05, 0.10];

    // curves[level][iter] = mean oracle (noise-free) perf of best-so-far.
    let mut curves: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); iters]; noise_levels.len()];

    for (li, &sigma) in noise_levels.iter().enumerate() {
        for run in 0..runs {
            let seed = hash_combine(args.seed, (li * 1000 + run) as u64);
            let mut rng = Rng::seed_from(seed);
            let mut cluster = Cluster::new(1, VmSku::c220g5(), Region::cloudlab(), seed);
            let mut opt = SmacOptimizer::new(
                pg.space().clone(),
                Objective::Maximize,
                SmacParams {
                    n_init: 10,
                    n_random_candidates: 60,
                    ..SmacParams::default()
                },
            );
            let mut best_oracle = f64::NEG_INFINITY;
            for cell in curves[li].iter_mut().take(iters) {
                let s = opt.ask(&mut rng);
                let outcome = pg.run(&s.config, &workload, cluster.machine_mut(0), &mut rng);
                outcome.metrics.settle(&mut rng);
                let noisy = outcome.value * (1.0 + sigma * rng.next_gaussian()).max(0.05);
                opt.tell(&s.config, noisy, s.budget);
                // Oracle view: the noise-free quality of the incumbent.
                if let Some((cfg, _)) = opt.best() {
                    let oracle = pg.noiseless_rel(&cfg, &workload, memory_mb);
                    best_oracle = best_oracle.max(oracle);
                    cell.push(oracle);
                } else {
                    cell.push(0.0);
                }
            }
        }
    }

    // Mean curve (with a 99% CI like the paper's shading) every few iters.
    let mut rows = vec![vec![
        "iter".to_string(),
        "0% mean [99% CI]".to_string(),
        "5% mean [99% CI]".to_string(),
        "10% mean [99% CI]".to_string(),
    ]];
    let mut ci_rng = Rng::seed_from(7);
    let step = (iters / 10).max(1);
    for it in (0..iters).step_by(step) {
        let mut row = vec![format!("{}", it + 1)];
        for curve in curves.iter() {
            let ci = bootstrap_mean_ci(&curve[it], 0.99, 200, &mut ci_rng);
            row.push(format!(
                "{} [{}, {}]",
                fmt_value(ci.point),
                fmt_value(ci.lo),
                fmt_value(ci.hi)
            ));
        }
        rows.push(row);
    }
    println!("{}", render_table(&rows));

    // Time-to-optimal: iterations each curve needs to reach 80% of the
    // noise-free curve's final improvement (the paper's 0%-at-40 ==
    // 5%-at-100 anchor corresponds to a level the noisy curves do reach
    // within the horizon).
    let mean_at = |li: usize, it: usize| summary::mean(&curves[li][it]);
    let final0 = mean_at(0, iters - 1);
    let target = 1.0 + 0.7 * (final0 - 1.0);
    let reach = |li: usize| -> Option<usize> {
        (0..iters)
            .find(|&it| mean_at(li, it) >= target)
            .map(|i| i + 1)
    };
    let t0 = reach(0);
    let t5 = reach(1);
    let t10 = reach(2);
    println!(
        "time-to-reach 70% of the noise-free final improvement (oracle rel {:.3}):",
        target
    );
    println!(
        "  0%: {:?}  5%: {:?}  10%: {:?} iterations (None = not reached in {iters})",
        t0, t5, t10
    );
    for (label, paper, reached) in [
        ("slowdown at 5% noise", "2.50x", t5),
        ("slowdown at 10% noise", "4.35x", t10),
    ] {
        let Some(a) = t0 else { continue };
        let measured = match reached {
            Some(b) => format!("{:.2}x", b as f64 / a as f64),
            None => format!(
                ">{:.2}x (not reached in {iters} iters)",
                iters as f64 / a as f64
            ),
        };
        paper_vs(label, paper, &measured);
    }
}
