//! Figure 5 + §3.2.1 — the unstable-configuration case study.
//!
//! (a) Evaluates an initialization set of configs on the *same 30 nodes*
//!     and shows that some configs (the paper's "Config C") perform
//!     extremely well or extremely poorly depending on the machine.
//! (b) Runs 30 independent traditional tuning runs, deploys each run's
//!     best config on 10 fresh VMs, and classifies the transferred configs
//!     stable/unstable: the paper finds 13 of 30 unstable, with up to
//!     76.1% degradation and CoVs up to 36.3%.

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{map_runs, HarnessArgs};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::deploy::evaluate_deployment_with;
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Experiment, Method};
use tuna_core::report::{fmt_value, render_table};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

#[rustfmt::skip]
static TRANSFER: [Claim; 3] = [
    claim("fig05.unstable_transfers", "transferred best configs unstable", "13/30 (43%)", Some(13.0), Fixed(0)),
    claim("fig05.worst_degradation", "worst transfer degradation vs tuning-time value", "up to 76.1%", Some(0.761), Percent(1)),
    claim("fig05.max_cov", "max deployment CoV", "36.3%", Some(0.363), Percent(1)),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();

    // (a) Initialization set on the same 30 fresh nodes (`super::profile`).
    let mut report = FigureReport::default();
    report.line("--- (a) initialization set on 30 shared nodes ---");
    let mut rows = super::header(&["config", "mean", "min", "max", "rel.range", "verdict"]);
    let mut init_unstable = 0;
    let n_init = 10;
    let init_rng = Rng::seed_from(hash_combine(args.seed, 2));
    for idx in 0..n_init {
        let config = if idx == 0 {
            pg.default_config()
        } else {
            pg.space().sample(&mut init_rng.fork(idx as u64))
        };
        let d = super::profile(args.seed, 1, 30, &config);
        let unstable = d.relative_range > 0.30;
        if unstable {
            init_unstable += 1;
        }
        // The paper presents the default + the configs that do not crash;
        // we show the first six for the table.
        if idx < 6 {
            rows.push(vec![
                if idx == 0 {
                    "Default".to_string()
                } else {
                    format!("Config {}", (b'A' + idx as u8 - 1) as char)
                },
                fmt_value(d.mean),
                fmt_value(d.five.min),
                fmt_value(d.five.max),
                format!("{:.1}%", d.relative_range * 100.0),
                if unstable { "UNSTABLE" } else { "stable" }.to_string(),
            ]);
        }
    }
    report.line(render_table(&rows));
    report.line(format!("init-set unstable: {init_unstable}/{n_init}"));
    report.line("");

    // (b) Transferability of best configs from 30 tuning runs.
    report.line("--- (b) best configs transferred to 10 new VMs ---");
    let n_runs = args.runs_or(6, 30);
    let rounds = args.rounds_or(25, 96);
    let exp = Experiment {
        rounds,
        ..Experiment::paper_default(workload.clone())
    };
    let summaries = map_runs((0..n_runs).collect(), |run, exec| {
        let mut exp = exp.clone();
        exp.exec = exec;
        exp.run(
            Method::Traditional,
            hash_combine(args.seed, 100 + run as u64),
        )
    });
    let mut unstable_count = 0;
    let mut worst_degradation: f64 = 0.0;
    let mut max_cov: f64 = 0.0;
    let mut rows = super::header(&[
        "run",
        "tuning best",
        "deploy mean",
        "deploy min",
        "rel.range",
        "CoV",
        "verdict",
    ]);
    for (run, summary_run) in summaries.iter().enumerate() {
        let tuning_best = summary_run
            .tuning
            .as_ref()
            .map(|t| t.best_value)
            .unwrap_or(f64::NAN);
        let d = &summary_run.deployment;
        let rr = d.relative_range;
        let cov = if d.mean != 0.0 { d.std / d.mean } else { 0.0 };
        let unstable = rr > 0.30;
        if unstable {
            unstable_count += 1;
        }
        let degradation = 1.0 - d.five.min / tuning_best.max(1e-9);
        worst_degradation = worst_degradation.max(degradation);
        max_cov = max_cov.max(cov);
        if run < 8 {
            rows.push(vec![
                format!("{}", run + 1),
                fmt_value(tuning_best),
                fmt_value(d.mean),
                fmt_value(d.five.min),
                format!("{:.1}%", rr * 100.0),
                format!("{:.1}%", cov * 100.0),
                if unstable { "UNSTABLE" } else { "stable" }.to_string(),
            ]);
        }
    }
    report.line(render_table(&rows));
    report.claim(&TRANSFER[0], unstable_count as f64, &format!("/{n_runs}"));
    report.claim(&TRANSFER[1], worst_degradation, "");
    report.claim(&TRANSFER[2], max_cov, "");

    // Bonus: a stable deployment must exist too (the paper's 'stable'
    // panel of Figure 5b) — deploy the default config.
    let base = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), args.seed);
    let drng = Rng::seed_from(hash_combine(args.seed, 3));
    let stable = evaluate_deployment_with(
        ExecutionMode::Serial,
        &pg,
        &workload,
        &pg.default_config(),
        &base,
        7,
        10,
        3,
        1.0,
        &drng,
    );
    report.line(format!(
        "default-config deployment relative range: {:.1}% (stable reference)",
        stable.relative_range * 100.0
    ));
    report
}
