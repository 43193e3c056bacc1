//! Figure 8 — sensitivity analysis of the 30% relative-range threshold.
//!
//! Evaluates 1000 configurations on 10 nodes each and plots the density of
//! their relative ranges: a large stable peak near zero, a long unstable
//! tail, and a trough between them where the paper places its 30%
//! detection threshold.

use crate::{paper_vs, HarnessArgs};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_stats::hist::{Histogram, Kde};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

pub fn run(args: &HarnessArgs) {
    let n_configs = args.runs_or(150, 1000);

    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();
    let mut cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), args.seed);
    let mut rng = Rng::seed_from(hash_combine(args.seed, 5));

    let mut ranges = Vec::with_capacity(n_configs);
    let mut unstable = 0;
    for _ in 0..n_configs {
        let config = pg.space().sample(&mut rng);
        let vals: Vec<f64> = (0..10)
            .map(|i| {
                let out = pg.run(&config, &workload, cluster.machine_mut(i), &mut rng);
                out.metrics.settle(&mut rng);
                out.value
            })
            .collect();
        let rr = summary::relative_range(&vals);
        if rr > 0.30 {
            unstable += 1;
        }
        ranges.push(rr);
    }

    let mut hist = Histogram::new(0.0, 2.5, 50);
    for &r in &ranges {
        hist.push(r);
    }
    println!("histogram of relative ranges (bin width 5%):");
    println!("{}", hist.ascii(48));

    let kde = Kde::fit(&ranges);
    println!("kernel density estimate (x, density):");
    for (x, d) in kde.grid(0.0, 1.5, 16) {
        println!("  {x:>5.2}  {d:>7.3}  {}", "#".repeat((d * 8.0) as usize));
    }
    let trough = kde.trough(0.05, 0.6, 200);
    match trough {
        Some(t) => paper_vs(
            "trough between stable/unstable peaks",
            "~30% (15-30% reasonable)",
            &format!("{:.1}%", t * 100.0),
        ),
        None => println!("  no interior trough found (distribution unimodal at this scale)"),
    }
    paper_vs(
        "configs with relative range > 30%",
        "39.0% of configs seen during tuning",
        &format!(
            "{:.1}% of random configs",
            unstable as f64 / n_configs as f64 * 100.0
        ),
    );
    println!(
        "note: the paper's 39% counts configs *seen during tuning* (the optimizer is drawn toward the\n\
         planner-tie bait region); uniform random configs sit in the unstable zone less often."
    );
}
