//! Figure 3 — burstable vs non-burstable application benchmarks.
//!
//! Reproduces §3.2's first finding: on B-series (burstable) VMs, pgbench
//! and redis-benchmark show both a wider spread and a *bimodal*
//! distribution (credit depletion cuts performance by >50%), while
//! D-series VMs are tight and unimodal.

use super::FigureReport;
use crate::{strip_plot, HarnessArgs};
use tuna_cloudsim::study::Lifespan;
use tuna_core::report::{fmt_value, render_table};
use tuna_stats::summary::{self, FiveNumber};

pub fn run(args: &HarnessArgs) -> FigureReport {
    let study = super::study(args);

    let mut rows = super::header(&[
        "benchmark",
        "SKU",
        "region",
        "CoV",
        "min",
        "q1",
        "median",
        "q3",
        "max",
        "low-mode %",
    ]);
    let mut report = FigureReport::default();
    report.line("relative performance (1.0 = SKU/region mean), short-lived fleets:");
    report.line("");
    for bench in ["pgbench-rw", "redis-benchmark-write"] {
        for sku in ["Standard_D8s_v5", "Standard_B8ms"] {
            for region in ["westus2", "eastus"] {
                let series = study
                    .series(bench, region, sku, Lifespan::Short)
                    .expect("series present");
                let rel = series.relative_samples();
                let five = FiveNumber::of(&rel);
                let low_mode = rel.iter().filter(|&&x| x < 0.75).count() as f64 / rel.len() as f64;
                rows.push(vec![
                    bench.to_string(),
                    sku.to_string(),
                    region.to_string(),
                    format!("{:.1}%", series.overall.cov() * 100.0),
                    fmt_value(five.min),
                    fmt_value(five.q1),
                    fmt_value(five.median),
                    fmt_value(five.q3),
                    fmt_value(five.max),
                    format!("{:.1}%", low_mode * 100.0),
                ]);
                report.line(format!(
                    "{:>22} {:>16} {:>8} |{}| 0.0..1.4",
                    bench,
                    sku,
                    region,
                    strip_plot(&rel, 0.0, 1.4, 56)
                ));
            }
        }
    }
    report.line("");
    report.line(render_table(&rows));

    // Headline check: burstable CoV must dominate non-burstable.
    let cov = |bench: &str, sku: &str| {
        study
            .pooled_short_cov(bench, sku)
            .expect("pooled cov present")
    };
    let b = cov("pgbench-rw", "Standard_B8ms");
    let nb = cov("pgbench-rw", "Standard_D8s_v5");
    report.line(format!(
        "pgbench CoV burstable/non-burstable ratio: {:.1}x (paper: 'significantly higher + bimodal')",
        b / nb
    ));
    let depleted = study
        .series("pgbench-rw", "westus2", "Standard_B8ms", Lifespan::Short)
        .map(|s| {
            let rel = s.relative_samples();
            let low: Vec<f64> = rel.iter().copied().filter(|&x| x < 0.75).collect();
            (low.len() as f64 / rel.len() as f64, summary::mean(&low))
        })
        .expect("burstable series");
    report.line(format!(
        "burstable low mode: {:.1}% of samples at mean {:.2} relative (paper: '>50% degradation when depleted')",
        depleted.0 * 100.0,
        depleted.1
    ));
    report
}
