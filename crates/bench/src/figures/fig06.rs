//! Figure 6 — long-running vs short-running VM memory bandwidth by month.
//!
//! Reproduces §4.1's motivation for multi-fidelity sampling: a single
//! long-lived VM drifts slowly and never exhibits the cross-placement
//! spread that a fleet of short-lived VMs samples every month, so
//! confidence about deployment behaviour requires sampling across nodes.

use super::FigureReport;
use crate::HarnessArgs;
use tuna_cloudsim::study::Lifespan;
use tuna_core::report::render_table;

pub fn run(args: &HarnessArgs) -> FigureReport {
    let study = super::study(args);

    let long = study
        .series(
            "mlc-maxbw-1to1",
            "westus2",
            "Standard_D8s_v5",
            Lifespan::Long,
        )
        .expect("long series");
    let short = study
        .series(
            "mlc-maxbw-1to1",
            "westus2",
            "Standard_D8s_v5",
            Lifespan::Short,
        )
        .expect("short series");

    let mut rows = super::header(&[
        "month",
        "long mean (GB/s)",
        "long std",
        "short mean (GB/s)",
        "short std",
    ]);
    for (m, (l, s)) in long.monthly.iter().zip(&short.monthly).enumerate() {
        if l.count() == 0 && s.count() == 0 {
            continue;
        }
        rows.push(vec![
            format!("{}", m + 1),
            format!("{:.2}", l.mean()),
            format!("{:.2}", l.std_dev()),
            format!("{:.2}", s.mean()),
            format!("{:.2}", s.std_dev()),
        ]);
    }
    let mut report = FigureReport::default();
    report.line(render_table(&rows));
    report.line(format!(
        "whole-study CoV: long {:.2}%  short {:.2}%  (short/long ratio {:.1}x)",
        long.overall.cov() * 100.0,
        short.overall.cov() * 100.0,
        short.overall.cov() / long.overall.cov().max(1e-9)
    ));
    report.line(format!(
        "whole-study range: long [{:.1}, {:.1}] GB/s  short [{:.1}, {:.1}] GB/s (paper band: ~60-75 GB/s)",
        long.overall.min().unwrap_or(0.0),
        long.overall.max().unwrap_or(0.0),
        short.overall.min().unwrap_or(0.0),
        short.overall.max().unwrap_or(0.0),
    ));
    report
}
