//! Figure 6 — long-running vs short-running VM memory bandwidth by month.
//!
//! Reproduces §4.1's motivation for multi-fidelity sampling: a single
//! long-lived VM drifts slowly and never exhibits the cross-placement
//! spread that a fleet of short-lived VMs samples every month, so
//! confidence about deployment behaviour requires sampling across nodes.

use crate::HarnessArgs;
use tuna_cloudsim::study::Lifespan;
use tuna_core::report::render_table;

pub fn run(args: &HarnessArgs) {
    let report = super::study(args);

    let long = report
        .series(
            "mlc-maxbw-1to1",
            "westus2",
            "Standard_D8s_v5",
            Lifespan::Long,
        )
        .expect("long series");
    let short = report
        .series(
            "mlc-maxbw-1to1",
            "westus2",
            "Standard_D8s_v5",
            Lifespan::Short,
        )
        .expect("short series");

    let mut rows = vec![vec![
        "month".to_string(),
        "long mean (GB/s)".to_string(),
        "long std".to_string(),
        "short mean (GB/s)".to_string(),
        "short std".to_string(),
    ]];
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
    println!("{}", render_table(&rows));

    println!(
        "whole-study CoV: long {:.2}%  short {:.2}%  (short/long ratio {:.1}x)",
        long.overall.cov() * 100.0,
        short.overall.cov() * 100.0,
        short.overall.cov() / long.overall.cov().max(1e-9)
    );
    println!(
        "whole-study range: long [{:.1}, {:.1}] GB/s  short [{:.1}, {:.1}] GB/s (paper band: ~60-75 GB/s)",
        long.overall.min().unwrap_or(0.0),
        long.overall.max().unwrap_or(0.0),
        short.overall.min().unwrap_or(0.0),
        short.overall.max().unwrap_or(0.0),
    );
}
