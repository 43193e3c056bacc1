//! Figure 4 + §3.2 text — per-component microbenchmark variance.
//!
//! Reproduces the measurement-study takeaways: CPU and disk are extremely
//! stable in the modern cloud (CoV 0.17% / 0.36%), while memory, OS and
//! cache remain noisy (4.92% / 9.82% / 14.39%).

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{strip_plot, HarnessArgs};
use tuna_cloudsim::study::Lifespan;
use tuna_core::report::render_table;
use tuna_stats::summary::FiveNumber;

/// Each component, its microbenchmark and its pooled-CoV claim.
#[rustfmt::skip]
static COMPONENTS: [(&str, &str, Claim); 5] = [
    ("CPU", "sysbench-cpu-prime", claim("fig04.cpu_cov", "CPU CoV", "0.17%", Some(0.0017), Percent(2))),
    ("Disk", "fio-randwrite-aio", claim("fig04.disk_cov", "Disk CoV", "0.36%", Some(0.0036), Percent(2))),
    ("Mem", "mlc-maxbw-1to1", claim("fig04.mem_cov", "Mem CoV", "4.92%", Some(0.0492), Percent(2))),
    ("OS", "osbench-create-threads", claim("fig04.os_cov", "OS CoV", "9.82%", Some(0.0982), Percent(2))),
    ("Cache", "stress-ng-cache", claim("fig04.cache_cov", "Cache CoV", "14.39%", Some(0.1439), Percent(2))),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let study = super::study(args);

    let mut report = FigureReport::default();
    report.line("relative performance distributions (both regions):");
    report.line("");
    let mut rows = super::header(&["component", "region", "CoV", "min", "median", "max", "n"]);
    for (component, bench, _) in &COMPONENTS {
        for region in ["westus2", "eastus"] {
            let series = study
                .series(bench, region, "Standard_D8s_v5", Lifespan::Short)
                .expect("series present");
            let rel = series.relative_samples();
            let five = FiveNumber::of(&rel);
            rows.push(vec![
                component.to_string(),
                region.to_string(),
                format!("{:.2}%", series.overall.cov() * 100.0),
                format!("{:.3}", five.min),
                format!("{:.3}", five.median),
                format!("{:.3}", five.max),
                format!("{}", series.overall.count()),
            ]);
            report.line(format!(
                "{:>6} {:>8} |{}| 0.5..1.5",
                component,
                region,
                strip_plot(&rel, 0.5, 1.5, 60)
            ));
        }
    }
    report.line("");
    report.line(render_table(&rows));

    report.line("pooled CoV vs paper:");
    let mut covs = Vec::new();
    for (_, bench, claim) in &COMPONENTS {
        let cov = study
            .pooled_short_cov(bench, "Standard_D8s_v5")
            .expect("pooled");
        report.claim(claim, cov, "");
        covs.push(cov);
    }
    let monotone = covs.windows(2).all(|w| w[0] < w[1]);
    report.line(format!(
        "ordering CPU < Disk < Mem < OS < Cache holds: {monotone}"
    ));
    report
}
