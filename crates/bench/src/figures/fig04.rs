//! Figure 4 + §3.2 text — per-component microbenchmark variance.
//!
//! Reproduces the measurement-study takeaways: CPU and disk are extremely
//! stable in the modern cloud (CoV 0.17% / 0.36%), while memory, OS and
//! cache remain noisy (4.92% / 9.82% / 14.39%).

use crate::{paper_vs, strip_plot, HarnessArgs};
use tuna_cloudsim::study::Lifespan;
use tuna_core::report::render_table;
use tuna_stats::summary::FiveNumber;

pub fn run(args: &HarnessArgs) {
    let report = super::study(args);

    let benches = [
        ("CPU", "sysbench-cpu-prime", 0.0017),
        ("Disk", "fio-randwrite-aio", 0.0036),
        ("Mem", "mlc-maxbw-1to1", 0.0492),
        ("OS", "osbench-create-threads", 0.0982),
        ("Cache", "stress-ng-cache", 0.1439),
    ];

    println!("relative performance distributions (both regions):");
    println!();
    let mut rows = super::header(&["component", "region", "CoV", "min", "median", "max", "n"]);
    for (component, bench, _) in benches {
        for region in ["westus2", "eastus"] {
            let series = report
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
            println!(
                "{:>6} {:>8} |{}| 0.5..1.5",
                component,
                region,
                strip_plot(&rel, 0.5, 1.5, 60)
            );
        }
    }
    println!();
    println!("{}", render_table(&rows));

    println!("pooled CoV vs paper:");
    for (component, bench, paper_cov) in benches {
        let measured = report
            .pooled_short_cov(bench, "Standard_D8s_v5")
            .expect("pooled");
        paper_vs(
            &format!("{component} CoV"),
            &format!("{:.2}%", paper_cov * 100.0),
            &format!("{:.2}%", measured * 100.0),
        );
    }
    let ordered = benches
        .iter()
        .map(|(_, b, _)| report.pooled_short_cov(b, "Standard_D8s_v5").unwrap())
        .collect::<Vec<_>>();
    let monotone = ordered.windows(2).all(|w| w[0] < w[1]);
    println!("ordering CPU < Disk < Mem < OS < Cache holds: {monotone}");
}
