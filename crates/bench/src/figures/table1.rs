//! Table 1 — the longitudinal cloud measurement study, compared with prior
//! studies.
//!
//! Prints the paper's comparison table (prior rows are the published
//! numbers) and regenerates the "This Work" row from the simulated study:
//! duration, sample count, instance count, and which components were
//! covered. Also reprints the §3.2 per-component CoV summary.

use crate::{paper_vs, HarnessArgs};
use tuna_core::report::render_table;

pub fn run(args: &HarnessArgs) {
    let report = super::study(args);

    // The header, the published rows and ours, one `|`-separated line each.
    let prior = [
        "paper|year|duration|samples|instances|platform|disk|memory|cpu|network|os",
        "Schad et al.|2010|4 weeks|6 k|4|AWS|y|y|y|y|n",
        "Iosup et al.|2011|52 weeks|250 k|n/a|AWS,GCP|n|n|y|n|n",
        "Farley et al.|2012|2 weeks|59 k|40|AWS|y|y|y|y|n",
        "Leitner and Cito|2016|4 weeks|54 k|82|multi|n|y|y|n|n",
        "Maricq et al.|2018|46 weeks|900 k|835|CloudLab|y|y|n|y|n",
        "Figiela et al.|2018|22 weeks|730 k|13723|multi|n|n|y|n|n",
        "Scheuner and Leitner|2018|4 weeks|63 k|244|AWS|y|y|y|y|n",
        "Uta et al.|2020|3 weeks|1000 k|1|multi|n|n|n|y|n",
        "De Sensi et al.|2022|n/a|516 k|2|multi|n|n|n|y|y",
        "TUNA (paper)|2024|68 weeks|7037 k|43641|Azure|y|y|y|n|y",
    ];
    let ours = format!(
        "This reproduction|sim|{} weeks|{:.0} k|{}|simulated Azure|y|y|y|n|y",
        report.weeks,
        report.total_samples as f64 / 1000.0,
        report.total_instances
    );
    let rows: Vec<Vec<String>> = prior
        .iter()
        .copied()
        .chain([ours.as_str()])
        .map(|row| row.split('|').map(str::to_string).collect())
        .collect();
    println!("{}", render_table(&rows));

    paper_vs(
        "study duration",
        "68 weeks",
        &format!("{} weeks", report.weeks),
    );
    paper_vs(
        "total samples",
        "7037 k",
        &format!(
            "{:.0} k (scaled 1/{:.0})",
            report.total_samples as f64 / 1000.0,
            7_037_000.0 / report.total_samples as f64
        ),
    );
    paper_vs(
        "total instances",
        "43641",
        &format!(
            "{} (scaled 1/{:.0})",
            report.total_instances,
            43_641.0 / report.total_instances as f64
        ),
    );

    println!();
    println!("§3.2 component CoVs on the short-lived D8s_v5 fleet:");
    for (label, bench, paper_cov) in [
        ("CPU", "sysbench-cpu-prime", "0.17%"),
        ("Disk", "fio-randwrite-aio", "0.36%"),
        ("Memory", "mlc-maxbw-1to1", "4.92%"),
        ("OS", "osbench-create-threads", "9.82%"),
        ("Cache", "stress-ng-cache", "14.39%"),
    ] {
        let measured = report
            .pooled_short_cov(bench, "Standard_D8s_v5")
            .unwrap_or(f64::NAN);
        paper_vs(label, paper_cov, &format!("{:.2}%", measured * 100.0));
    }
}
