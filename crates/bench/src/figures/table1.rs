//! Table 1 — the longitudinal cloud measurement study, compared with prior
//! studies.
//!
//! Prints the paper's comparison table (prior rows are the published
//! numbers) and regenerates the "This Work" row from the simulated study:
//! duration, sample count, instance count, and which components were
//! covered. Also reprints the §3.2 per-component CoV summary.

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::HarnessArgs;
use tuna_core::report::render_table;

#[rustfmt::skip]
static SCALE: [Claim; 3] = [
    claim("table1.weeks", "study duration", "68 weeks", Some(68.0), Fixed(0)),
    claim("table1.samples", "total samples", "7037 k", Some(7037.0), Fixed(0)),
    claim("table1.instances", "total instances", "43641", Some(43641.0), Fixed(0)),
];

#[rustfmt::skip]
static COVS: [(&str, Claim); 5] = [
    ("sysbench-cpu-prime", claim("table1.cpu_cov", "CPU", "0.17%", Some(0.0017), Percent(2))),
    ("fio-randwrite-aio", claim("table1.disk_cov", "Disk", "0.36%", Some(0.0036), Percent(2))),
    ("mlc-maxbw-1to1", claim("table1.memory_cov", "Memory", "4.92%", Some(0.0492), Percent(2))),
    ("osbench-create-threads", claim("table1.os_cov", "OS", "9.82%", Some(0.0982), Percent(2))),
    ("stress-ng-cache", claim("table1.cache_cov", "Cache", "14.39%", Some(0.1439), Percent(2))),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let study = super::study(args);

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
        study.weeks,
        study.total_samples as f64 / 1000.0,
        study.total_instances
    );
    let rows: Vec<Vec<String>> = prior
        .iter()
        .copied()
        .chain([ours.as_str()])
        .map(|row| row.split('|').map(str::to_string).collect())
        .collect();
    let mut report = FigureReport::default();
    report.line(render_table(&rows));

    let (samples, instances) = (study.total_samples as f64, study.total_instances as f64);
    report.claim(&SCALE[0], study.weeks as f64, " weeks");
    let samples_scale = format!(" k (scaled 1/{:.0})", 7_037_000.0 / samples);
    report.claim(&SCALE[1], samples / 1000.0, &samples_scale);
    let instances_scale = format!(" (scaled 1/{:.0})", 43_641.0 / instances);
    report.claim(&SCALE[2], instances, &instances_scale);

    report.line("");
    report.line("§3.2 component CoVs on the short-lived D8s_v5 fleet:");
    for (bench, claim) in &COVS {
        let measured = study
            .pooled_short_cov(bench, "Standard_D8s_v5")
            .unwrap_or(f64::NAN);
        report.claim(claim, measured, "");
    }
    report
}
