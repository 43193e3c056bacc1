//! Figure 11 — PostgreSQL across four workloads: tuned configs deployed on
//! fresh VMs (TUNA vs traditional sampling vs default).
//!
//! Paper reference points (deployment mean / avg std):
//! - (a) TPC-C: TUNA 1925 tx/s σ69.0 vs traditional 1989 tx/s σ205.7
//!   (traditional: higher peak, 3x the variance, two runs below default);
//! - (b) epinions: TUNA 34957 (+13.2% over default) vs trad 32189 (+4.2%),
//!   3 traditional configs unstable (σ>2000);
//! - (c) TPC-H: TUNA 70.3 s (-38.6%) vs trad 94.5 s (-17.3%);
//! - (d) mssales: TUNA 33.2 s σ0.49 vs trad 62.5 s σ1.26 (default 79.4 s).

use super::protocol::{self, arm, METHODS};
use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{run_campaign, HarnessArgs};

/// Each workload's deployment-mean claims, three arms per workload in arm
/// order, each with the paper's std where it states one.
#[rustfmt::skip]
static CLAIMS: [(Claim, Option<f64>); 12] = [
    (claim("fig11.tpcc_tuna_mean", "TUNA deployment mean", "1925", Some(1925.0), Fixed(1)), Some(69.0)),
    (claim("fig11.tpcc_trad_mean", "Traditional deployment mean", "1989", Some(1989.0), Fixed(1)), Some(205.7)),
    (claim("fig11.tpcc_default_mean", "Default deployment mean", "848", Some(848.0), Fixed(1)), None),
    (claim("fig11.epinions_tuna_mean", "TUNA deployment mean", "34957", Some(34957.0), Fixed(1)), None),
    (claim("fig11.epinions_trad_mean", "Traditional deployment mean", "32189", Some(32189.0), Fixed(1)), None),
    (claim("fig11.epinions_default_mean", "Default deployment mean", "30855", Some(30855.0), Fixed(1)), None),
    (claim("fig11.tpch_tuna_mean", "TUNA deployment mean", "70.3", Some(70.3), Fixed(1)), Some(1.3)),
    (claim("fig11.tpch_trad_mean", "Traditional deployment mean", "94.5", Some(94.5), Fixed(1)), Some(1.2)),
    (claim("fig11.tpch_default_mean", "Default deployment mean", "114.5", Some(114.5), Fixed(1)), None),
    (claim("fig11.mssales_tuna_mean", "TUNA deployment mean", "33.2", Some(33.2), Fixed(1)), Some(0.49)),
    (claim("fig11.mssales_trad_mean", "Traditional deployment mean", "62.5", Some(62.5), Fixed(1)), Some(1.26)),
    (claim("fig11.mssales_default_mean", "Default deployment mean", "79.4", Some(79.4), Fixed(1)), None),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    // The whole figure is one campaign: the workload axis times the
    // method axis times `runs` seeds.
    let workloads = vec![
        tuna_workloads::tpcc(),
        tuna_workloads::epinions(),
        tuna_workloads::tpch(),
        tuna_workloads::mssales(),
    ];
    let campaign = protocol::campaign(
        args,
        "fig11_postgres_workloads",
        workloads,
        &METHODS,
        (3, 30),
    );
    let result = run_campaign(args, &campaign);

    let mut report = FigureReport::default();
    for (w, claims) in CLAIMS.chunks(3).enumerate() {
        let metric = campaign.workloads[w].metric;
        report.line("");
        report.line(format!(
            "--- Figure 11{}: {} ({}) ---",
            (b'a' + w as u8) as char,
            campaign.workloads[w].name,
            if metric.higher_is_better() {
                "higher is better"
            } else {
                "lower is better"
            }
        ));
        let results = protocol::table(&mut report, &campaign, &result, w);
        for ((_, summary), (claim, paper_std)) in results.iter().zip(claims) {
            let std_part = match paper_std {
                Some(p_std) => format!("σ {:.2} (paper σ {p_std:.2})", summary.mean_std),
                None => format!("σ {:.1}", summary.mean_std),
            };
            report.claim(claim, summary.mean_of_means, &format!("  {std_part}"));
        }
        // Who-wins shape checks.
        let tuna = arm(&results, "TUNA");
        let trad = arm(&results, "Traditional");
        let def = arm(&results, "Default");
        let better = |a: f64, b: f64| {
            if metric.higher_is_better() {
                a > b
            } else {
                a < b
            }
        };
        report.line(format!(
            "  shape: TUNA beats default: {}   TUNA std <= traditional std: {}   traditional beats default: {}",
            better(tuna.mean_of_means, def.mean_of_means),
            tuna.mean_std <= trad.mean_std,
            better(trad.mean_of_means, def.mean_of_means),
        ));
    }
    report.line("");
    report.line("(paper headline: mssales with TUNA = 1.88x lower running time, 2.58x lower std)");
    report
}
