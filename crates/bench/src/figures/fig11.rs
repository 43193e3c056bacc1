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

use crate::{arm, campaign_method_table, fail, paper_vs, run_campaign, HarnessArgs};
use tuna_core::campaign::Campaign;
use tuna_core::executor::ExecutionMode;
use tuna_workloads::arrival::ArrivalPattern;

pub fn run(args: &HarnessArgs) {
    let runs = args.runs_or(3, 8, 10);
    let rounds = args.rounds_or(30, 96, 96);

    // Scenario diversity: `--pattern diurnal|bursty` re-points the whole
    // campaign at the arrival pattern's *peak* offered load (the hour a
    // capacity planner sizes for). Without the flag the output is the
    // historical steady-load figure, byte for byte.
    let pattern = args.pattern.as_deref().map(|name| {
        ArrivalPattern::parse(name).unwrap_or_else(|| {
            fail(&format!(
                "unknown arrival pattern '{name}' (expected steady | diurnal | bursty)"
            ))
        })
    });
    if let Some(p) = &pattern {
        let profile = p.profile(288);
        let peak = p.peak_factor().max(1e-9);
        let spark: String = profile
            .iter()
            .step_by(6)
            .map(|&x| {
                let level = ((x / peak) * 4.0).round() as usize;
                [' ', '.', '-', '+', '#'][level.min(4)]
            })
            .collect();
        println!(
            "arrival pattern: {} (peak load {:.2}x nominal; tuning at peak)",
            p.name(),
            p.peak_factor()
        );
        println!("  24h profile (5-min epochs, peak-normalized): [{spark}]");
    }
    let modulated = |w: tuna_workloads::Workload| match &pattern {
        None => w,
        Some(p) => p.modulate_peak(&w),
    };
    let campaign_name = match &pattern {
        None => "fig11_postgres_workloads".to_string(),
        Some(p) => format!("fig11_postgres_workloads+{}", p.name()),
    };

    // (workload, [(method, paper mean, paper std); 3]).
    type PaperRow = (&'static str, [(&'static str, f64, f64); 3]);
    let paper: &[PaperRow] = &[
        (
            "tpcc",
            [
                ("TUNA", 1925.0, 69.0),
                ("Traditional", 1989.0, 205.7),
                ("Default", 848.0, f64::NAN),
            ],
        ),
        (
            "epinions",
            [
                ("TUNA", 34957.0, f64::NAN),
                ("Traditional", 32189.0, f64::NAN),
                ("Default", 30855.0, f64::NAN),
            ],
        ),
        (
            "tpch",
            [
                ("TUNA", 70.3, 1.3),
                ("Traditional", 94.5, 1.2),
                ("Default", 114.5, f64::NAN),
            ],
        ),
        (
            "mssales",
            [
                ("TUNA", 33.2, 0.49),
                ("Traditional", 62.5, 1.26),
                ("Default", 79.4, f64::NAN),
            ],
        ),
    ];

    // The whole figure is one campaign: the workload axis times the
    // method axis times `runs` seeds.
    let campaign = Campaign::protocol(
        campaign_name,
        args.seed,
        vec![
            modulated(tuna_workloads::tpcc()),
            modulated(tuna_workloads::epinions()),
            modulated(tuna_workloads::tpch()),
            modulated(tuna_workloads::mssales()),
        ],
        &crate::PROTOCOL_METHODS,
    )
    .with_runs(runs)
    .with_rounds(rounds);
    let result = run_campaign(args, &campaign);

    for (w, (workload, refs)) in paper.iter().enumerate() {
        let exp = campaign.experiment(w, ExecutionMode::Serial);
        println!();
        println!(
            "--- Figure 11{}: {} ({}) ---",
            match *workload {
                "tpcc" => 'a',
                "epinions" => 'b',
                "tpch" => 'c',
                _ => 'd',
            },
            workload,
            if exp.workload.metric.higher_is_better() {
                "higher is better"
            } else {
                "lower is better"
            }
        );
        let results = campaign_method_table(&campaign, &result, w);
        for ((name, summary), (_, p_mean, p_std)) in results.iter().zip(refs.iter()) {
            let std_part = if p_std.is_nan() {
                format!("σ {:.1}", summary.mean_std)
            } else {
                format!("σ {:.2} (paper σ {:.2})", summary.mean_std, p_std)
            };
            paper_vs(
                &format!("{name} deployment mean"),
                &format!("{p_mean}"),
                &format!("{:.1}  {std_part}", summary.mean_of_means),
            );
        }
        // Who-wins shape checks.
        let tuna = arm(&results, "TUNA");
        let trad = arm(&results, "Traditional");
        let def = arm(&results, "Default");
        let better = |a: f64, b: f64| {
            if exp.workload.metric.higher_is_better() {
                a > b
            } else {
                a < b
            }
        };
        println!(
            "  shape: TUNA beats default: {}   TUNA std <= traditional std: {}   traditional beats default: {}",
            better(tuna.mean_of_means, def.mean_of_means),
            tuna.mean_std <= trad.mean_std,
            better(trad.mean_of_means, def.mean_of_means),
        );
    }
    println!();
    println!("(paper headline: mssales with TUNA = 1.88x lower running time, 2.58x lower std)");
}
