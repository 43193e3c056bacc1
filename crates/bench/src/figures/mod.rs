//! The paper's figures, tables and ablations as declarations.
//!
//! Each [`Figure`] pairs a selection ID and the banner it prints with the
//! body that runs its experiment and returns a [`FigureReport`]: the rows
//! or series the paper plots, and the paper's claims it measured. Each
//! paper-vs-measured line is a declared [`Claim`] that renders it; the
//! §6 protocol figures are a campaign declaration plus a claim list, each
//! claim one comparison of two arms (`protocol::Versus`). [`FIGURES`]
//! lists the figures; [`run`] regenerates a selection of them in that
//! order and is the one place that writes them out, which is what
//! `tuna figures [--only ID..]` does.

use std::io::{self, Write};

use crate::HarnessArgs;
use tuna_cloudsim::study::{run_study, StudyConfig, StudyReport};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::deploy::{evaluate_deployment_with, DeployStats};
use tuna_core::executor::ExecutionMode;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;
use tuna_sut::postgres::Postgres;

mod ablation_aggregation;
mod ablation_cluster_size;
mod ablation_threshold;
mod fig02;
mod fig03;
mod fig04;
mod fig05;
mod fig06;
mod fig08;
mod fig09;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fig18;
mod fig19;
mod fig20;
mod protocol;
mod report;
mod table1;

pub use report::{Claim, ClaimId, FigureReport, Format};

/// One regenerator: its `--only` ID, the banner it prints and its body.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Selection ID (`fig02`, `table1`, `ablation_threshold`, ...).
    pub id: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// The paper's headline claim for it.
    pub headline: &'static str,
    /// Runs the experiment and reports the figure.
    pub run: fn(&HarnessArgs) -> FigureReport,
}

impl Figure {
    /// The banner's display name: `fig02` is `Figure 2`, `table1` is
    /// `Table 1`, `ablation_cluster_size` is `Ablation: cluster size`.
    fn name(&self) -> String {
        match (self.id.strip_prefix("fig"), self.id.strip_prefix("table")) {
            (Some(n), _) => format!("Figure {}", n.trim_start_matches('0')),
            (_, Some(n)) => format!("Table {n}"),
            _ => format!(
                "Ablation: {}",
                self.id.trim_start_matches("ablation_").replace('_', " ")
            ),
        }
    }
}

/// Every figure, in the order `tuna figures` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig02",
        title: "Optimizer convergence vs synthetic noise (epinions, SMAC)",
        headline: "0->5% noise slows time-to-optimal 2.50x; 0->10% slows 4.35x",
        run: fig02::run,
    },
    Figure {
        id: "fig03",
        title: "PostgreSQL / Redis benchmark variance: burstable vs non-burstable",
        headline: "burstable VMs show higher variance and a bimodal distribution",
        run: fig03::run,
    },
    Figure {
        id: "fig04",
        title: "Component microbenchmark variance (short-lived D8s_v5 fleet)",
        headline: "CoV: CPU 0.17%, Disk 0.36%, Mem 4.92%, OS 9.82%, Cache 14.39%",
        run: fig04::run,
    },
    Figure {
        id: "fig05",
        title: "Unstable configurations during tuning and at deployment (TPC-C)",
        headline: "39% of seen configs unstable; 13/30 best configs unstable on transfer; up to 76% degradation",
        run: fig05::run,
    },
    Figure {
        id: "fig06",
        title: "MLC memory bandwidth: one long-running VM vs the short-lived fleet (westus2)",
        headline: "long-running VM misses the across-placement variance the fleet sees",
        run: fig06::run,
    },
    Figure {
        id: "fig08",
        title: "Density of relative ranges over configs seen during tuning (10 nodes each)",
        headline: "threshold at 30% sits in the trough between stable and unstable peaks",
        run: fig08::run,
    },
    Figure {
        id: "fig09",
        title: "Chance of detecting unstable configs vs number of nodes sampled",
        headline: "cluster of 10 nodes detects all unstable configs with ~95% confidence",
        run: fig09::run,
    },
    Figure {
        id: "fig11",
        title: "PostgreSQL tuned configs deployed on new VMs (4 workloads)",
        headline: "TUNA improves performance, reduces variability, or both, on every workload",
        run: fig11::run,
    },
    Figure {
        id: "fig12",
        title: "TPC-C on PostgreSQL tuned and deployed in centralus",
        headline: "TUNA 2321 tx/s σ113 vs traditional 2239 tx/s σ267.7 (57.8% lower std)",
        run: fig12::run,
    },
    Figure {
        id: "fig13",
        title: "TPC-C on PostgreSQL, CloudLab c220g5 bare metal",
        headline: "TUNA 5756 tx/s (19.1x default) vs traditional 5380 tx/s (17.8x); trad 7.71x std",
        run: fig13::run,
    },
    Figure {
        id: "fig14",
        title: "Redis serving YCSB-C: tuned configs deployed on new VMs (p95 ms)",
        headline: "TUNA never crashes; std 86.8% lower than traditional; mean ~= default",
        run: fig14::run,
    },
    Figure {
        id: "fig15",
        title: "NGINX serving Wikipedia Top-500: tuned configs on new VMs (p95 ms)",
        headline: "TUNA 42.6 ms vs traditional 46.6 ms vs default 69.7 ms; TUNA std 63.3% lower",
        run: fig15::run,
    },
    Figure {
        id: "fig16",
        title: "Equal-cost: TUNA vs traditional extended to the same sample count (TPC-C)",
        headline: "TUNA +9.2% mean with 87.8% lower std at equal budgets of 500",
        run: fig16::run,
    },
    Figure {
        id: "fig17",
        title: "Convergence: TUNA vs naive distributed (every config on every node)",
        headline: "TUNA matches naive's 500-sample result in ~206 samples (2.47x faster)",
        run: fig17::run,
    },
    Figure {
        id: "fig18",
        title: "TPC-C tuned with a Gaussian-process optimizer",
        headline: "TUNA +53.1% performance with 89.5% lower std than traditional (both GP)",
        run: fig18::run,
    },
    Figure {
        id: "fig19",
        title: "Noise-adjuster ablation on epinions",
        headline: "(a) 13.3% faster convergence with the model; (b) 4.87% -> 1.99% error past midpoint",
        run: fig19::run,
    },
    Figure {
        id: "fig20",
        title: "TUNA with and without the unstable-config detector (TPC-C)",
        headline: "without detector: +8.5% mean but 10.1x the deployment variability",
        run: fig20::run,
    },
    Figure {
        id: "table1",
        title: "Cloud measurement studies compared; 'This Work' regenerated from the simulator",
        headline: "68 weeks, 7037k samples, 43641 instances, disk/memory/CPU/OS covered",
        run: table1::run,
    },
    Figure {
        id: "ablation_aggregation",
        title: "TUNA with min / mean / median / max sample aggregation (TPC-C)",
        headline: "§4.4: min correctly penalizes unstable configs and optimizes the worst case",
        run: ablation_aggregation::run,
    },
    Figure {
        id: "ablation_cluster_size",
        title: "TUNA with tuning clusters of 3 / 5 / 10 / 15 nodes (TPC-C, equal samples)",
        headline: "§5.1: 10 nodes balances detection confidence against sample cost",
        run: ablation_cluster_size::run,
    },
    Figure {
        id: "ablation_threshold",
        title: "TUNA outlier-detector threshold sweep (TPC-C)",
        headline: "§4.2: anything in 15-30% is reasonable; too-loose thresholds leak unstable configs",
        run: ablation_threshold::run,
    },
];

/// A table for `tuna_core::report::render_table` holding only its header
/// row, `columns`.
fn header(columns: &[&str]) -> Vec<Vec<String>> {
    vec![columns.iter().map(|c| c.to_string()).collect()]
}

/// The longitudinal measurement study at the budget `args` picks (the
/// data behind fig03, fig04, fig06 and table1).
fn study(args: &HarnessArgs) -> StudyReport {
    let mut cfg = if args.quick {
        StudyConfig::quick()
    } else {
        StudyConfig::full_scale()
    };
    cfg.seed = args.seed;
    run_study(&cfg)
}

/// `config`'s TPC-C values on the `nodes` fresh Postgres machines that
/// (`seed`, `label`) provision, one run on each: the fixed pool a §3
/// probe (fig05 (a), fig08, fig09) measures configs on. Every config
/// meets the same machines, and each run's stream forks by config id
/// ([`evaluate_deployment_with`]), so a profile is a pure function of
/// (`seed`, `label`, `nodes`, `config`).
fn profile(seed: u64, label: u64, nodes: usize, config: &tuna_space::Config) -> DeployStats {
    let pool = Cluster::new(nodes, VmSku::d8s_v5(), Region::westus2(), seed);
    let rng = Rng::seed_from(hash_combine(seed, label));
    let (pg, workload) = (Postgres::new(), tuna_workloads::tpcc());
    // Postgres never crashes, so the crash penalty is never used.
    let serial = ExecutionMode::Serial;
    evaluate_deployment_with(
        serial, &pg, &workload, config, &pool, label, nodes, 1, 0.0, &rng,
    )
}

/// The mean of the finite values at point `i` of `curves`.
fn finite_mean_at<C: AsRef<[f64]>>(curves: &[C], i: usize) -> f64 {
    let at_i = curves.iter().map(|c| c.as_ref()[i]);
    summary::mean(&at_i.filter(|v| v.is_finite()).collect::<Vec<_>>())
}

/// Best-so-far (oriented) value after each sample count, step `step`.
fn curve_at(
    trace: &[tuna_core::pipeline::IterationRecord],
    budget: usize,
    step: usize,
) -> Vec<f64> {
    let mut out = Vec::new();
    let mut best = f64::NEG_INFINITY;
    let mut idx = 0;
    for target in (step..=budget).step_by(step) {
        while idx < trace.len() && trace[idx].cumulative_samples <= target {
            if let Some(b) = trace[idx].best_so_far {
                best = best.max(b);
            }
            idx += 1;
        }
        out.push(best);
    }
    out
}

/// Runs the figures `args.only` names — every figure when it is empty —
/// in [`FIGURES`] order, writes each one's banner (a rule, the name and
/// title, the paper's headline, a rule) and then its report's lines to
/// `out`, and returns the reports.
///
/// # Errors
///
/// Returns the error of a failed write to `out`.
pub fn run(args: &HarnessArgs, out: &mut impl Write) -> io::Result<Vec<FigureReport>> {
    let rule = "==================================================================";
    let mut reports = Vec::new();
    let selected = FIGURES
        .iter()
        .filter(|f| args.only.is_empty() || args.only.iter().any(|id| id == f.id));
    for f in selected {
        let (name, title, headline) = (f.name(), f.title, f.headline);
        writeln!(out, "{rule}\n{name}: {title}\npaper: {headline}\n{rule}")?;
        let report = (f.run)(args);
        for line in &report.lines {
            writeln!(out, "{line}")?;
        }
        reports.push(report);
    }
    Ok(reports)
}
