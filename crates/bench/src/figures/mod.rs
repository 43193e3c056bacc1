//! The paper's figures, tables and ablations as declarations.
//!
//! Each [`Figure`] pairs a selection ID and the banner it prints with the
//! body that runs its experiment and prints the rows or series the paper
//! plots, annotated with the paper's reported values. [`FIGURES`] lists
//! them; [`run`] regenerates a selection of them in that order, which is
//! what `tuna figures [--only ID..]` does.

use crate::HarnessArgs;
use tuna_cloudsim::study::{run_study, StudyConfig, StudyReport};

mod ablation_aggregation;
mod ablation_cluster_size;
mod ablation_threshold;
mod arena_solvers;
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
mod table1;

/// The three banner lines a figure prints before its body.
#[derive(Debug, Clone, Copy)]
pub struct Banner {
    /// Display name, e.g. `"Figure 12"`.
    pub name: &'static str,
    /// What the figure shows.
    pub title: &'static str,
    /// The paper's headline claim for it.
    pub claim: &'static str,
}

impl Banner {
    /// Prints the banner.
    pub fn print(&self) {
        println!("==================================================================");
        println!("{}: {}", self.name, self.title);
        println!("paper: {}", self.claim);
        println!("==================================================================");
    }
}

/// One regenerator: its `--only` ID, its banner and its body.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Selection ID (`fig02`, `table1`, `ablation_threshold`, ...).
    pub id: &'static str,
    /// Printed before the body.
    pub banner: Banner,
    /// Runs the experiment and prints the figure.
    pub run: fn(&HarnessArgs),
}

/// Every figure, in the order `tuna figures` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig02",
        banner: Banner {
            name: "Figure 2",
            title: "Optimizer convergence vs synthetic noise (epinions, SMAC)",
            claim: "0->5% noise slows time-to-optimal 2.50x; 0->10% slows 4.35x",
        },
        run: fig02::run,
    },
    Figure {
        id: "fig03",
        banner: Banner {
            name: "Figure 3",
            title: "PostgreSQL / Redis benchmark variance: burstable vs non-burstable",
            claim: "burstable VMs show higher variance and a bimodal distribution",
        },
        run: fig03::run,
    },
    Figure {
        id: "fig04",
        banner: Banner {
            name: "Figure 4",
            title: "Component microbenchmark variance (short-lived D8s_v5 fleet)",
            claim: "CoV: CPU 0.17%, Disk 0.36%, Mem 4.92%, OS 9.82%, Cache 14.39%",
        },
        run: fig04::run,
    },
    Figure {
        id: "fig05",
        banner: Banner {
            name: "Figure 5",
            title: "Unstable configurations during tuning and at deployment (TPC-C)",
            claim: "39% of seen configs unstable; 13/30 best configs unstable on transfer; up to 76% degradation",
        },
        run: fig05::run,
    },
    Figure {
        id: "fig06",
        banner: Banner {
            name: "Figure 6",
            title: "MLC memory bandwidth: one long-running VM vs the short-lived fleet (westus2)",
            claim: "long-running VM misses the across-placement variance the fleet sees",
        },
        run: fig06::run,
    },
    Figure {
        id: "fig08",
        banner: Banner {
            name: "Figure 8",
            title: "Density of relative ranges over configs seen during tuning (10 nodes each)",
            claim: "threshold at 30% sits in the trough between stable and unstable peaks",
        },
        run: fig08::run,
    },
    Figure {
        id: "fig09",
        banner: Banner {
            name: "Figure 9",
            title: "Chance of detecting unstable configs vs number of nodes sampled",
            claim: "cluster of 10 nodes detects all unstable configs with ~95% confidence",
        },
        run: fig09::run,
    },
    Figure {
        id: "fig11",
        banner: Banner {
            name: "Figure 11",
            title: "PostgreSQL tuned configs deployed on new VMs (4 workloads)",
            claim: "TUNA improves performance, reduces variability, or both, on every workload",
        },
        run: fig11::run,
    },
    Figure {
        id: "fig12",
        banner: Banner {
            name: "Figure 12",
            title: "TPC-C on PostgreSQL tuned and deployed in centralus",
            claim: "TUNA 2321 tx/s σ113 vs traditional 2239 tx/s σ267.7 (57.8% lower std)",
        },
        run: fig12::run,
    },
    Figure {
        id: "fig13",
        banner: Banner {
            name: "Figure 13",
            title: "TPC-C on PostgreSQL, CloudLab c220g5 bare metal",
            claim: "TUNA 5756 tx/s (19.1x default) vs traditional 5380 tx/s (17.8x); trad 7.71x std",
        },
        run: fig13::run,
    },
    Figure {
        id: "fig14",
        banner: Banner {
            name: "Figure 14",
            title: "Redis serving YCSB-C: tuned configs deployed on new VMs (p95 ms)",
            claim: "TUNA never crashes; std 86.8% lower than traditional; mean ~= default",
        },
        run: fig14::run,
    },
    Figure {
        id: "fig15",
        banner: Banner {
            name: "Figure 15",
            title: "NGINX serving Wikipedia Top-500: tuned configs on new VMs (p95 ms)",
            claim: "TUNA 42.6 ms vs traditional 46.6 ms vs default 69.7 ms; TUNA std 63.3% lower",
        },
        run: fig15::run,
    },
    Figure {
        id: "fig16",
        banner: Banner {
            name: "Figure 16",
            title: "Equal-cost: TUNA vs traditional extended to the same sample count (TPC-C)",
            claim: "TUNA +9.2% mean with 87.8% lower std at equal budgets of 500",
        },
        run: fig16::run,
    },
    Figure {
        id: "fig17",
        banner: Banner {
            name: "Figure 17",
            title: "Convergence: TUNA vs naive distributed (every config on every node)",
            claim: "TUNA matches naive's 500-sample result in ~206 samples (2.47x faster)",
        },
        run: fig17::run,
    },
    Figure {
        id: "fig18",
        banner: Banner {
            name: "Figure 18",
            title: "TPC-C tuned with a Gaussian-process optimizer",
            claim: "TUNA +53.1% performance with 89.5% lower std than traditional (both GP)",
        },
        run: fig18::run,
    },
    Figure {
        id: "fig19",
        banner: Banner {
            name: "Figure 19",
            title: "Noise-adjuster ablation on epinions",
            claim: "(a) 13.3% faster convergence with the model; (b) 4.87% -> 1.99% error past midpoint",
        },
        run: fig19::run,
    },
    Figure {
        id: "fig20",
        banner: Banner {
            name: "Figure 20",
            title: "TUNA with and without the unstable-config detector (TPC-C)",
            claim: "without detector: +8.5% mean but 10.1x the deployment variability",
        },
        run: fig20::run,
    },
    Figure {
        id: "table1",
        banner: Banner {
            name: "Table 1",
            title: "Cloud measurement studies compared; 'This Work' regenerated from the simulator",
            claim: "68 weeks, 7037k samples, 43641 instances, disk/memory/CPU/OS covered",
        },
        run: table1::run,
    },
    Figure {
        id: "ablation_aggregation",
        banner: Banner {
            name: "Ablation: aggregation",
            title: "TUNA with min / mean / median / max sample aggregation (TPC-C)",
            claim: "§4.4: min correctly penalizes unstable configs and optimizes the worst case",
        },
        run: ablation_aggregation::run,
    },
    Figure {
        id: "ablation_cluster_size",
        banner: Banner {
            name: "Ablation: cluster size",
            title: "TUNA with tuning clusters of 3 / 5 / 10 / 15 nodes (TPC-C, equal samples)",
            claim: "§5.1: 10 nodes balances detection confidence against sample cost",
        },
        run: ablation_cluster_size::run,
    },
    Figure {
        id: "ablation_threshold",
        banner: Banner {
            name: "Ablation: threshold",
            title: "TUNA outlier-detector threshold sweep (TPC-C)",
            claim: "§4.2: anything in 15-30% is reasonable; too-loose thresholds leak unstable configs",
        },
        run: ablation_threshold::run,
    },
    Figure {
        id: "arena_solvers",
        banner: Banner {
            name: "Arena study",
            title: "TPC-C across (noise regime x solver) head-to-head arenas",
            claim: "match-based noise cancellation vs TUNA filtering as regions get noisier",
        },
        run: arena_solvers::run,
    },
];

/// The longitudinal measurement study at the budget `args` picks (the
/// data behind fig03, fig04, fig06 and table1).
fn study(args: &HarnessArgs) -> StudyReport {
    let mut cfg = if args.quick {
        StudyConfig::quick()
    } else if args.full {
        StudyConfig::full_scale()
    } else {
        StudyConfig::scaled_default()
    };
    cfg.seed = args.seed;
    run_study(&cfg)
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
/// in [`FIGURES`] order, each banner first.
pub fn run(args: &HarnessArgs) {
    let selected = FIGURES
        .iter()
        .filter(|f| args.only.is_empty() || args.only.iter().any(|id| id == f.id));
    for figure in selected {
        figure.banner.print();
        (figure.run)(args);
    }
}
