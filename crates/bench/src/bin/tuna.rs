//! `tuna` — command-line driver for single tuning runs and the paper's
//! figures.
//!
//! The reproduction's equivalent of the artifact's `TUNA.py`: pick a
//! workload, a sampling method and budgets, get the tuning trace summary
//! and the deployment distribution. `tuna figures` regenerates the
//! paper's tables, figures and ablations ([`tuna_bench::figures`]).
//!
//! ```text
//! tuna --workload tpcc --method tuna --rounds 96 --seed 42
//! tuna --workload ycsb-c --method traditional --region centralus
//! tuna --workload tpcc --method tuna --sku c220g5 --region cloudlab
//! tuna figures --only fig12 fig20 --quick
//! ```

use tuna_bench::{fail, HarnessArgs};
use tuna_cloudsim::{Region, VmSku};
use tuna_core::experiment::{Experiment, Method, SolverId};
use tuna_core::report::deploy_line;

fn usage() -> ! {
    eprintln!(
        "usage: tuna [--workload tpcc|epinions|tpch|mssales|ycsb-c|wikipedia]\n\
         \x20           [--method tuna|traditional|naive|no-outlier|no-adjuster|default]\n\
         \x20           [--optimizer smac|gp|random] [--rounds N] [--seed N]\n\
         \x20           [--region westus2|eastus|centralus|cloudlab]\n\
         \x20           [--sku d8s_v5|b8ms|c220g5] [--deploy-vms N]\n\
         {}",
        tuna_bench::USAGE
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("figures") {
        let args = HarnessArgs::parse_from(&argv[1..]).unwrap_or_else(|e| fail(&e));
        tuna_bench::figures::run(&args, &mut std::io::stdout()).expect("write to stdout");
        return;
    }
    let mut workload = tuna_workloads::tpcc();
    let mut method = Method::Tuna;
    let mut exp = Experiment::paper_default(workload.clone());
    let mut seed = 42u64;

    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        // Tuning rounds and deployment VMs: a run needs at least one.
        let count = |i: usize| match need(i).parse() {
            Ok(0) | Err(_) => usage(),
            Ok(n) => n,
        };
        match argv[i].as_str() {
            "--workload" => {
                workload = match need(i).as_str() {
                    "tpcc" => tuna_workloads::tpcc(),
                    "epinions" => tuna_workloads::epinions(),
                    "tpch" => tuna_workloads::tpch(),
                    "mssales" => tuna_workloads::mssales(),
                    "ycsb-c" => tuna_workloads::ycsb_c(),
                    "wikipedia" => tuna_workloads::wikipedia(),
                    _ => usage(),
                };
                i += 1;
            }
            "--method" => {
                method = match need(i).as_str() {
                    "tuna" => Method::Tuna,
                    "traditional" => Method::Traditional,
                    "naive" => Method::NaiveDistributed { samples: 500 },
                    "no-outlier" => Method::TunaNoOutlier,
                    "no-adjuster" => Method::TunaNoAdjuster,
                    "default" => Method::DefaultConfig,
                    _ => usage(),
                };
                i += 1;
            }
            "--optimizer" => {
                exp.optimizer = SolverId::new(&need(i)).unwrap_or_else(|_| usage());
                i += 1;
            }
            "--rounds" => {
                exp.rounds = count(i);
                i += 1;
            }
            "--seed" => {
                seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--region" => {
                exp.region = match need(i).as_str() {
                    "westus2" => Region::westus2(),
                    "eastus" => Region::eastus(),
                    "centralus" => Region::centralus(),
                    "cloudlab" => Region::cloudlab(),
                    _ => usage(),
                };
                i += 1;
            }
            "--sku" => {
                exp.sku = match need(i).as_str() {
                    "d8s_v5" => VmSku::d8s_v5(),
                    "b8ms" => VmSku::b8ms(),
                    "c220g5" => VmSku::c220g5(),
                    _ => usage(),
                };
                i += 1;
            }
            "--deploy-vms" => {
                exp.deploy_vms = count(i);
                i += 1;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    exp.workload = workload.clone();

    println!(
        "tuning {} / {} with {} ({} rounds, {} on {}, seed {seed})",
        exp.make_sut().name(),
        workload.name,
        method.name(),
        exp.rounds,
        exp.sku.name,
        exp.region.name
    );
    // lint:allow(wall-clock): CLI progress reporting only — the elapsed
    // time is printed to the user and never feeds the tuning result.
    let t0 = std::time::Instant::now();
    let summary = exp.run(method, seed);
    let elapsed = t0.elapsed();

    if let Some(tuning) = &summary.tuning {
        println!(
            "search: {} configs over {} samples; {} flagged unstable; reported best {:.1} {}",
            tuning.n_configs,
            tuning.total_samples,
            tuning.n_unstable_configs,
            tuning.best_value,
            workload.metric.unit()
        );
    }
    println!("best config: {}", summary.best_config);
    println!("{}", deploy_line("deployment", &summary.deployment));
    let stable = summary.deployment.relative_range <= 0.30;
    println!(
        "stability: relative range {:.1}% — {}",
        summary.deployment.relative_range * 100.0,
        if stable { "STABLE" } else { "UNSTABLE" }
    );
    println!("({elapsed:.1?} simulated-run wall time)");
}
