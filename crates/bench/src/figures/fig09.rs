//! Figure 9 — unstable-config detection chance vs cluster size (§5.1).
//!
//! The paper sizes its cluster from the §3.2.1 data: for each *known
//! unstable configuration* (configs promoted during tuning whose
//! performance profile across nodes shows a wide relative range), compute
//! the chance that sampling `n` nodes reveals the instability, then the
//! chance that every unstable config of a whole tuning run is caught.
//! Ten nodes give ~95% confidence.

use std::ops::Range;

use super::report::{claim, Claim, FigureReport, Format::*};
use crate::{map_runs, HarnessArgs};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_core::report::render_table;
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::{Objective, Solver};
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary;
use tuna_sut::postgres::Postgres;
use tuna_sut::SystemUnderTest;

/// The census line prints the first claim's value.
#[rustfmt::skip]
static CLAIMS: [Claim; 2] = [
    claim("fig09.census", "top tuning configs unstable", "39.0% of seen", Some(0.39), Percent(1)),
    claim("fig09.confidence_10_nodes", "all-detected confidence at 10 nodes", "~95%", Some(0.95), Percent(1)),
];

pub fn run(args: &HarnessArgs) -> FigureReport {
    let tuning_runs = args.runs_or(2, 10);
    let rounds = args.rounds_or(40, 120);
    let max_nodes = 15usize;

    // §3.2.1 methodology: the paper's detection analysis uses the *known
    // unstable* configs — the well-performing configs tuning promotes
    // (their single-node measurements looked great exactly because they
    // flipped high on that node).
    let runs = census_runs(args.seed, rounds, 0..tuning_runs);
    let n_seen: usize = runs.iter().map(Vec::len).sum();
    let unstable_profiles: Vec<Vec<f64>> = runs
        .into_iter()
        .flatten()
        .map(|(_, profile)| profile)
        .filter(|profile| summary::relative_range(profile) > 0.30)
        .collect();
    let unstable_frac = unstable_profiles.len() as f64 / n_seen as f64;
    let mut report = FigureReport::default();
    report.claims.push((&CLAIMS[0], unstable_frac));
    report.line(format!(
        "census: {}/{} top tuning configs are unstable ({:.1}%; paper: 39.0% of seen, 13/30 of best)",
        unstable_profiles.len(),
        n_seen,
        unstable_frac * 100.0
    ));
    if unstable_profiles.is_empty() {
        report.line("no unstable configs found at this scale; rerun without --quick");
        return report;
    }

    // Detection chance: Monte-Carlo over node subsets of each profile,
    // each (node count, profile) on its own stream.
    let trials = 300;
    let mc_rng = Rng::seed_from(hash_combine(args.seed, 12));
    // Unstable configs that reach multi-node budgets per tuning run ==
    // the unstable share of each run's promoted stream.
    let per_run_unstable = (unstable_profiles.len() as f64 / tuning_runs as f64)
        .max(1.0)
        .round();
    let mut rows = super::header(&["nodes", "per-config detection", "all detected in a run"]);
    let mut chance_at = vec![0.0; max_nodes + 1];
    for (n, slot) in chance_at.iter_mut().enumerate().skip(1) {
        let mut detected = 0usize;
        let mut total = 0usize;
        for (k, profile) in unstable_profiles.iter().enumerate() {
            let mut rng = mc_rng.fork(hash_combine(n as u64, k as u64));
            for _ in 0..trials {
                let picks = rng.sample_indices(profile.len(), n);
                let sub: Vec<f64> = picks.iter().map(|&i| profile[i]).collect();
                if summary::relative_range(&sub) > 0.30 {
                    detected += 1;
                }
                total += 1;
            }
        }
        let p = detected as f64 / total as f64;
        *slot = p;
        rows.push(vec![
            format!("{n}"),
            format!("{:.1}%", p * 100.0),
            format!("{:.1}%", p.powf(per_run_unstable) * 100.0),
        ]);
    }
    report.line(render_table(&rows));
    report.line(format!(
        "(assuming ~{per_run_unstable:.0} unstable configs reach multi-node budgets per run)"
    ));
    report.claim(&CLAIMS[1], chance_at[10].powf(per_run_unstable), "");
    let monotone = (2..=max_nodes).all(|n| chance_at[n] + 1e-9 >= chance_at[n - 1]);
    report.line(format!("detection chance monotone in nodes: {monotone}"));
    report
}

/// Each tuning run in `runs` with its top-8 configs (the ones that would
/// reach multi-node budgets), each with its profile on the same 30 fresh
/// machines ([`super::profile`]). A run tunes traditionally (one node,
/// one sample per config) from a cluster and a generator seeded by
/// (`seed`, run), forking each round's run stream as
/// `tuna_core::baselines::run_traditional` does. So run `i`'s configs and
/// profiles are a pure function of (`seed`, `rounds`, `i`).
pub(crate) fn census_runs(
    seed: u64,
    rounds: usize,
    runs: Range<usize>,
) -> Vec<Vec<(tuna_space::ConfigId, Vec<f64>)>> {
    let pg = Postgres::new();
    let workload = tuna_workloads::tpcc();
    map_runs(runs.collect(), |run, _| {
        let run_seed = hash_combine(seed, 300 + run as u64);
        let mut cluster = Cluster::new(1, VmSku::d8s_v5(), Region::westus2(), run_seed);
        let mut rng = Rng::seed_from(hash_combine(run_seed, 11));
        let mut opt = SmacOptimizer::new(
            pg.space().clone(),
            Objective::Maximize,
            SmacParams {
                n_init: 10,
                n_random_candidates: 60,
                ..SmacParams::default()
            },
        );
        let mut measured: Vec<(f64, tuna_space::Config)> = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let s = opt.ask(&mut rng);
            let mut run_rng = rng.fork(hash_combine(round as u64, s.config.id().0));
            let out = pg.run(&s.config, &workload, cluster.machine_mut(0), &mut run_rng);
            opt.tell(&s.config, out.value, s.budget);
            measured.push((out.value, s.config));
        }
        measured.sort_by(|a, b| b.0.total_cmp(&a.0));
        measured
            .into_iter()
            .take(8)
            .map(|(_, config)| (config.id(), super::profile(seed, 11, 30, &config).values))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::census_runs;

    /// Asking for one more tuning run, or for a later slice of them,
    /// leaves every other run's top configs and their pool profiles
    /// bit-identical.
    #[test]
    fn census_runs_are_prefix_stable() {
        let bits = |runs: &[Vec<(tuna_space::ConfigId, Vec<f64>)>]| {
            runs.iter()
                .map(|run| {
                    run.iter()
                        .map(|(id, profile)| (*id, profile.iter().map(|v| v.to_bits()).collect()))
                        .collect()
                })
                .collect::<Vec<Vec<(tuna_space::ConfigId, Vec<u64>)>>>()
        };
        let (k, n, rounds) = (1, 2, 12);
        let longer = census_runs(42, rounds, 0..n + 1);
        assert_eq!(longer.iter().map(Vec::len).collect::<Vec<_>>(), [8, 8, 8]);
        assert_eq!(bits(&census_runs(42, rounds, 0..n)), bits(&longer[..n]));
        assert_eq!(bits(&census_runs(42, rounds, k..n)), bits(&longer[k..n]));
    }
}
