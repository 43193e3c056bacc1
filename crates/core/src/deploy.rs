//! Deployment evaluation (§6 protocol).
//!
//! The paper's headline comparison is *not* tuning-time performance: the
//! best config found by each method is deployed onto a set of ten fresh
//! VMs and the distribution of its performance there is reported (mean,
//! standard deviation, boxplots). Crashed runs are replaced by a
//! conservative penalty — the worst value the default config produced —
//! following the §6.4 methodology.

use crate::executor::{self, ExecutionMode, RunRequest};
use tuna_cloudsim::Cluster;
use tuna_space::Config;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_stats::summary::{self, FiveNumber};
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

/// Deployment outcome of one configuration.
#[derive(Debug, Clone)]
pub struct DeployStats {
    /// All measured values (repeats × VMs), crash-penalized.
    pub values: Vec<f64>,
    /// Mean value.
    pub mean: f64,
    /// Standard deviation across deployment measurements — the paper's
    /// stability metric.
    pub std: f64,
    /// Boxplot statistics.
    pub five: FiveNumber,
    /// Number of crashed runs.
    pub crashes: usize,
    /// Relative range across deployment VMs.
    pub relative_range: f64,
}

/// Deploys `config` on `n_vms` freshly provisioned machines (derived from
/// `base_cluster` with decorrelated placements), measuring `repeats` epochs
/// per VM. Crashed runs contribute `crash_penalty` instead of their value.
///
/// Each deployment VM is one executor lane running `repeats` epochs in
/// order under `mode`, and per-run randomness is forked from `rng` by
/// `(config, deploy_label, vm, repeat)` — so the measured distribution is
/// bit-identical for any worker count.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_deployment_with(
    mode: ExecutionMode,
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    config: &Config,
    base_cluster: &Cluster,
    deploy_label: u64,
    n_vms: usize,
    repeats: usize,
    crash_penalty: f64,
    rng: &Rng,
) -> DeployStats {
    let mut cluster = base_cluster.fresh_cluster(n_vms, deploy_label);
    let requests: Vec<RunRequest<'_>> = (0..n_vms)
        .flat_map(|i| {
            (0..repeats).map(move |r| RunRequest {
                config,
                machine: i,
                stream: hash_combine(
                    config.id().0,
                    hash_combine(deploy_label, hash_combine(i as u64, r as u64)),
                ),
            })
        })
        .collect();
    let (outcomes, _) = executor::execute_batch(mode, sut, workload, &mut cluster, rng, &requests);
    let mut values = Vec::with_capacity(n_vms * repeats);
    let mut crashes = 0;
    for outcome in outcomes {
        if outcome.crashed {
            crashes += 1;
            values.push(crash_penalty);
        } else {
            values.push(outcome.value);
        }
    }
    DeployStats {
        mean: summary::mean(&values),
        std: summary::std_dev(&values),
        five: FiveNumber::of(&values),
        relative_range: summary::relative_range(&values),
        crashes,
        values,
    }
}

/// Profiles the default configuration on fresh nodes and returns the
/// *worst* observed value (orientation-aware) — the §6.4 crash penalty.
pub fn default_worst_case_with(
    mode: ExecutionMode,
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    base_cluster: &Cluster,
    rng: &Rng,
) -> f64 {
    let stats = evaluate_deployment_with(
        mode,
        sut,
        workload,
        &sut.default_config(),
        base_cluster,
        0xDEFA_0000,
        5,
        2,
        // Crashes during profiling contribute a baseline-derived backstop.
        workload.metric.nominal() * 2.0,
        rng,
    );
    if workload.metric.higher_is_better() {
        stats.five.min
    } else {
        stats.five.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_cloudsim::{Region, VmSku};
    use tuna_sut::postgres::Postgres;
    use tuna_sut::redis::Redis;
    use tuna_sut::SystemUnderTest;

    fn base() -> Cluster {
        Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 9)
    }

    #[test]
    fn deployment_shapes() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let rng = Rng::seed_from(1);
        let stats = evaluate_deployment_with(
            ExecutionMode::Serial,
            &pg,
            &w,
            &pg.default_config(),
            &base(),
            1,
            10,
            3,
            1.0,
            &rng,
        );
        assert_eq!(stats.values.len(), 30);
        assert!(stats.mean > 500.0);
        assert!(stats.std >= 0.0);
        assert!(stats.five.min <= stats.five.max);
        assert_eq!(stats.crashes, 0);
    }

    #[test]
    fn different_labels_different_vms() {
        let pg = Postgres::new();
        let w = tuna_workloads::tpcc();
        let rng = Rng::seed_from(2);
        let a = evaluate_deployment_with(
            ExecutionMode::Serial,
            &pg,
            &w,
            &pg.default_config(),
            &base(),
            1,
            10,
            1,
            1.0,
            &rng,
        );
        let b = evaluate_deployment_with(
            ExecutionMode::Serial,
            &pg,
            &w,
            &pg.default_config(),
            &base(),
            2,
            10,
            1,
            1.0,
            &rng,
        );
        assert_ne!(a.values, b.values);
    }

    #[test]
    fn redis_crashes_replaced_by_penalty() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        // Force frequent crashes: noeviction below dataset size.
        let broken = rd.default_config().with(
            rd.space().index_of("maxmemory_mb").unwrap(),
            tuna_space::ParamValue::Int(4_096),
        );
        let rng = Rng::seed_from(3);
        let penalty = 0.908;
        let stats = evaluate_deployment_with(
            ExecutionMode::Serial,
            &rd,
            &w,
            &broken,
            &base(),
            3,
            10,
            2,
            penalty,
            &rng,
        );
        assert_eq!(stats.crashes, 20);
        assert!(stats.values.iter().all(|&v| v == penalty));
    }

    #[test]
    fn default_worst_case_orientation() {
        let pg = Postgres::new();
        let rng = Rng::seed_from(4);
        // Throughput: worst = lowest.
        let tpcc = tuna_workloads::tpcc();
        let worst_tps = default_worst_case_with(ExecutionMode::Serial, &pg, &tpcc, &base(), &rng);
        assert!(worst_tps < 900.0 && worst_tps > 300.0, "{worst_tps}");
        // Runtime: worst = highest.
        let tpch = tuna_workloads::tpch();
        let worst_rt = default_worst_case_with(ExecutionMode::Serial, &pg, &tpch, &base(), &rng);
        assert!(worst_rt > 100.0, "{worst_rt}");
    }
}
