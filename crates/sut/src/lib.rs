//! Systems-under-test for the TUNA reproduction.
//!
//! Each SuT is an analytic performance model over a typed knob space,
//! evaluated against a simulated [`Machine`]: the model maps a
//! configuration to per-component *service demands* and efficiency
//! multipliers, composes them with the machine's momentary component speeds
//! (a serial-demand bottleneck model), and returns the workload's metric
//! plus the guest metrics the noise adjuster trains on.
//!
//! The star of the show is the PostgreSQL model's **query-planner flip**
//! (§3.2.1): for plan-sensitive workloads, configurations whose two
//! candidate JOIN plans have near-equal estimated cost pick their actual
//! plan per (machine, run) — well-placed machines always pick the good
//! plan, while on others small cost-model perturbations tip the choice to a
//! plan that is an order of magnitude slower. This is the mechanism behind
//! the paper's *unstable configurations*.
//!
//! # Examples
//!
//! ```
//! use tuna_cloudsim::{Cluster, Region, VmSku};
//! use tuna_stats::rng::Rng;
//! use tuna_sut::postgres::Postgres;
//! use tuna_sut::SystemUnderTest;
//!
//! let pg = Postgres::new();
//! let mut cluster = Cluster::new(1, VmSku::d8s_v5(), Region::westus2(), 7);
//! let outcome = pg.run(
//!     &pg.default_config(),
//!     &tuna_workloads::tpcc(),
//!     cluster.machine_mut(0),
//!     &mut Rng::seed_from(1),
//! );
//! // Default TPC-C throughput lands near the paper's ~848 tx/s.
//! assert!(outcome.value > 700.0 && outcome.value < 1000.0);
//! ```

pub mod nginx;
pub mod planner;
pub mod postgres;
pub mod redis;

use tuna_cloudsim::machine::{Machine, Snapshot};
use tuna_metrics::MetricVector;
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;
use tuna_workloads::{TargetSystem, Workload};

/// Result of evaluating one configuration for one measurement epoch.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The workload metric value (tx/s, seconds, or ms — see
    /// [`Workload::metric`]).
    pub value: f64,
    /// Whether the SuT crashed during the run (e.g. Redis OOM). The value
    /// is still populated with the pre-crash estimate but must be treated
    /// as invalid by the sampling layer.
    pub crashed: bool,
    /// Guest-OS metrics collected during the run.
    pub metrics: MetricVector,
    /// The machine snapshot of the epoch.
    pub snapshot: Snapshot,
    /// Performance relative to the default config on a nominal machine
    /// (diagnostic; the noise-free signal an oracle would see).
    pub relative_perf: f64,
}

/// A tunable system that can execute workloads on simulated machines.
///
/// `Send + Sync` is a supertrait requirement: the parallel trial-execution
/// engine shares one SuT across worker threads (each worker runs it
/// against a disjoint machine lane), so implementations must be
/// thread-shareable — in practice, plain immutable model data. All
/// run-level mutability lives in the `machine` and `rng` arguments.
pub trait SystemUnderTest: Send + Sync {
    /// System name.
    fn name(&self) -> &'static str;

    /// The knob space.
    fn space(&self) -> &ConfigSpace;

    /// The vendor-default configuration.
    fn default_config(&self) -> Config;

    /// Whether this SuT can run `workload`.
    fn supports(&self, workload: &Workload) -> bool;

    /// Evaluates `config` under `workload` on `machine` for one
    /// measurement epoch.
    ///
    /// `rng` drives run-level randomness (plan tipping, crash draws, tail
    /// noise); machine-level randomness lives inside `machine`.
    fn run(
        &self,
        config: &Config,
        workload: &Workload,
        machine: &mut Machine,
        rng: &mut Rng,
    ) -> RunOutcome;
}

/// Builds the SuT a workload's [`TargetSystem`] names.
pub fn for_target(target: TargetSystem) -> Box<dyn SystemUnderTest> {
    match target {
        TargetSystem::Postgres => Box::new(postgres::Postgres::new()),
        TargetSystem::Redis => Box::new(redis::Redis::new()),
        TargetSystem::Nginx => Box::new(nginx::Nginx::new()),
    }
}

/// Converts a metric value to "higher is better" orientation for internal
/// comparisons (used by tests and reports).
pub fn oriented(workload: &Workload, value: f64) -> f64 {
    if workload.metric.higher_is_better() {
        value
    } else {
        -value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nginx::Nginx;
    use crate::postgres::Postgres;
    use crate::redis::Redis;

    #[test]
    fn support_matrix() {
        let pg = Postgres::new();
        let rd = Redis::new();
        let ng = Nginx::new();
        assert!(pg.supports(&tuna_workloads::tpcc()));
        assert!(pg.supports(&tuna_workloads::mssales()));
        assert!(!pg.supports(&tuna_workloads::ycsb_c()));
        assert!(rd.supports(&tuna_workloads::ycsb_c()));
        assert!(!rd.supports(&tuna_workloads::tpcc()));
        assert!(ng.supports(&tuna_workloads::wikipedia()));
        assert!(!ng.supports(&tuna_workloads::tpch()));
    }

    #[test]
    fn suts_and_run_inputs_are_thread_shareable() {
        // The parallel executor moves `&mut Machine` lanes into worker
        // threads and shares `&dyn SystemUnderTest` + `&Workload` across
        // them; every piece must be Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Postgres>();
        assert_send_sync::<Redis>();
        assert_send_sync::<Nginx>();
        assert_send_sync::<tuna_workloads::Workload>();
        assert_send_sync::<tuna_cloudsim::machine::Machine>();
        assert_send_sync::<RunOutcome>();
        assert_send_sync::<&dyn SystemUnderTest>();
    }

    #[test]
    fn oriented_flips_minimization() {
        assert_eq!(oriented(&tuna_workloads::tpcc(), 5.0), 5.0);
        assert_eq!(oriented(&tuna_workloads::tpch(), 5.0), -5.0);
    }
}
