//! Workload models for the TUNA reproduction.
//!
//! A [`Workload`] characterizes what the tuner only ever sees indirectly:
//! the resource-demand mix (which determines how much cloud noise a
//! measurement absorbs), the JOIN/plan sensitivity (which determines how
//! much of the configuration space is *unstable*, §3.2.1) and the metric
//! being optimized. The six presets match §6:
//!
//! | Workload | SuT | Metric | Character |
//! |----------|-----|--------|-----------|
//! | [`tpcc`] | PostgreSQL | throughput | OLTP, one plan-sensitive JOIN |
//! | [`epinions`] | PostgreSQL | throughput | OLTP, simpler queries |
//! | [`tpch`] | PostgreSQL | runtime | OLAP, many easy JOINs |
//! | [`mssales`] | PostgreSQL | runtime | production OLAP, complex JOINs |
//! | [`ycsb_c`] | Redis | p95 latency | read-only Zipfian |
//! | [`wikipedia`] | NGINX | p95 latency | top-500 page serving |

use tuna_cloudsim::components::ComponentVec;

/// The metric a workload optimizes and its nominal (default-config,
/// nominal-machine) value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricKind {
    /// Transactions (or requests) per second; higher is better.
    ThroughputTps {
        /// Default-config throughput on a nominal machine.
        nominal: f64,
    },
    /// Workload completion time in seconds; lower is better.
    RuntimeSeconds {
        /// Default-config runtime on a nominal machine.
        nominal: f64,
    },
    /// 95th-percentile request latency in milliseconds; lower is better.
    P95LatencyMs {
        /// Default-config p95 latency on a nominal machine.
        nominal: f64,
    },
}

impl MetricKind {
    /// Whether larger values are better.
    pub fn higher_is_better(&self) -> bool {
        matches!(self, MetricKind::ThroughputTps { .. })
    }

    /// The nominal value.
    pub fn nominal(&self) -> f64 {
        match self {
            MetricKind::ThroughputTps { nominal }
            | MetricKind::RuntimeSeconds { nominal }
            | MetricKind::P95LatencyMs { nominal } => *nominal,
        }
    }

    /// Unit label for reports.
    pub fn unit(&self) -> &'static str {
        match self {
            MetricKind::ThroughputTps { .. } => "tx/s",
            MetricKind::RuntimeSeconds { .. } => "s",
            MetricKind::P95LatencyMs { .. } => "ms",
        }
    }
}

/// Which SuT a workload targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSystem {
    /// PostgreSQL-style RDBMS.
    Postgres,
    /// Redis-style in-memory KV store.
    Redis,
    /// NGINX-style web server.
    Nginx,
}

/// A workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Target system.
    pub target: TargetSystem,
    /// Per-component utilization at the default configuration.
    pub demand: ComponentVec,
    /// Optimized metric.
    pub metric: MetricKind,
    /// Fraction of work flowing through the plan-sensitive JOIN path.
    pub join_fraction: f64,
    /// Actual slowdown of the JOIN path when the bad plan is picked (the
    /// paper observed two orders of magnitude on the plan itself; the
    /// end-to-end factor depends on `join_fraction`).
    pub bad_plan_slowdown: f64,
    /// Width of the near-tie region of the planner cost model, as a
    /// fraction of configuration space (drives how many configs are
    /// unstable).
    pub plan_sensitivity: f64,
    /// Working-set size in MB (drives buffer-sizing knob response).
    pub working_set_mb: f64,
    /// Dataset size in MB (for memory-capacity effects).
    pub dataset_mb: f64,
    /// Zipfian skew of key/page popularity (KV / web workloads).
    pub zipf_s: f64,
    /// Read fraction of the request mix.
    pub read_ratio: f64,
    /// Evaluation duration in 5-minute epochs (OLTP/latency: 1 epoch = the
    /// paper's 5-minute run; OLAP runtimes are shorter but keep an epoch).
    pub eval_epochs: usize,
    /// Scales how much configuration tuning can move performance: 1.0
    /// keeps the raw model response; < 1 flattens it (epinions's small
    /// headroom in §6.1), > 1 amplifies it (mssales's 2.39x best case).
    pub tuning_headroom: f64,
}

/// TPC-C on PostgreSQL: the §3.2.1 case study. One JOIN query whose two
/// candidate plans are estimated nearly equal — the root cause of unstable
/// configs.
pub fn tpcc() -> Workload {
    Workload {
        name: "tpcc",
        target: TargetSystem::Postgres,
        demand: ComponentVec::new(0.55, 0.85, 0.50, 0.30, 0.22),
        metric: MetricKind::ThroughputTps { nominal: 848.0 },
        join_fraction: 0.085,
        bad_plan_slowdown: 30.0,
        plan_sensitivity: 0.55,
        working_set_mb: 9_000.0,
        dataset_mb: 22_000.0,
        zipf_s: 0.0,
        read_ratio: 0.65,
        eval_epochs: 1,
        tuning_headroom: 1.25,
    }
}

/// epinions on PostgreSQL: simpler OLTP queries; higher cache/memory
/// sensitivity makes its convergence the noise-study workload of Figure 2.
pub fn epinions() -> Workload {
    Workload {
        name: "epinions",
        target: TargetSystem::Postgres,
        demand: ComponentVec::new(0.60, 0.55, 0.65, 0.60, 0.35),
        metric: MetricKind::ThroughputTps { nominal: 30_855.0 },
        join_fraction: 0.04,
        bad_plan_slowdown: 10.0,
        plan_sensitivity: 0.35,
        working_set_mb: 5_000.0,
        dataset_mb: 9_000.0,
        zipf_s: 0.0,
        read_ratio: 0.85,
        eval_epochs: 1,
        tuning_headroom: 0.33,
    }
}

/// TPC-H on PostgreSQL: analytical, many relatively easy JOINs — the
/// planner rarely sits near a tie, so unstable configs are not a factor
/// (§6.1's observation).
pub fn tpch() -> Workload {
    Workload {
        name: "tpch",
        target: TargetSystem::Postgres,
        demand: ComponentVec::new(0.80, 0.70, 0.75, 0.40, 0.20),
        metric: MetricKind::RuntimeSeconds { nominal: 114.5 },
        join_fraction: 0.45,
        bad_plan_slowdown: 2.2,
        plan_sensitivity: 0.06,
        working_set_mb: 14_000.0,
        dataset_mb: 30_000.0,
        zipf_s: 0.0,
        read_ratio: 1.0,
        eval_epochs: 1,
        tuning_headroom: 1.0,
    }
}

/// mssales on PostgreSQL: Microsoft's production OLAP workload with many
/// *complex* JOINs — large tuning headroom and heavy use of the
/// high-variance components, which is why traditional sampling stalls on
/// it (§6.1).
pub fn mssales() -> Workload {
    Workload {
        name: "mssales",
        target: TargetSystem::Postgres,
        demand: ComponentVec::new(0.70, 0.60, 0.65, 0.55, 0.35),
        metric: MetricKind::RuntimeSeconds { nominal: 79.4 },
        join_fraction: 0.60,
        bad_plan_slowdown: 3.0,
        plan_sensitivity: 0.30,
        working_set_mb: 11_000.0,
        dataset_mb: 26_000.0,
        zipf_s: 0.0,
        read_ratio: 1.0,
        eval_epochs: 1,
        tuning_headroom: 1.15,
    }
}

/// YCSB-C on Redis: read-only, Zipfian key popularity, optimizing p95
/// latency (§6.4).
pub fn ycsb_c() -> Workload {
    Workload {
        name: "ycsb-c",
        target: TargetSystem::Redis,
        demand: ComponentVec::new(0.75, 0.05, 0.80, 0.65, 0.45),
        metric: MetricKind::P95LatencyMs { nominal: 0.620 },
        join_fraction: 0.0,
        bad_plan_slowdown: 1.0,
        plan_sensitivity: 0.0,
        working_set_mb: 20_000.0,
        dataset_mb: 26_000.0,
        zipf_s: 0.99,
        read_ratio: 1.0,
        eval_epochs: 1,
        tuning_headroom: 0.35,
    }
}

/// Wikipedia top-500 page serving on NGINX, including media, optimizing
/// p95 whole-page latency (§6.4).
pub fn wikipedia() -> Workload {
    Workload {
        name: "wikipedia-top500",
        target: TargetSystem::Nginx,
        demand: ComponentVec::new(0.55, 0.25, 0.50, 0.45, 0.60),
        metric: MetricKind::P95LatencyMs { nominal: 69.7 },
        join_fraction: 0.0,
        bad_plan_slowdown: 1.0,
        plan_sensitivity: 0.0,
        working_set_mb: 4_500.0,
        dataset_mb: 6_000.0,
        zipf_s: 0.80,
        read_ratio: 1.0,
        eval_epochs: 1,
        tuning_headroom: 1.0,
    }
}

/// All six evaluation workloads.
pub fn all_workloads() -> Vec<Workload> {
    vec![tpcc(), epinions(), tpch(), mssales(), ycsb_c(), wikipedia()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_with_unique_names() {
        let all = all_workloads();
        assert_eq!(all.len(), 6);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn metric_directions() {
        assert!(tpcc().metric.higher_is_better());
        assert!(epinions().metric.higher_is_better());
        assert!(!tpch().metric.higher_is_better());
        assert!(!mssales().metric.higher_is_better());
        assert!(!ycsb_c().metric.higher_is_better());
        assert!(!wikipedia().metric.higher_is_better());
    }

    #[test]
    fn nominals_match_paper_defaults() {
        // Default-config values recoverable from §6.1/§6.4 percentages.
        assert!((tpcc().metric.nominal() - 848.0).abs() < 1.0);
        assert!((tpch().metric.nominal() - 114.5).abs() < 1.0);
        assert!((mssales().metric.nominal() - 79.4).abs() < 0.1);
        assert!((wikipedia().metric.nominal() - 69.7).abs() < 0.1);
    }

    #[test]
    fn tpcc_is_plan_sensitive_tpch_is_not() {
        assert!(tpcc().plan_sensitivity > 0.3);
        assert!(tpch().plan_sensitivity < 0.1);
    }

    #[test]
    fn demands_are_utilizations() {
        for w in all_workloads() {
            for (c, v) in w.demand.iter() {
                assert!((0.0..=1.0).contains(&v), "{} {c} = {v}", w.name);
            }
        }
    }

    #[test]
    fn mssales_heavy_on_noisy_components() {
        // The production workload leans on cache + memory — the noisy
        // components — which is what makes traditional tuning stall.
        let w = mssales();
        assert!(w.demand.cache > 0.5);
        assert!(w.demand.memory > 0.6);
    }

    #[test]
    fn bad_plan_end_to_end_factor_in_paper_range() {
        // End-to-end degradation when the bad plan is picked:
        // 1 / (1 - jf + jf * slowdown). TPC-C should land in the 30-76%
        // degradation band reported in §3.2.1.
        let w = tpcc();
        let factor = 1.0 / (1.0 - w.join_fraction + w.join_fraction * w.bad_plan_slowdown);
        let degradation = 1.0 - factor;
        assert!(
            (0.30..=0.76).contains(&degradation),
            "degradation {degradation}"
        );
    }

    #[test]
    fn units() {
        assert_eq!(tpcc().metric.unit(), "tx/s");
        assert_eq!(tpch().metric.unit(), "s");
        assert_eq!(ycsb_c().metric.unit(), "ms");
    }
}
