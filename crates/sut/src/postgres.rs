//! PostgreSQL 16-style performance model.
//!
//! Eighteen knobs spanning memory sizing, WAL/checkpoint behaviour, planner
//! cost constants and the `enable_*` planner switches the paper implicates
//! in unstable configurations (§3.2.1).
//!
//! The model composes three pieces:
//!
//! 1. **Service demands** — per-component utilizations derived from the
//!    workload's base demand and the knobs (buffer hit ratio removes random
//!    read IO, WAL tuning shrinks sequential write IO, undersized
//!    `work_mem` spills sorts to CPU + disk, ...). Throughput follows a
//!    serial-demand bottleneck law `1 / Σ_c D_c / speed_c`.
//! 2. **Efficiency multipliers** — planner cost constants and `enable_*`
//!    switches move a few percent each; the interesting one is
//!    `random_page_cost`, whose *stable* optimum sits just above the
//!    planner tie — the bait that lures single-node tuners into the
//!    unstable zone.
//! 3. **The planner flip** (see [`crate::planner`]) — the unstable-config
//!    mechanism.

use crate::planner::{self, PlanChoice};
use crate::{Positional, RunOutcome, SystemUnderTest};
use tuna_cloudsim::components::ComponentVec;
use tuna_cloudsim::machine::Machine;
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::{hash64, u64_to_unit_f64, Rng};
use tuna_workloads::{MetricKind, TargetSystem, Workload};

/// Exponent of the serial-demand law; >1 sharpens the config response (and
/// correspondingly amplifies how much component noise reaches the metric,
/// keeping measured CoVs in the paper's observed range).
const DEMAND_EXPONENT: f64 = 1.6;

/// Sequential IO (WAL) degrades much less than random IO on slow disks:
/// effective sequential scale is `disk_scale^SEQ_IO_EXPONENT`.
const SEQ_IO_EXPONENT: f64 = 0.3;

/// Typed view of a PostgreSQL configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgKnobs {
    /// `shared_buffers` in MB.
    pub shared_buffers_mb: f64,
    /// `work_mem` in MB.
    pub work_mem_mb: f64,
    /// `effective_cache_size` in MB.
    pub effective_cache_size_mb: f64,
    /// `wal_buffers` in MB.
    pub wal_buffers_mb: f64,
    /// `max_wal_size` in MB.
    pub max_wal_size_mb: f64,
    /// `checkpoint_completion_target`.
    pub checkpoint_completion_target: f64,
    /// `random_page_cost`.
    pub random_page_cost: f64,
    /// `seq_page_cost`.
    pub seq_page_cost: f64,
    /// `effective_io_concurrency`.
    pub effective_io_concurrency: f64,
    /// `max_connections`.
    pub max_connections: f64,
    /// `bgwriter_delay` in ms.
    pub bgwriter_delay_ms: f64,
    /// `default_statistics_target`.
    pub default_statistics_target: f64,
    /// `jit`.
    pub jit: bool,
    /// `enable_bitmapscan`.
    pub enable_bitmapscan: bool,
    /// `enable_hashjoin`.
    pub enable_hashjoin: bool,
    /// `enable_indexscan`.
    pub enable_indexscan: bool,
    /// `enable_nestloop`.
    pub enable_nestloop: bool,
    /// `enable_mergejoin`.
    pub enable_mergejoin: bool,
}

/// The PostgreSQL system-under-test.
#[derive(Debug, Clone)]
pub struct Postgres {
    space: ConfigSpace,
}

impl Default for Postgres {
    fn default() -> Self {
        Self::new()
    }
}

impl Postgres {
    /// Creates the SuT with its 18-knob space.
    pub fn new() -> Self {
        let space = ConfigSpace::builder()
            .int_log("shared_buffers_mb", 16, 24_576)
            .int_log("work_mem_mb", 1, 1_024)
            .int_log("effective_cache_size_mb", 64, 32_768)
            .int_log("wal_buffers_mb", 1, 256)
            .int_log("max_wal_size_mb", 256, 16_384)
            .float("checkpoint_completion_target", 0.1, 0.95)
            .float("random_page_cost", 1.0, 8.0)
            .float("seq_page_cost", 0.1, 2.0)
            .int_log("effective_io_concurrency", 1, 256)
            .int("max_connections", 10, 500)
            .int_log("bgwriter_delay_ms", 10, 1_000)
            .int_log("default_statistics_target", 10, 1_000)
            .boolean("jit")
            .boolean("enable_bitmapscan")
            .boolean("enable_hashjoin")
            .boolean("enable_indexscan")
            .boolean("enable_nestloop")
            .boolean("enable_mergejoin")
            .build();
        Postgres { space }
    }

    /// Decodes a configuration into typed knobs.
    ///
    /// # Panics
    ///
    /// Panics if the config does not fit the space.
    pub fn knobs(&self, config: &Config) -> PgKnobs {
        let mut v = Positional::of(config);
        PgKnobs {
            shared_buffers_mb: v.int(),
            work_mem_mb: v.int(),
            effective_cache_size_mb: v.int(),
            wal_buffers_mb: v.int(),
            max_wal_size_mb: v.int(),
            checkpoint_completion_target: v.float(),
            random_page_cost: v.float(),
            seq_page_cost: v.float(),
            effective_io_concurrency: v.int(),
            max_connections: v.int(),
            bgwriter_delay_ms: v.int(),
            default_statistics_target: v.int(),
            jit: v.flag(),
            enable_bitmapscan: v.flag(),
            enable_hashjoin: v.flag(),
            enable_indexscan: v.flag(),
            enable_nestloop: v.flag(),
            enable_mergejoin: v.flag(),
        }
    }

    /// Buffer-cache hit ratio for a workload on a machine with
    /// `memory_mb` of guest RAM.
    fn hit_ratio(knobs: &PgKnobs, workload: &Workload, memory_mb: f64) -> f64 {
        let sb = knobs.shared_buffers_mb.min(memory_mb * 0.45);
        let ecs = knobs.effective_cache_size_mb.min(memory_mb * 0.5);
        let cache_mb = sb + 0.3 * ecs;
        let hot_set = workload.working_set_mb * 0.25;
        cache_mb / (cache_mb + hot_set)
    }

    /// WAL write efficiency (1.0 at defaults; smaller = fewer disk
    /// seconds per transaction).
    fn wal_efficiency(knobs: &PgKnobs) -> f64 {
        let wal_gain = (knobs.max_wal_size_mb / 1_024.0).max(0.25).log2() * 0.25
            + (knobs.checkpoint_completion_target - 0.5) * 0.3
            + (knobs.wal_buffers_mb / 16.0).max(0.25).log2() * 0.08;
        0.5 + 0.5 / (1.0 + wal_gain.max(-0.8))
    }

    /// Per-component service demands (plus the sequential-IO share of the
    /// disk demand, which scales differently on slow disks).
    fn demands(knobs: &PgKnobs, workload: &Workload, memory_mb: f64) -> (ComponentVec, f64) {
        let olap = matches!(workload.metric, MetricKind::RuntimeSeconds { .. });
        let h = Self::hit_ratio(knobs, workload, memory_mb);
        let sort_need_mb = workload.working_set_mb * 0.01;
        let spill = sort_need_mb / (sort_need_mb + knobs.work_mem_mb);
        let read_ratio = workload.read_ratio;

        // Random-read residual after caching, improved by IO concurrency.
        let read_resid = ((1.0 - h).powf(1.3) + 0.012)
            * (1.0 - 0.12 * knobs.effective_io_concurrency.max(1.0).log2() / 8.0);
        let wal = Self::wal_efficiency(knobs);
        let rand_io =
            workload.demand.disk * (read_ratio * read_resid) + workload.demand.disk * 0.15 * spill;
        let seq_io = workload.demand.disk * (1.0 - read_ratio) * wal;

        // CPU: jit helps analytics, costs a little on OLTP; sort spills
        // burn CPU; connection thrash beyond ~150 costs on 8 vCPUs.
        let jit_factor = match (olap, knobs.jit) {
            (true, true) => 0.82,
            (true, false) => 1.0,
            (false, true) => 1.02,
            (false, false) => 1.0,
        };
        let conn_thrash = 1.0 + ((knobs.max_connections - 150.0).max(0.0) / 350.0) * 0.25;
        let cpu =
            workload.demand.cpu * jit_factor * conn_thrash + workload.demand.cpu * 0.2 * spill;

        // Memory traffic shrinks as the buffer pool absorbs page copies.
        let memory = workload.demand.memory * (0.5 + 0.5 * (1.0 - h));

        let cache = workload.demand.cache;

        // OS: background writer wakeups and per-connection overhead.
        let os_factor = 1.0
            + 0.05 * (200.0 / knobs.bgwriter_delay_ms.max(10.0)).ln().max(0.0)
            + 0.1 * (knobs.max_connections / 500.0);
        let os = workload.demand.os * os_factor;

        (
            ComponentVec::new(cpu, rand_io + seq_io, memory, cache, os),
            seq_io,
        )
    }

    /// Planner cost margin `ln(est_bad / est_good)` for the sensitive JOIN
    /// (positive = good plan estimated cheaper). Only valid when both
    /// plans are structurally available (see [`Self::forced_plan`]).
    ///
    /// The margin has a smooth part (cost constants, work_mem, statistics
    /// accuracy) plus a *per-config idiosyncratic* part: §3.2.1 found that
    /// "the exact combinations [of knobs] are inconsistent across configs",
    /// i.e. instability is not a smooth function of the knobs — which is
    /// precisely why a surrogate model cannot learn to avoid the unstable
    /// region and single-node tuning keeps promoting such configs.
    fn plan_margin(knobs: &PgKnobs, config_id: tuna_space::ConfigId) -> f64 {
        // Good plan: hash join over scans; bad plan: mis-estimated nested
        // loop over index probes (the classic row-underestimation trap).
        let est_good = knobs.seq_page_cost * 2.6 + 1.2 / (1.0 + knobs.work_mem_mb / 64.0);
        let est_bad = knobs.random_page_cost * 1.9;
        // Better statistics widen the (correct) separation.
        let stats_accuracy = 0.7 + 0.3 * (knobs.default_statistics_target.log10() / 3.0);
        let idio = (u64_to_unit_f64(hash64(config_id.0 ^ 0x9A7E_11F5)) - 0.5) * 0.8;
        (est_bad / est_good).ln() * stats_accuracy + idio
    }

    /// Structural plan availability from the `enable_*` switches.
    fn forced_plan(knobs: &PgKnobs) -> Option<PlanChoice> {
        let good_available = knobs.enable_hashjoin || knobs.enable_mergejoin;
        let bad_available = knobs.enable_indexscan && knobs.enable_nestloop;
        match (good_available, bad_available) {
            (true, true) => None,
            (true, false) => Some(PlanChoice::Good),
            (false, _) => Some(PlanChoice::Bad),
        }
    }

    /// Efficiency multipliers outside the demand model.
    fn multiplier(knobs: &PgKnobs, workload: &Workload, memory_mb: f64, olap: bool) -> f64 {
        // Lower random_page_cost nudges the planner toward index scans on
        // the *other* queries, a genuine OLTP win — and the bait that pulls
        // tuners toward the unstable planner-tie region.
        let rpc_gain = if olap {
            1.0 + (0.05 * (1.0 - knobs.random_page_cost / 4.0)).clamp(-0.05, 0.04)
        } else {
            1.0 + (0.12 * (1.0 - knobs.random_page_cost / 4.0)).clamp(-0.06, 0.09)
        };

        // Buffer hits shorten the CPU path (no buffer-manager misses).
        let h = Self::hit_ratio(knobs, workload, memory_mb);
        let h_default = Self::hit_ratio(&PgKnobs::defaults(), workload, memory_mb);
        let buf_cpu = 1.0 + 0.5 * (h - h_default);

        // Moderate connection pools beat the 100-connection default on
        // 8 vCPUs.
        let conn = 1.0 + (0.06 * (1.0 - knobs.max_connections / 100.0)).clamp(-0.12, 0.055);

        // Scan/join switches: small penalties for disabling generally
        // useful operators (the planner loses options elsewhere).
        let mut enables = 1.0;
        if !knobs.enable_bitmapscan {
            enables *= if olap { 0.95 } else { 0.98 };
        }
        if !knobs.enable_indexscan {
            enables *= if olap { 0.93 } else { 0.85 };
        }
        if !knobs.enable_nestloop {
            // Point joins everywhere else in the mix degrade to hash/merge
            // plans: a real cost, which is why DBAs rarely flip this knob
            // globally even though it would disarm the unstable JOIN.
            enables *= if olap { 0.96 } else { 0.92 };
        }
        if !knobs.enable_hashjoin {
            enables *= if olap { 0.90 } else { 0.995 };
        }
        if !knobs.enable_mergejoin {
            enables *= 0.995;
        }

        // Statistics target: slightly better plans for analytics, slight
        // planning overhead for short OLTP statements.
        let stats = if olap {
            1.0 + 0.02 * (knobs.default_statistics_target / 100.0).log10()
        } else {
            1.0 - 0.01 * (knobs.default_statistics_target / 100.0).log10().max(0.0)
        };

        rpc_gain * buf_cpu * conn * enables * stats
    }

    /// Memory overcommit penalty (swap thrash).
    fn swap_penalty(knobs: &PgKnobs, workload: &Workload, memory_mb: f64) -> f64 {
        let olap = matches!(workload.metric, MetricKind::RuntimeSeconds { .. });
        let concurrency = if olap {
            6.0
        } else {
            knobs.max_connections * 0.2
        };
        let used = knobs.shared_buffers_mb + knobs.work_mem_mb * concurrency + 300.0;
        let budget = memory_mb * 0.9;
        if used <= budget {
            1.0
        } else {
            1.0 + 4.0 * (used / budget - 1.0)
        }
    }

    /// Noise-free relative performance (speeds = 1) — used by tests and
    /// the oracle in the noise-adjuster evaluation.
    pub fn noiseless_rel(&self, config: &Config, workload: &Workload, memory_mb: f64) -> f64 {
        let knobs = self.knobs(config);
        let olap = matches!(workload.metric, MetricKind::RuntimeSeconds { .. });
        let (d, _) = Self::demands(&knobs, workload, memory_mb);
        let (d0, _) = Self::demands(&PgKnobs::defaults(), workload, memory_mb);
        let ratio = d0.sum() / d.sum().max(1e-9);
        let raw = ratio.powf(DEMAND_EXPONENT) * Self::multiplier(&knobs, workload, memory_mb, olap)
            / Self::swap_penalty(&knobs, workload, memory_mb);
        1.0 + (raw - 1.0) * workload.tuning_headroom
    }
}

impl PgKnobs {
    /// PostgreSQL's vendor defaults (with `effective_cache_size` at the
    /// common 4 GB provisioning default).
    pub fn defaults() -> PgKnobs {
        PgKnobs {
            shared_buffers_mb: 128.0,
            work_mem_mb: 4.0,
            effective_cache_size_mb: 4_096.0,
            wal_buffers_mb: 16.0,
            max_wal_size_mb: 1_024.0,
            checkpoint_completion_target: 0.9,
            random_page_cost: 4.0,
            seq_page_cost: 1.0,
            effective_io_concurrency: 1.0,
            max_connections: 100.0,
            bgwriter_delay_ms: 200.0,
            default_statistics_target: 100.0,
            jit: true,
            enable_bitmapscan: true,
            enable_hashjoin: true,
            enable_indexscan: true,
            enable_nestloop: true,
            enable_mergejoin: true,
        }
    }
}

impl SystemUnderTest for Postgres {
    fn name(&self) -> &'static str {
        "postgresql"
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn default_config(&self) -> Config {
        use tuna_space::ParamValue as V;
        Config::new(vec![
            V::Int(128),   // shared_buffers_mb
            V::Int(4),     // work_mem_mb
            V::Int(4096),  // effective_cache_size_mb
            V::Int(16),    // wal_buffers_mb
            V::Int(1024),  // max_wal_size_mb
            V::Float(0.9), // checkpoint_completion_target
            V::Float(4.0), // random_page_cost
            V::Float(1.0), // seq_page_cost
            V::Int(1),     // effective_io_concurrency
            V::Int(100),   // max_connections
            V::Int(200),   // bgwriter_delay_ms
            V::Int(100),   // default_statistics_target
            V::Bool(true), // jit
            V::Bool(true), // enable_bitmapscan
            V::Bool(true), // enable_hashjoin
            V::Bool(true), // enable_indexscan
            V::Bool(true), // enable_nestloop
            V::Bool(true), // enable_mergejoin
        ])
    }

    fn supports(&self, workload: &Workload) -> bool {
        workload.target == TargetSystem::Postgres
    }

    fn run(
        &self,
        config: &Config,
        workload: &Workload,
        machine: &mut Machine,
        rng: &mut Rng,
    ) -> RunOutcome {
        let knobs = self.knobs(config);
        let olap = matches!(workload.metric, MetricKind::RuntimeSeconds { .. });
        let memory_mb = machine.sku().memory_gb * 1_024.0;
        let scale = machine.sku().component_scale;

        let (d, seq_io) = Self::demands(&knobs, workload, memory_mb);
        let (d0, _) = Self::demands(&PgKnobs::defaults(), workload, memory_mb);

        // Observe the machine under this config's utilization profile.
        let util = d.map(|x| x.clamp(0.0, 1.0));
        let snap = machine.observe(&util);

        // Serial-demand composition with per-component absolute scales;
        // sequential IO (WAL) sees a milder slow-disk penalty.
        let seq_scale = scale.disk.powf(SEQ_IO_EXPONENT);
        let sum = |dv: &ComponentVec, seq: f64, speeds: &ComponentVec| {
            let rand_io = dv.disk - seq;
            dv.cpu / (speeds.cpu * scale.cpu)
                + rand_io / (speeds.disk * scale.disk)
                + seq / (speeds.disk * seq_scale)
                + dv.memory / (speeds.memory * scale.memory)
                + dv.cache / (speeds.cache * scale.cache)
                + dv.os / (speeds.os * scale.os)
        };
        // The norm anchors rel = 1 at the default config on a *nominal
        // Azure* machine (unit speeds, unit scales), so cross-SKU absolute
        // differences flow through the scales.
        let norm = d0.sum();
        let total = sum(&d, seq_io, &snap.speeds);
        let ratio = norm / total.max(1e-9);

        let raw = ratio.powf(DEMAND_EXPONENT) * Self::multiplier(&knobs, workload, memory_mb, olap)
            / Self::swap_penalty(&knobs, workload, memory_mb);
        let mut rel = 1.0 + (raw - 1.0) * workload.tuning_headroom;

        // Planner flip on the sensitive JOIN.
        if workload.join_fraction > 0.0 {
            let choice = match Self::forced_plan(&knobs) {
                Some(c) => c,
                None => {
                    let id = config.id();
                    planner::decide(
                        Self::plan_margin(&knobs, id),
                        0.5 * workload.plan_sensitivity,
                        machine,
                        id,
                        rng,
                    )
                }
            };
            if choice == PlanChoice::Bad {
                rel *= planner::bad_plan_factor(workload.join_fraction, workload.bad_plan_slowdown);
            }
        }
        rel = rel.max(1e-3);

        let value = match workload.metric {
            MetricKind::ThroughputTps { nominal } => nominal * rel,
            MetricKind::RuntimeSeconds { nominal } => nominal / rel,
            MetricKind::P95LatencyMs { nominal } => nominal / rel,
        };

        let metrics = tuna_metrics::generate(&snap, &util, rel, rng);
        RunOutcome {
            value,
            crashed: false,
            metrics,
            snapshot: snap,
            relative_perf: rel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_cloudsim::{Cluster, Region, VmSku};
    use tuna_space::ParamValue as V;
    use tuna_stats::summary;

    fn azure_cluster(seed: u64) -> Cluster {
        Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), seed)
    }

    /// A well-tuned, *stable* configuration (random_page_cost above the
    /// planner tie, nestloop fix not needed).
    fn good_config(pg: &Postgres) -> Config {
        let mut c = pg.default_config();
        let set = |c: Config, name: &str, v: V| -> Config {
            c.with(pg.space().index_of(name).unwrap(), v)
        };
        c = set(c, "shared_buffers_mb", V::Int(24_576));
        c = set(c, "work_mem_mb", V::Int(256));
        c = set(c, "effective_cache_size_mb", V::Int(24_576));
        c = set(c, "wal_buffers_mb", V::Int(128));
        c = set(c, "max_wal_size_mb", V::Int(8_192));
        c = set(c, "effective_io_concurrency", V::Int(128));
        c = set(c, "max_connections", V::Int(50));
        c = set(c, "random_page_cost", V::Float(3.8));
        c = set(c, "jit", V::Bool(false));
        c
    }

    /// A near-tie configuration: good knobs but random_page_cost in the
    /// unstable planner zone.
    fn risky_config(pg: &Postgres) -> Config {
        let c = good_config(pg);
        c.with(
            pg.space().index_of("random_page_cost").unwrap(),
            V::Float(2.7),
        )
    }

    #[test]
    fn default_config_validates_and_matches_knob_defaults() {
        let pg = Postgres::new();
        let cfg = pg.default_config();
        assert!(pg.space().validate(&cfg).is_ok());
        let k = pg.knobs(&cfg);
        assert_eq!(k, PgKnobs::defaults());
    }

    #[test]
    fn default_tpcc_throughput_near_nominal() {
        let pg = Postgres::new();
        let mut cluster = azure_cluster(3);
        let mut rng = Rng::seed_from(1);
        let mut vals = Vec::new();
        for i in 0..10 {
            let out = pg.run(
                &pg.default_config(),
                &tuna_workloads::tpcc(),
                cluster.machine_mut(i),
                &mut rng,
            );
            vals.push(out.value);
        }
        let mean = summary::mean(&vals);
        assert!((mean - 848.0).abs() < 120.0, "default TPS {mean}");
    }

    #[test]
    fn tuned_config_roughly_doubles_tpcc() {
        let pg = Postgres::new();
        let rel = pg.noiseless_rel(&good_config(&pg), &tuna_workloads::tpcc(), 32.0 * 1024.0);
        assert!((1.7..=3.0).contains(&rel), "tuned rel {rel}");
    }

    #[test]
    fn default_is_unit_rel() {
        let pg = Postgres::new();
        for w in [
            tuna_workloads::tpcc(),
            tuna_workloads::epinions(),
            tuna_workloads::tpch(),
            tuna_workloads::mssales(),
        ] {
            let rel = pg.noiseless_rel(&pg.default_config(), &w, 32.0 * 1024.0);
            assert!((rel - 1.0).abs() < 1e-9, "{}: default rel {rel}", w.name);
        }
    }

    #[test]
    fn epinions_has_less_headroom_than_mssales() {
        let pg = Postgres::new();
        let cfg = good_config(&pg);
        let epi = pg.noiseless_rel(&cfg, &tuna_workloads::epinions(), 32.0 * 1024.0);
        let ms = pg.noiseless_rel(&cfg, &tuna_workloads::mssales(), 32.0 * 1024.0);
        assert!(epi < 1.4, "epinions rel {epi}");
        assert!(ms > 1.7, "mssales rel {ms}");
    }

    #[test]
    fn cloudlab_amplifies_tuning_gains() {
        // Figure 13: the default config wastes the big-memory bare-metal
        // box (random IO on a slow local disk); tuning yields an
        // order-of-magnitude improvement and ~3x the Azure throughput.
        let pg = Postgres::new();
        let mut cluster = Cluster::new(10, VmSku::c220g5(), Region::cloudlab(), 7);
        let mut rng = Rng::seed_from(2);
        let tpcc = tuna_workloads::tpcc();
        let mut default_vals = Vec::new();
        let mut tuned_vals = Vec::new();
        for i in 0..10 {
            default_vals.push(
                pg.run(
                    &pg.default_config(),
                    &tpcc,
                    cluster.machine_mut(i),
                    &mut rng,
                )
                .value,
            );
            tuned_vals.push(
                pg.run(&good_config(&pg), &tpcc, cluster.machine_mut(i), &mut rng)
                    .value,
            );
        }
        let d = summary::mean(&default_vals);
        let t = summary::mean(&tuned_vals);
        let improvement = t / d;
        assert!(
            (8.0..40.0).contains(&improvement),
            "improvement {improvement} (default {d}, tuned {t})"
        );
        assert!(t > 2_000.0, "tuned bare-metal TPS {t}");
    }

    #[test]
    fn near_tie_zone_contains_unstable_configs() {
        // §3.2.1: instability is idiosyncratic ("exact combinations are
        // inconsistent across configs"), so scan the random_page_cost axis
        // near the planner tie: a healthy share of those configs must show
        // a wide relative range across a 10-node cluster, while the
        // well-tuned config (rpc above the tie) stays tight.
        let pg = Postgres::new();
        let tpcc = tuna_workloads::tpcc();
        let mut rng = Rng::seed_from(5);
        let rpc_idx = pg.space().index_of("random_page_cost").unwrap();
        let mut unstable_candidates = 0;
        let mut candidates = 0;
        for tenths in 10..28 {
            let rpc = tenths as f64 / 10.0;
            let cfg = good_config(&pg).with(rpc_idx, V::Float(rpc));
            let mut rrs = Vec::new();
            for seed in 0..4 {
                let mut cluster = azure_cluster(100 + seed);
                let vals: Vec<f64> = (0..10)
                    .map(|i| pg.run(&cfg, &tpcc, cluster.machine_mut(i), &mut rng).value)
                    .collect();
                rrs.push(summary::relative_range(&vals));
            }
            candidates += 1;
            if summary::mean(&rrs) > 0.30 {
                unstable_candidates += 1;
            }
        }
        assert!(
            unstable_candidates * 4 >= candidates,
            "only {unstable_candidates}/{candidates} near-tie configs unstable"
        );

        // The reference tuned config stays stable.
        let mut good_rr = Vec::new();
        for seed in 0..8 {
            let mut cluster = azure_cluster(200 + seed);
            let vals: Vec<f64> = (0..10)
                .map(|i| {
                    pg.run(&good_config(&pg), &tpcc, cluster.machine_mut(i), &mut rng)
                        .value
                })
                .collect();
            good_rr.push(summary::relative_range(&vals));
        }
        let good_mean = summary::mean(&good_rr);
        assert!(good_mean < 0.30, "stable relative range {good_mean}");
    }

    #[test]
    fn nestloop_off_disarms_instability() {
        // Disabling the bad plan's operator makes the risky config stable.
        let pg = Postgres::new();
        let tpcc = tuna_workloads::tpcc();
        let fixed = risky_config(&pg).with(
            pg.space().index_of("enable_nestloop").unwrap(),
            V::Bool(false),
        );
        let mut rng = Rng::seed_from(6);
        let mut vals = Vec::new();
        let mut cluster = azure_cluster(11);
        for i in 0..10 {
            vals.push(
                pg.run(&fixed, &tpcc, cluster.machine_mut(i), &mut rng)
                    .value,
            );
        }
        assert!(
            summary::relative_range(&vals) < 0.30,
            "fixed config still unstable: {:?}",
            vals
        );
    }

    #[test]
    fn disabling_good_plan_operators_is_consistently_slow() {
        let pg = Postgres::new();
        let tpcc = tuna_workloads::tpcc();
        let broken = pg
            .default_config()
            .with(
                pg.space().index_of("enable_hashjoin").unwrap(),
                V::Bool(false),
            )
            .with(
                pg.space().index_of("enable_mergejoin").unwrap(),
                V::Bool(false),
            );
        let mut rng = Rng::seed_from(7);
        let mut cluster = azure_cluster(12);
        let mut vals = Vec::new();
        for i in 0..10 {
            vals.push(
                pg.run(&broken, &tpcc, cluster.machine_mut(i), &mut rng)
                    .value,
            );
        }
        // Forced bad plan: well below default, but *stable*.
        assert!(
            summary::mean(&vals) < 620.0,
            "mean {}",
            summary::mean(&vals)
        );
        assert!(summary::relative_range(&vals) < 0.30);
    }

    #[test]
    fn memory_overcommit_collapses() {
        let pg = Postgres::new();
        let bad = pg
            .default_config()
            .with(
                pg.space().index_of("shared_buffers_mb").unwrap(),
                V::Int(24_576),
            )
            .with(pg.space().index_of("work_mem_mb").unwrap(), V::Int(1_024))
            .with(pg.space().index_of("max_connections").unwrap(), V::Int(300));
        let rel = pg.noiseless_rel(&bad, &tuna_workloads::tpcc(), 32.0 * 1024.0);
        assert!(rel < 0.5, "overcommitted rel {rel}");
    }

    #[test]
    fn olap_runtime_improves_with_tuning() {
        let pg = Postgres::new();
        let mut cluster = azure_cluster(21);
        let mut rng = Rng::seed_from(9);
        let tpch = tuna_workloads::tpch();
        let default_rt = pg
            .run(
                &pg.default_config(),
                &tpch,
                cluster.machine_mut(0),
                &mut rng,
            )
            .value;
        let tuned_rt = pg
            .run(&good_config(&pg), &tpch, cluster.machine_mut(1), &mut rng)
            .value;
        assert!(
            default_rt > 100.0 && default_rt < 130.0,
            "default {default_rt}"
        );
        assert!(tuned_rt < default_rt * 0.75, "tuned {tuned_rt}");
    }

    #[test]
    fn measurement_noise_in_paper_range() {
        // Repeated default-config runs on one machine: CoV must be a few
        // percent (the paper's PostgreSQL microbenchmark ceiling is 7.23%).
        let pg = Postgres::new();
        let mut cluster = azure_cluster(31);
        let mut rng = Rng::seed_from(10);
        let tpcc = tuna_workloads::tpcc();
        let vals: Vec<f64> = (0..300)
            .map(|_| {
                pg.run(
                    &pg.default_config(),
                    &tpcc,
                    cluster.machine_mut(0),
                    &mut rng,
                )
                .value
            })
            .collect();
        let cov = summary::coefficient_of_variation(&vals);
        assert!((0.005..0.0723).contains(&cov), "CoV {cov}");
    }

    #[test]
    fn sampled_configs_run_without_panic() {
        let pg = Postgres::new();
        let mut cluster = azure_cluster(41);
        let mut rng = Rng::seed_from(11);
        for w in [
            tuna_workloads::tpcc(),
            tuna_workloads::epinions(),
            tuna_workloads::tpch(),
            tuna_workloads::mssales(),
        ] {
            for i in 0..40 {
                let cfg = pg.space().sample(&mut rng);
                let out = pg.run(&cfg, &w, cluster.machine_mut(i % 10), &mut rng);
                assert!(out.value.is_finite() && out.value > 0.0);
                assert!(!out.crashed);
            }
        }
    }

    /// The by-name decode `knobs` replaced, kept as its oracle.
    fn knobs_by_name(pg: &Postgres, config: &Config) -> PgKnobs {
        let s = pg.space();
        PgKnobs {
            shared_buffers_mb: s.value_of(config, "shared_buffers_mb").as_int() as f64,
            work_mem_mb: s.value_of(config, "work_mem_mb").as_int() as f64,
            effective_cache_size_mb: s.value_of(config, "effective_cache_size_mb").as_int() as f64,
            wal_buffers_mb: s.value_of(config, "wal_buffers_mb").as_int() as f64,
            max_wal_size_mb: s.value_of(config, "max_wal_size_mb").as_int() as f64,
            checkpoint_completion_target: s
                .value_of(config, "checkpoint_completion_target")
                .as_float(),
            random_page_cost: s.value_of(config, "random_page_cost").as_float(),
            seq_page_cost: s.value_of(config, "seq_page_cost").as_float(),
            effective_io_concurrency: s.value_of(config, "effective_io_concurrency").as_int()
                as f64,
            max_connections: s.value_of(config, "max_connections").as_int() as f64,
            bgwriter_delay_ms: s.value_of(config, "bgwriter_delay_ms").as_int() as f64,
            default_statistics_target: s.value_of(config, "default_statistics_target").as_int()
                as f64,
            jit: s.value_of(config, "jit").as_bool(),
            enable_bitmapscan: s.value_of(config, "enable_bitmapscan").as_bool(),
            enable_hashjoin: s.value_of(config, "enable_hashjoin").as_bool(),
            enable_indexscan: s.value_of(config, "enable_indexscan").as_bool(),
            enable_nestloop: s.value_of(config, "enable_nestloop").as_bool(),
            enable_mergejoin: s.value_of(config, "enable_mergejoin").as_bool(),
        }
    }

    #[test]
    fn knobs_decode_by_position_as_by_name() {
        let pg = Postgres::new();
        let mut rng = Rng::seed_from(33);
        let mut configs = vec![pg.default_config()];
        configs.extend((0..300).map(|_| pg.space().sample(&mut rng)));
        for c in &configs {
            assert_eq!(pg.knobs(c), knobs_by_name(&pg, c));
        }
    }
}
