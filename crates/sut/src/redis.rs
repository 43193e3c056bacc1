//! Redis-style in-memory KV store model.
//!
//! Eleven knobs; the headline behaviour for the paper's Figure 14 is the
//! **OOM crash**: "overly aggressive" memory configurations (maxmemory near
//! or above guest RAM, amplified by AOF rewrites and RDB fork
//! copy-on-write) crash the server on a per-run coin whose bias depends on
//! how far the transient footprint exceeds what the machine can actually
//! give. The default configuration crashes ~8% of runs; aggressive tuned
//! configs reach ~30% — matching §6.4.

use crate::{Positional, RunOutcome, SystemUnderTest};
use tuna_cloudsim::machine::Machine;
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;
use tuna_workloads::{MetricKind, TargetSystem, Workload};

/// Typed view of a Redis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedisKnobs {
    /// `maxmemory` in MB.
    pub maxmemory_mb: f64,
    /// `maxmemory-policy` index: 0 noeviction, 1 allkeys-lru, 2
    /// allkeys-lfu, 3 volatile-lru, 4 allkeys-random.
    pub maxmemory_policy: usize,
    /// `appendonly`.
    pub appendonly: bool,
    /// `appendfsync` index: 0 always, 1 everysec, 2 no.
    pub appendfsync: usize,
    /// RDB snapshots enabled (`save` lines present).
    pub save_enabled: bool,
    /// `io-threads`.
    pub io_threads: f64,
    /// `lazyfree-lazy-eviction`.
    pub lazyfree: bool,
    /// `hash-max-listpack-entries`.
    pub hash_max_listpack: f64,
    /// `activedefrag`.
    pub activedefrag: bool,
    /// `tcp-backlog`.
    pub tcp_backlog: f64,
    /// `maxclients`.
    pub maxclients: f64,
}

/// The Redis system-under-test.
#[derive(Debug, Clone)]
pub struct Redis {
    space: ConfigSpace,
    /// The default configuration's knobs, decoded once: every run
    /// divides by their efficiency.
    default_knobs: RedisKnobs,
}

impl Default for Redis {
    fn default() -> Self {
        Self::new()
    }
}

impl Redis {
    /// Creates the SuT with its 11-knob space.
    pub fn new() -> Self {
        let space = ConfigSpace::builder()
            .int_log("maxmemory_mb", 256, 32_768)
            .categorical(
                "maxmemory_policy",
                &[
                    "noeviction",
                    "allkeys-lru",
                    "allkeys-lfu",
                    "volatile-lru",
                    "allkeys-random",
                ],
            )
            .boolean("appendonly")
            .categorical("appendfsync", &["always", "everysec", "no"])
            .boolean("save_enabled")
            .int("io_threads", 1, 8)
            .boolean("lazyfree")
            .int_log("hash_max_listpack", 32, 4_096)
            .boolean("activedefrag")
            .int_log("tcp_backlog", 128, 4_096)
            .int_log("maxclients", 100, 10_000)
            .build();
        Redis {
            space,
            default_knobs: Self::decode(&Self::default_values()),
        }
    }

    /// Decodes a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the config does not fit the space.
    pub fn knobs(&self, config: &Config) -> RedisKnobs {
        Self::decode(config)
    }

    fn decode(config: &Config) -> RedisKnobs {
        let mut v = Positional::of(config);
        RedisKnobs {
            maxmemory_mb: v.int(),
            maxmemory_policy: v.cat(),
            appendonly: v.flag(),
            appendfsync: v.cat(),
            save_enabled: v.flag(),
            io_threads: v.int(),
            lazyfree: v.flag(),
            hash_max_listpack: v.int(),
            activedefrag: v.flag(),
            tcp_backlog: v.int(),
            maxclients: v.int(),
        }
    }

    fn default_values() -> Config {
        use tuna_space::ParamValue as V;
        Config::new(vec![
            V::Int(30_000), // maxmemory_mb (the paper-setup sizing).
            V::Cat(0),      // maxmemory_policy = noeviction
            V::Bool(false), // appendonly
            V::Cat(1),      // appendfsync = everysec
            V::Bool(true),  // save_enabled
            V::Int(1),      // io_threads
            V::Bool(false), // lazyfree
            V::Int(128),    // hash_max_listpack
            V::Bool(false), // activedefrag
            V::Int(512),    // tcp_backlog
            V::Int(10_000), // maxclients
        ])
    }

    /// Latency-efficiency of a knob set (higher = lower p95), relative
    /// scale; divide by the default's efficiency to get the multiplier.
    fn efficiency(knobs: &RedisKnobs, workload: &Workload) -> f64 {
        let mut e = 1.0;
        // IO threads help tail latency up to core count pressure.
        e *= 1.0 + 0.10 * (knobs.io_threads.max(1.0).ln() / 8f64.ln());
        // AOF: rewrite pauses; fsync=always stalls the event loop.
        if knobs.appendonly {
            e *= match knobs.appendfsync {
                0 => 0.78,
                1 => 0.93,
                _ => 0.96,
            };
        }
        // RDB snapshots: fork + copy-on-write spikes.
        if knobs.save_enabled {
            e *= 0.91;
        }
        // Active defrag steals cycles.
        if knobs.activedefrag {
            e *= 0.95;
        }
        // Lazy freeing smooths eviction spikes when evicting at all.
        if knobs.lazyfree && knobs.maxmemory_mb < workload.dataset_mb {
            e *= 1.03;
        }
        // listpack threshold: mild optimum around 512.
        let lp = (knobs.hash_max_listpack.log2() - 9.0).abs();
        e *= 1.0 - 0.01 * lp.min(4.0);
        // Short backlog queues reconnect bursts.
        if knobs.tcp_backlog < 512.0 {
            e *= 0.96;
        }
        // Too-low client cap throttles the benchmark harness.
        if knobs.maxclients < 200.0 {
            e *= 0.85;
        }
        // Headroom above the dataset trims fragmentation/rehash stalls —
        // the bait that pulls tuners toward the OOM cliff.
        e *= 1.0 + 0.05 * (knobs.maxmemory_mb / 32_768.0).min(1.0);
        // Evicting below the hot set costs misses (Zipfian: mild until
        // deep).
        if knobs.maxmemory_mb < workload.dataset_mb {
            let coverage = (knobs.maxmemory_mb / workload.dataset_mb).clamp(0.01, 1.0);
            let hit = coverage.powf(0.25); // Zipf-skewed hot set.
            e *= 1.0 - 0.25 * (1.0 - hit);
        }
        e
    }

    /// Transient memory footprint in MB (resident + fork/rewrite
    /// overheads).
    fn footprint_mb(knobs: &RedisKnobs, workload: &Workload) -> f64 {
        let resident = knobs.maxmemory_mb.min(workload.dataset_mb * 1.1);
        let mut overhead = 1.0;
        if knobs.appendonly {
            overhead *= 1.30; // AOF rewrite working copy.
        }
        if knobs.save_enabled {
            overhead *= 1.15; // RDB fork copy-on-write.
        }
        resident * overhead
    }

    /// Per-run crash probability on a machine with `avail_mb` usable RAM.
    fn crash_probability(knobs: &RedisKnobs, workload: &Workload, avail_mb: f64) -> f64 {
        // noeviction with maxmemory below the dataset: the load phase
        // fails outright.
        if knobs.maxmemory_policy == 0 && knobs.maxmemory_mb < workload.dataset_mb * 0.95 {
            return 1.0;
        }
        let ratio = Self::footprint_mb(knobs, workload) / avail_mb.max(1.0);
        ((ratio - 0.93) * 0.6).clamp(0.0, 0.95)
    }
}

impl SystemUnderTest for Redis {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn default_config(&self) -> Config {
        Self::default_values()
    }

    fn supports(&self, workload: &Workload) -> bool {
        workload.target == TargetSystem::Redis
    }

    fn run(
        &self,
        config: &Config,
        workload: &Workload,
        machine: &mut Machine,
        rng: &mut Rng,
    ) -> RunOutcome {
        let knobs = self.knobs(config);
        let util = workload.demand.map(|x| x.clamp(0.0, 1.0));
        let snap = machine.observe(&util);
        let scale = machine.sku().component_scale;

        // p95 latency scales inversely with the demand-weighted machine
        // speed; tails amplify interference slightly (exponent 1.1).
        let speeds = snap.speeds.zip(&scale, |a, b| a * b);
        let machine_speed = workload
            .demand
            .normalized()
            .weighted_geomean(&speeds)
            .powf(1.1);

        let e = Self::efficiency(&knobs, workload);
        let e0 = Self::efficiency(&self.default_knobs, workload);
        let rel_raw = (e / e0) * machine_speed;
        let rel = (1.0 + (rel_raw - 1.0) * workload.tuning_headroom).max(1e-3);

        // Tail noise: p95 estimates from a 5-minute window jitter a bit.
        let tail = 1.0 + 0.02 * rng.next_gaussian();

        let nominal = match workload.metric {
            MetricKind::P95LatencyMs { nominal } => nominal,
            MetricKind::ThroughputTps { nominal } | MetricKind::RuntimeSeconds { nominal } => {
                nominal
            }
        };
        let value = (nominal / rel * tail.max(0.5)).max(1e-3);

        // OOM crash draw: host memory pressure moves the boundary a little.
        let avail_mb =
            machine.sku().memory_gb * 1_024.0 * 0.94 * (1.0 + (snap.placement.memory - 1.0) * 0.3);
        let crashed = rng.chance(Self::crash_probability(&knobs, workload, avail_mb));

        let metrics = tuna_metrics::generate(&snap, &util, rel, rng);
        RunOutcome {
            value,
            crashed,
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

    fn cluster(seed: u64) -> Cluster {
        Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), seed)
    }

    fn set(rd: &Redis, c: Config, name: &str, v: V) -> Config {
        c.with(rd.space().index_of(name).unwrap(), v)
    }

    #[test]
    fn default_validates() {
        let rd = Redis::new();
        assert!(rd.space().validate(&rd.default_config()).is_ok());
    }

    #[test]
    fn default_crash_rate_near_paper_8pct() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let mut rng = Rng::seed_from(3);
        let mut cl = cluster(5);
        let mut crashes = 0;
        let n = 3_000;
        for i in 0..n {
            let out = rd.run(&rd.default_config(), &w, cl.machine_mut(i % 10), &mut rng);
            if out.crashed {
                crashes += 1;
            }
        }
        let rate = crashes as f64 / n as f64;
        assert!((0.04..0.14).contains(&rate), "default crash rate {rate}");
    }

    #[test]
    fn aggressive_memory_crashes_often() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let aggressive = set(
            &rd,
            set(&rd, rd.default_config(), "maxmemory_mb", V::Int(32_768)),
            "appendonly",
            V::Bool(true),
        );
        let mut rng = Rng::seed_from(4);
        let mut cl = cluster(6);
        let mut crashes = 0;
        let n = 2_000;
        for i in 0..n {
            if rd
                .run(&aggressive, &w, cl.machine_mut(i % 10), &mut rng)
                .crashed
            {
                crashes += 1;
            }
        }
        let rate = crashes as f64 / n as f64;
        assert!(rate > 0.2, "aggressive crash rate {rate}");
    }

    #[test]
    fn conservative_memory_never_crashes() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let safe = set(
            &rd,
            set(&rd, rd.default_config(), "maxmemory_mb", V::Int(20_000)),
            "maxmemory_policy",
            V::Cat(1), // allkeys-lru
        );
        let mut rng = Rng::seed_from(5);
        let mut cl = cluster(7);
        for i in 0..2_000 {
            assert!(!rd.run(&safe, &w, cl.machine_mut(i % 10), &mut rng).crashed);
        }
    }

    #[test]
    fn noeviction_below_dataset_always_fails() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let broken = set(&rd, rd.default_config(), "maxmemory_mb", V::Int(4_096));
        let mut rng = Rng::seed_from(6);
        let mut cl = cluster(8);
        assert!(rd.run(&broken, &w, cl.machine_mut(0), &mut rng).crashed);
    }

    #[test]
    fn eviction_policy_pays_modest_latency_for_safety() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let safe = set(
            &rd,
            set(&rd, rd.default_config(), "maxmemory_mb", V::Int(16_384)),
            "maxmemory_policy",
            V::Cat(1),
        );
        let k_safe = rd.knobs(&safe);
        let k_def = rd.knobs(&rd.default_config());
        let e_safe = Redis::efficiency(&k_safe, &w);
        let e_def = Redis::efficiency(&k_def, &w);
        // Slightly worse than default, but within ~15%.
        assert!(e_safe < e_def);
        assert!(e_safe > e_def * 0.85);
    }

    #[test]
    fn p95_near_nominal_on_default() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let mut rng = Rng::seed_from(7);
        let mut cl = cluster(9);
        let vals: Vec<f64> = (0..200)
            .filter_map(|i| {
                let out = rd.run(&rd.default_config(), &w, cl.machine_mut(i % 10), &mut rng);
                if out.crashed {
                    None
                } else {
                    Some(out.value)
                }
            })
            .collect();
        let mean = summary::mean(&vals);
        assert!((mean - 0.62).abs() < 0.12, "p95 mean {mean}");
    }

    #[test]
    fn io_threads_reduce_latency() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let threaded = set(&rd, rd.default_config(), "io_threads", V::Int(8));
        let e_thr = Redis::efficiency(&rd.knobs(&threaded), &w);
        let e_def = Redis::efficiency(&rd.knobs(&rd.default_config()), &w);
        assert!(e_thr > e_def);
    }

    #[test]
    fn sampled_configs_run_without_panic() {
        let rd = Redis::new();
        let w = tuna_workloads::ycsb_c();
        let mut rng = Rng::seed_from(8);
        let mut cl = cluster(10);
        for i in 0..200 {
            let cfg = rd.space().sample(&mut rng);
            let out = rd.run(&cfg, &w, cl.machine_mut(i % 10), &mut rng);
            assert!(out.value.is_finite() && out.value > 0.0);
        }
    }

    /// The by-name decode `knobs` replaced, kept as its oracle.
    fn knobs_by_name(rd: &Redis, config: &Config) -> RedisKnobs {
        let s = rd.space();
        RedisKnobs {
            maxmemory_mb: s.value_of(config, "maxmemory_mb").as_int() as f64,
            maxmemory_policy: s.value_of(config, "maxmemory_policy").as_cat(),
            appendonly: s.value_of(config, "appendonly").as_bool(),
            appendfsync: s.value_of(config, "appendfsync").as_cat(),
            save_enabled: s.value_of(config, "save_enabled").as_bool(),
            io_threads: s.value_of(config, "io_threads").as_int() as f64,
            lazyfree: s.value_of(config, "lazyfree").as_bool(),
            hash_max_listpack: s.value_of(config, "hash_max_listpack").as_int() as f64,
            activedefrag: s.value_of(config, "activedefrag").as_bool(),
            tcp_backlog: s.value_of(config, "tcp_backlog").as_int() as f64,
            maxclients: s.value_of(config, "maxclients").as_int() as f64,
        }
    }

    #[test]
    fn knobs_decode_by_position_as_by_name() {
        let rd = Redis::new();
        let mut rng = Rng::seed_from(31);
        let mut configs = vec![rd.default_config()];
        configs.extend((0..300).map(|_| rd.space().sample(&mut rng)));
        for c in &configs {
            assert_eq!(rd.knobs(c), knobs_by_name(&rd, c));
        }
        assert_eq!(rd.default_knobs, rd.knobs(&rd.default_config()));
    }
}
