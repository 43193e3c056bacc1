//! NGINX-style web server model.
//!
//! Twelve knobs serving the Wikipedia-Top500 workload of §6.4 (whole-page
//! p95 latency, media included). The dominant effect is the
//! `worker_processes` default of a single worker on an 8-vCPU box;
//! secondary effects come from keepalive (connection reuse), sendfile /
//! tcp_nopush, gzip level (transfer-size vs CPU trade), the open-file
//! cache and access logging. A mild instability channel exists: configs
//! whose `worker_connections` sit just above the concurrent-connection
//! need spike their tail latency when OS interference slows accept
//! processing — unstable in exactly the relative-range sense of §4.2.

use crate::{Positional, RunOutcome, SystemUnderTest};
use tuna_cloudsim::machine::Machine;
use tuna_space::{Config, ConfigSpace};
use tuna_stats::rng::Rng;
use tuna_workloads::{MetricKind, TargetSystem, Workload};

/// Concurrent connections the Wikipedia load generator holds open.
const CONCURRENT_CONNECTIONS: f64 = 600.0;

/// Typed view of an NGINX configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NginxKnobs {
    /// `worker_processes`.
    pub worker_processes: f64,
    /// `worker_connections`.
    pub worker_connections: f64,
    /// `keepalive_timeout` (seconds; 0 disables).
    pub keepalive_timeout: f64,
    /// `keepalive_requests`.
    pub keepalive_requests: f64,
    /// `sendfile`.
    pub sendfile: bool,
    /// `tcp_nopush`.
    pub tcp_nopush: bool,
    /// `tcp_nodelay`.
    pub tcp_nodelay: bool,
    /// `gzip`.
    pub gzip: bool,
    /// `gzip_comp_level`.
    pub gzip_comp_level: f64,
    /// `open_file_cache` max entries (0 disables).
    pub open_file_cache: f64,
    /// `access_log` enabled.
    pub access_log: bool,
    /// `multi_accept`.
    pub multi_accept: bool,
}

/// The NGINX system-under-test.
#[derive(Debug, Clone)]
pub struct Nginx {
    space: ConfigSpace,
    /// The default configuration's knobs, decoded once: every run
    /// divides by their efficiency.
    default_knobs: NginxKnobs,
}

impl Default for Nginx {
    fn default() -> Self {
        Self::new()
    }
}

impl Nginx {
    /// Creates the SuT with its 12-knob space.
    pub fn new() -> Self {
        let space = ConfigSpace::builder()
            .int("worker_processes", 1, 16)
            .int_log("worker_connections", 64, 16_384)
            .int("keepalive_timeout", 0, 120)
            .int_log("keepalive_requests", 16, 16_384)
            .boolean("sendfile")
            .boolean("tcp_nopush")
            .boolean("tcp_nodelay")
            .boolean("gzip")
            .int("gzip_comp_level", 1, 9)
            .int_log("open_file_cache", 128, 65_536)
            .boolean("access_log")
            .boolean("multi_accept")
            .build();
        Nginx {
            space,
            default_knobs: Self::decode(&Self::default_values()),
        }
    }

    /// Decodes a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the config does not fit the space.
    pub fn knobs(&self, config: &Config) -> NginxKnobs {
        Self::decode(config)
    }

    fn decode(config: &Config) -> NginxKnobs {
        let mut v = Positional::of(config);
        NginxKnobs {
            worker_processes: v.int(),
            worker_connections: v.int(),
            keepalive_timeout: v.int(),
            keepalive_requests: v.int(),
            sendfile: v.flag(),
            tcp_nopush: v.flag(),
            tcp_nodelay: v.flag(),
            gzip: v.flag(),
            gzip_comp_level: v.int(),
            open_file_cache: v.int(),
            access_log: v.flag(),
            multi_accept: v.flag(),
        }
    }

    fn default_values() -> Config {
        use tuna_space::ParamValue as V;
        Config::new(vec![
            V::Int(2),      // worker_processes (distro default auto=small)
            V::Int(768),    // worker_connections
            V::Int(75),     // keepalive_timeout
            V::Int(1_000),  // keepalive_requests
            V::Bool(true),  // sendfile
            V::Bool(false), // tcp_nopush
            V::Bool(true),  // tcp_nodelay
            V::Bool(false), // gzip
            V::Int(6),      // gzip_comp_level
            V::Int(1_024),  // open_file_cache
            V::Bool(true),  // access_log
            V::Bool(false), // multi_accept
        ])
    }

    /// Latency efficiency (higher = lower p95), relative scale.
    fn efficiency(knobs: &NginxKnobs, vcpus: f64) -> f64 {
        let mut e = 1.0;

        // Worker scaling: sublinear up to core count, slight oversubscribe
        // penalty beyond.
        let effective_workers = knobs.worker_processes.min(vcpus);
        e *= (effective_workers / 8.0).powf(0.30);
        if knobs.worker_processes > vcpus {
            e *= 1.0 - 0.015 * (knobs.worker_processes - vcpus);
        }

        // Keepalive: reconnect storms without it; diminishing returns.
        e *= if knobs.keepalive_timeout == 0.0 {
            0.72
        } else {
            1.0 + 0.03 * (knobs.keepalive_timeout / 75.0).min(1.5)
        };
        e *= 1.0 + 0.02 * ((knobs.keepalive_requests / 1_000.0).min(4.0) - 1.0) / 4.0;

        // Zero-copy file serving.
        if knobs.sendfile {
            e *= 1.08;
            if knobs.tcp_nopush {
                e *= 1.04;
            }
        }
        if knobs.tcp_nodelay {
            e *= 1.02;
        }

        // gzip: transfer-size win on text at moderate levels, CPU burn at
        // high levels (media recompression).
        if knobs.gzip {
            let sweet = 1.0 - ((knobs.gzip_comp_level - 4.0) / 5.0).powi(2) * 0.12;
            e *= 1.10 * sweet.max(0.8);
        }

        // Open-file cache: the 500-page working set plus media wants
        // thousands of entries.
        let ofc_cover = (knobs.open_file_cache / 8_192.0).clamp(0.0, 1.0);
        e *= 0.94 + 0.08 * ofc_cover.powf(0.5);

        // Logging syscall overhead.
        if !knobs.access_log {
            e *= 1.04;
        }
        if knobs.multi_accept {
            e *= 1.01;
        }

        // Hard queueing collapse when connections cannot be held at all.
        let total_conns = knobs.worker_connections * knobs.worker_processes.max(1.0);
        if total_conns < CONCURRENT_CONNECTIONS {
            e *= (total_conns / CONCURRENT_CONNECTIONS).powf(1.5).max(0.05);
        }
        e
    }

    /// Probability of an interference-triggered accept-queue spike for one
    /// run: configs whose per-worker connection headroom is thin live on a
    /// knife's edge (the NGINX unstable-config channel).
    fn spike_probability(knobs: &NginxKnobs, os_speed: f64) -> f64 {
        let total_conns = knobs.worker_connections * knobs.worker_processes.max(1.0);
        let headroom = total_conns / CONCURRENT_CONNECTIONS;
        if !(1.0..1.5).contains(&headroom) {
            return 0.0; // Plenty of headroom, or already penalized flatly.
        }
        let thinness = (1.5 - headroom) / 0.5; // 0 at 1.5x, 1 at 1.0x.
        let os_pressure = ((1.0 - os_speed) * 8.0).max(0.0);
        (0.25 * thinness * (1.0 + os_pressure)).clamp(0.0, 0.9)
    }
}

impl SystemUnderTest for Nginx {
    fn name(&self) -> &'static str {
        "nginx"
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn default_config(&self) -> Config {
        Self::default_values()
    }

    fn supports(&self, workload: &Workload) -> bool {
        workload.target == TargetSystem::Nginx
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
        let vcpus = machine.sku().vcpus as f64;

        let speeds = snap.speeds.zip(&scale, |a, b| a * b);
        let machine_speed = workload
            .demand
            .normalized()
            .weighted_geomean(&speeds)
            .powf(1.1);

        let e = Self::efficiency(&knobs, vcpus);
        let e0 = Self::efficiency(&self.default_knobs, vcpus);
        let rel_raw = (e / e0) * machine_speed;
        let mut rel = (1.0 + (rel_raw - 1.0) * workload.tuning_headroom).max(1e-3);

        // Interference-triggered accept-queue spike (tail collapse).
        if rng.chance(Self::spike_probability(&knobs, snap.speeds.os)) {
            rel /= 2.2;
        }

        let tail = 1.0 + 0.02 * rng.next_gaussian();
        let nominal = match workload.metric {
            MetricKind::P95LatencyMs { nominal } => nominal,
            MetricKind::ThroughputTps { nominal } | MetricKind::RuntimeSeconds { nominal } => {
                nominal
            }
        };
        let value = (nominal / rel * tail.max(0.5)).max(1e-3);

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

    fn cluster(seed: u64) -> Cluster {
        Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), seed)
    }

    fn set(ng: &Nginx, c: Config, name: &str, v: V) -> Config {
        c.with(ng.space().index_of(name).unwrap(), v)
    }

    fn tuned(ng: &Nginx) -> Config {
        let mut c = ng.default_config();
        c = set(ng, c, "worker_processes", V::Int(8));
        c = set(ng, c, "worker_connections", V::Int(4_096));
        c = set(ng, c, "tcp_nopush", V::Bool(true));
        c = set(ng, c, "gzip", V::Bool(true));
        c = set(ng, c, "gzip_comp_level", V::Int(4));
        c = set(ng, c, "open_file_cache", V::Int(16_384));
        c = set(ng, c, "access_log", V::Bool(false));
        c
    }

    #[test]
    fn default_validates_and_near_nominal() {
        let ng = Nginx::new();
        assert!(ng.space().validate(&ng.default_config()).is_ok());
        let w = tuna_workloads::wikipedia();
        let mut rng = Rng::seed_from(1);
        let mut cl = cluster(2);
        let vals: Vec<f64> = (0..100)
            .map(|i| {
                ng.run(&ng.default_config(), &w, cl.machine_mut(i % 10), &mut rng)
                    .value
            })
            .collect();
        let mean = summary::mean(&vals);
        assert!((mean - 69.7).abs() < 10.0, "default p95 {mean}");
    }

    #[test]
    fn tuned_config_cuts_p95_roughly_40pct() {
        let ng = Nginx::new();
        let w = tuna_workloads::wikipedia();
        let mut rng = Rng::seed_from(3);
        let mut cl = cluster(4);
        let vals: Vec<f64> = (0..100)
            .map(|i| {
                ng.run(&tuned(&ng), &w, cl.machine_mut(i % 10), &mut rng)
                    .value
            })
            .collect();
        let mean = summary::mean(&vals);
        assert!((30.0..55.0).contains(&mean), "tuned p95 {mean}");
    }

    #[test]
    fn single_worker_is_much_slower() {
        let ng = Nginx::new();
        let one = Nginx::efficiency(
            &ng.knobs(&set(
                &ng,
                ng.default_config(),
                "worker_processes",
                V::Int(1),
            )),
            8.0,
        );
        let eight = Nginx::efficiency(
            &ng.knobs(&set(
                &ng,
                ng.default_config(),
                "worker_processes",
                V::Int(8),
            )),
            8.0,
        );
        assert!(eight > one * 1.4, "one {one} eight {eight}");
    }

    #[test]
    fn no_keepalive_hurts() {
        let ng = Nginx::new();
        let off = Nginx::efficiency(
            &ng.knobs(&set(
                &ng,
                ng.default_config(),
                "keepalive_timeout",
                V::Int(0),
            )),
            8.0,
        );
        let on = Nginx::efficiency(&ng.knobs(&ng.default_config()), 8.0);
        assert!(on > off * 1.2);
    }

    #[test]
    fn too_few_connections_collapse() {
        let ng = Nginx::new();
        let tiny = set(
            &ng,
            set(&ng, ng.default_config(), "worker_connections", V::Int(64)),
            "worker_processes",
            V::Int(1),
        );
        let e_tiny = Nginx::efficiency(&ng.knobs(&tiny), 8.0);
        let e_def = Nginx::efficiency(&ng.knobs(&ng.default_config()), 8.0);
        assert!(e_tiny < e_def * 0.25, "tiny {e_tiny} default {e_def}");
    }

    #[test]
    fn thin_headroom_configs_spike_sometimes() {
        let ng = Nginx::new();
        let w = tuna_workloads::wikipedia();
        // 1 worker x 640 connections = 1.07x headroom: the knife's edge.
        let thin = set(
            &ng,
            set(&ng, tuned(&ng), "worker_connections", V::Int(640)),
            "worker_processes",
            V::Int(1),
        );
        let mut rng = Rng::seed_from(5);
        let mut cl = cluster(6);
        let vals: Vec<f64> = (0..400)
            .map(|i| ng.run(&thin, &w, cl.machine_mut(i % 10), &mut rng).value)
            .collect();
        let rr = summary::relative_range(&vals);
        assert!(rr > 0.5, "no spikes observed, rr {rr}");

        // Plenty of headroom: no spikes.
        let safe = tuned(&ng);
        let vals_safe: Vec<f64> = (0..400)
            .map(|i| ng.run(&safe, &w, cl.machine_mut(i % 10), &mut rng).value)
            .collect();
        assert!(summary::relative_range(&vals_safe) < 0.4);
    }

    #[test]
    fn gzip_sweet_spot_beats_max_compression() {
        let ng = Nginx::new();
        let base = set(&ng, ng.default_config(), "gzip", V::Bool(true));
        let mid = Nginx::efficiency(
            &ng.knobs(&set(&ng, base.clone(), "gzip_comp_level", V::Int(4))),
            8.0,
        );
        let max = Nginx::efficiency(
            &ng.knobs(&set(&ng, base, "gzip_comp_level", V::Int(9))),
            8.0,
        );
        assert!(mid > max);
    }

    #[test]
    fn sampled_configs_run_without_panic() {
        let ng = Nginx::new();
        let w = tuna_workloads::wikipedia();
        let mut rng = Rng::seed_from(7);
        let mut cl = cluster(8);
        for i in 0..200 {
            let cfg = ng.space().sample(&mut rng);
            let out = ng.run(&cfg, &w, cl.machine_mut(i % 10), &mut rng);
            assert!(out.value.is_finite() && out.value > 0.0);
            assert!(!out.crashed);
        }
    }

    /// The by-name decode `knobs` replaced, kept as its oracle.
    fn knobs_by_name(ng: &Nginx, config: &Config) -> NginxKnobs {
        let s = ng.space();
        NginxKnobs {
            worker_processes: s.value_of(config, "worker_processes").as_int() as f64,
            worker_connections: s.value_of(config, "worker_connections").as_int() as f64,
            keepalive_timeout: s.value_of(config, "keepalive_timeout").as_int() as f64,
            keepalive_requests: s.value_of(config, "keepalive_requests").as_int() as f64,
            sendfile: s.value_of(config, "sendfile").as_bool(),
            tcp_nopush: s.value_of(config, "tcp_nopush").as_bool(),
            tcp_nodelay: s.value_of(config, "tcp_nodelay").as_bool(),
            gzip: s.value_of(config, "gzip").as_bool(),
            gzip_comp_level: s.value_of(config, "gzip_comp_level").as_int() as f64,
            open_file_cache: s.value_of(config, "open_file_cache").as_int() as f64,
            access_log: s.value_of(config, "access_log").as_bool(),
            multi_accept: s.value_of(config, "multi_accept").as_bool(),
        }
    }

    #[test]
    fn knobs_decode_by_position_as_by_name() {
        let ng = Nginx::new();
        let mut rng = Rng::seed_from(32);
        let mut configs = vec![ng.default_config()];
        configs.extend((0..300).map(|_| ng.space().sample(&mut rng)));
        for c in &configs {
            assert_eq!(ng.knobs(c), knobs_by_name(&ng, c));
        }
        assert_eq!(ng.default_knobs, ng.knobs(&ng.default_config()));
    }
}
