//! Guest-OS metric generation — the `psutil` substitute.
//!
//! §4.3 of the paper feeds "all available metrics from psutil" plus a
//! one-hot machine id into the noise-adjuster model. Our simulator
//! generates an equivalent metric vector whose values are *causally linked*
//! to the same interference latents that perturb measured performance:
//! a noisy neighbor that steals cache bandwidth both slows the SuT *and*
//! raises the guest's LLC-miss counters, so a model trained on the metrics
//! can explain away part of the performance noise — exactly the paper's
//! mechanism, with a knowable ground truth.
//!
//! # Examples
//!
//! ```
//! use tuna_cloudsim::{Machine, Region, VmSku};
//! use tuna_cloudsim::components::ComponentVec;
//! use tuna_metrics::{generate, MetricVector, SCHEMA};
//! use tuna_stats::rng::Rng;
//!
//! let root = Rng::seed_from(1);
//! let mut m = Machine::provision(0, &VmSku::d8s_v5(), &Region::westus2(), &root);
//! let demand = ComponentVec::new(0.5, 0.8, 0.4, 0.3, 0.2);
//! let snap = m.observe(&demand);
//! let metrics = generate(&snap, &demand, 1.0, &mut Rng::seed_from(2));
//! assert_eq!(metrics.values().len(), SCHEMA.len());
//! ```

use tuna_cloudsim::components::ComponentVec;
use tuna_cloudsim::machine::Snapshot;
use tuna_stats::rng::Rng;

/// Names of the generated guest metrics, in vector order.
pub const SCHEMA: [&str; 30] = [
    "cpu_user_pct",
    "cpu_system_pct",
    "cpu_idle_pct",
    "cpu_iowait_pct",
    "cpu_steal_pct",
    "ctx_switches_per_s",
    "interrupts_per_s",
    "soft_interrupts_per_s",
    "syscalls_per_s",
    "load_avg_1",
    "load_avg_5",
    "procs_running",
    "procs_blocked",
    "mem_used_pct",
    "mem_available_mb",
    "mem_cached_mb",
    "swap_used_mb",
    "page_faults_per_s",
    "major_faults_per_s",
    "mem_bw_util_pct",
    "llc_miss_rate",
    "llc_references_per_s",
    "disk_read_mb_s",
    "disk_write_mb_s",
    "disk_iops",
    "disk_util_pct",
    "disk_await_ms",
    "net_sent_mb_s",
    "net_recv_mb_s",
    "thread_create_us",
];

/// A generated guest-metric vector (aligned with [`SCHEMA`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVector {
    values: Vec<f64>,
}

impl MetricVector {
    /// Creates a vector; must match the schema width.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != SCHEMA.len()`.
    pub fn new(values: Vec<f64>) -> Self {
        assert_eq!(values.len(), SCHEMA.len(), "metric width mismatch");
        MetricVector { values }
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of the metric named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        SCHEMA
            .iter()
            .position(|&n| n == name)
            .map(|i| self.values[i])
    }
}

/// Generates the guest-metric vector for one measurement epoch.
///
/// - `snapshot` is the machine observation for the epoch (its
///   `interference` latents drive the noise-correlated counters);
/// - `demand` is the SuT's per-component utilization;
/// - `relative_perf` is the achieved performance relative to nominal
///   (throughput-linked counters scale with it);
/// - `rng` adds small observation noise (counters are themselves sampled).
pub fn generate(
    snapshot: &Snapshot,
    demand: &ComponentVec,
    relative_perf: f64,
    rng: &mut Rng,
) -> MetricVector {
    let itf = &snapshot.interference;
    let perf = relative_perf.max(0.0);
    // Small multiplicative observation noise per counter.
    let mut obs = |x: f64| (x * (1.0 + 0.01 * rng.next_gaussian())).max(0.0);

    // CPU accounting: interference shows up as steal time; disk pressure as
    // iowait. Shares are percentages of total CPU time.
    let cpu_busy = (demand.cpu * 100.0).min(98.0);
    let steal = (-itf.cpu).max(0.0) * 2_000.0 + (1.0 - snapshot.speeds.cpu).max(0.0) * 300.0;
    let iowait = demand.disk * 8.0 + (-itf.disk).max(0.0) * 900.0;
    let user = cpu_busy * 0.72;
    let system = cpu_busy * 0.28 + (-itf.os).max(0.0) * 120.0;
    let idle = (100.0 - user - system - steal - iowait).max(0.0);

    // Scheduler / kernel counters: OS interference inflates context-switch
    // cost and visible kernel activity.
    let ctx = 9_000.0 * demand.cpu * perf * (1.0 + 2.0 * (-itf.os).max(0.0));
    let intr = 5_500.0 * (demand.disk + demand.cpu) * perf;
    let softirq = 2_200.0 * demand.cpu * perf;
    let syscalls = 40_000.0 * (demand.cpu + demand.os) * perf;
    let load1 = 8.0 * demand.cpu * (1.0 + 3.0 * (-itf.cpu).max(0.0)) + 2.0 * demand.disk;
    let load5 = load1 * 0.92;
    let procs_running = 1.0 + 7.0 * demand.cpu;
    let procs_blocked = 4.0 * demand.disk * (1.0 + 10.0 * (-itf.disk).max(0.0));

    // Memory: interference lowers achievable bandwidth and raises faults.
    let mem_used = (35.0 + 55.0 * demand.memory).min(99.0);
    let mem_available = 32_000.0 * (1.0 - mem_used / 100.0);
    let mem_cached = 12_000.0 * demand.disk.max(0.2);
    let swap_used = 900.0 * (demand.memory - 0.9).max(0.0);
    let faults = 20_000.0 * demand.memory * perf * (1.0 + 1.5 * (-itf.memory).max(0.0));
    let major_faults = 40.0 * demand.disk * (1.0 + 4.0 * (-itf.memory).max(0.0));
    let mem_bw_util = (demand.memory * 100.0 * (1.0 + 4.0 * (-itf.memory).max(0.0))).min(100.0);

    // Cache: the dominant interference channel; miss rate rises sharply
    // when a neighbor thrashes the shared LLC.
    let llc_miss = (0.08 + demand.cache * 0.10 + (-itf.cache).max(0.0) * 2.0).min(0.99);
    let llc_refs = 3.0e8 * (demand.cpu + demand.cache) * perf;

    // Disk: throughput counters scale with achieved performance; await
    // rises when the virtual disk is contended.
    let disk_read = 220.0 * demand.disk * perf * 0.4;
    let disk_write = 220.0 * demand.disk * perf * 0.6;
    let disk_iops = 11_000.0 * demand.disk * perf;
    let disk_util = (demand.disk * 100.0 / snapshot.speeds.disk.max(0.05)).min(100.0);
    let disk_await = 0.9 / snapshot.speeds.disk.max(0.05) * (1.0 + 6.0 * (-itf.disk).max(0.0));

    // Network: proportional to served work.
    let net_sent = 60.0 * perf * demand.cpu.max(0.1);
    let net_recv = 25.0 * perf * demand.cpu.max(0.1);

    // OS latency probe: thread-creation time grows with OS interference —
    // the paper's previously unmeasured variance source.
    let thread_create = 18.5 / snapshot.speeds.os.max(0.05);

    MetricVector::new(vec![
        obs(user),
        obs(system),
        obs(idle),
        obs(iowait),
        obs(steal),
        obs(ctx),
        obs(intr),
        obs(softirq),
        obs(syscalls),
        obs(load1),
        obs(load5),
        obs(procs_running),
        obs(procs_blocked),
        obs(mem_used),
        obs(mem_available),
        obs(mem_cached),
        obs(swap_used),
        obs(faults),
        obs(major_faults),
        obs(mem_bw_util),
        obs(llc_miss),
        obs(llc_refs),
        obs(disk_read),
        obs(disk_write),
        obs(disk_iops),
        obs(disk_util),
        obs(disk_await),
        obs(net_sent),
        obs(net_recv),
        obs(thread_create),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_cloudsim::{Machine, Region, VmSku};
    use tuna_stats::rng::Rng;
    use tuna_stats::summary::mean;

    /// Pearson's r of two equal-length samples.
    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let (mx, my) = (mean(xs), mean(ys));
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for (x, y) in xs.iter().zip(ys) {
            let (dx, dy) = (x - mx, y - my);
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        sxy / (sxx * syy).sqrt()
    }

    fn machine(seed: u64) -> Machine {
        Machine::provision(
            seed,
            &VmSku::d8s_v5(),
            &Region::westus2(),
            &Rng::seed_from(99),
        )
    }

    fn demand() -> ComponentVec {
        ComponentVec::new(0.6, 0.8, 0.5, 0.4, 0.3)
    }

    #[test]
    fn schema_width_and_names_unique() {
        let mut names = SCHEMA.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCHEMA.len());
    }

    #[test]
    fn vector_width_matches_schema() {
        let mut m = machine(1);
        let snap = m.observe(&demand());
        let v = generate(&snap, &demand(), 1.0, &mut Rng::seed_from(2));
        assert_eq!(v.values().len(), SCHEMA.len());
        assert!(v.values().iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    fn get_by_name() {
        let mut m = machine(1);
        let snap = m.observe(&demand());
        let v = generate(&snap, &demand(), 1.0, &mut Rng::seed_from(2));
        assert!(v.get("cpu_user_pct").is_some());
        assert!(v.get("thread_create_us").is_some());
        assert!(v.get("nonexistent").is_none());
    }

    #[test]
    fn cache_interference_visible_in_llc_miss_rate() {
        // Correlation between the (latent) cache interference and the
        // (observable) LLC miss rate must be strongly negative: worse
        // interference (negative latent) raises the miss rate.
        let mut m = machine(3);
        let mut latents = Vec::new();
        let mut misses = Vec::new();
        let mut rng = Rng::seed_from(5);
        for _ in 0..600 {
            let snap = m.observe(&demand());
            let v = generate(&snap, &demand(), 1.0, &mut rng);
            latents.push(snap.interference.cache);
            misses.push(v.get("llc_miss_rate").unwrap());
        }
        let r = pearson(&latents, &misses);
        assert!(r < -0.5, "llc_miss_rate uncorrelated with latent: r={r}");
    }

    #[test]
    fn os_interference_visible_in_thread_create_time() {
        let mut m = machine(4);
        let mut latents = Vec::new();
        let mut created = Vec::new();
        let mut rng = Rng::seed_from(6);
        for _ in 0..600 {
            let snap = m.observe(&demand());
            let v = generate(&snap, &demand(), 1.0, &mut rng);
            latents.push(snap.interference.os);
            created.push(v.get("thread_create_us").unwrap());
        }
        let r = pearson(&latents, &created);
        assert!(r < -0.5, "thread_create_us uncorrelated: r={r}");
    }

    #[test]
    fn throughput_counters_scale_with_perf() {
        let mut m = machine(5);
        let snap = m.observe(&demand());
        let mut rng = Rng::seed_from(7);
        let hi = generate(&snap, &demand(), 1.5, &mut rng);
        let lo = generate(&snap, &demand(), 0.5, &mut rng);
        assert!(hi.get("disk_iops").unwrap() > lo.get("disk_iops").unwrap() * 2.0);
        assert!(hi.get("net_sent_mb_s").unwrap() > lo.get("net_sent_mb_s").unwrap() * 2.0);
    }

    #[test]
    fn idle_machine_mostly_idle() {
        let mut m = machine(6);
        let idle_demand = ComponentVec::uniform(0.02);
        let snap = m.observe(&idle_demand);
        let v = generate(&snap, &idle_demand, 0.1, &mut Rng::seed_from(8));
        assert!(v.get("cpu_idle_pct").unwrap() > 85.0);
        assert!(v.get("cpu_user_pct").unwrap() < 5.0);
    }

    #[test]
    fn deterministic_given_seeds() {
        let mut m1 = machine(7);
        let mut m2 = machine(7);
        let s1 = m1.observe(&demand());
        let s2 = m2.observe(&demand());
        let a = generate(&s1, &demand(), 1.0, &mut Rng::seed_from(9));
        let b = generate(&s2, &demand(), 1.0, &mut Rng::seed_from(9));
        assert_eq!(a, b);
    }
}
