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
//! # Paying on read
//!
//! Only the noise adjuster reads guest metrics, yet every simulated run
//! generates them. So [`generate`] takes no draws and allocates nothing:
//!
//! - it stores its inputs and a copy of the caller's `rng`, inline;
//! - [`MetricVector::values`] takes the draws (one polar-method Gaussian
//!   per counter) from that copy on first read. A run's metric draws are
//!   therefore the tail of its stream, whether or not anyone reads them;
//! - the caller's `rng` is left where it was. Every SuT run generates its
//!   metrics last, so a caller that drops the run's generator afterwards
//!   (the executor and the baselines fork one per run) sees no change. A
//!   caller that keeps drawing from the same generator calls
//!   [`MetricVector::settle`] first, which takes the same draws from it;
//! - the values are bit-for-bit those of an eager computation. The tests
//!   keep the eager generator as an oracle.
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
//! let mut rng = Rng::seed_from(2);
//! let metrics = generate(&snap, &demand, 1.0, &mut rng);
//! assert_eq!(metrics.values().len(), SCHEMA.len());
//! // Before drawing from `rng` again, take the draws the metrics used.
//! metrics.settle(&mut rng);
//! ```

use std::sync::OnceLock;

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

/// A generated guest-metric vector (aligned with [`SCHEMA`]). One from
/// [`generate`] computes its values on first read (see the crate docs).
#[derive(Clone)]
pub struct MetricVector {
    /// The values, set by [`MetricVector::new`] or on first read.
    values: OnceLock<[f64; SCHEMA.len()]>,
    /// What a generated vector's first read draws from; `None` for a
    /// vector made by [`MetricVector::new`].
    pending: Option<Pending>,
}

/// The inputs of one [`generate`] call and a copy of its generator.
#[derive(Clone)]
struct Pending {
    speeds: ComponentVec,
    interference: ComponentVec,
    demand: ComponentVec,
    perf: f64,
    rng: Rng,
}

impl Pending {
    /// The counters with their observation noise, drawn from a copy of
    /// the stored generator.
    fn draw(&self) -> [f64; SCHEMA.len()] {
        let mut rng = self.rng.clone();
        counters(&self.speeds, &self.interference, &self.demand, self.perf)
            // Small multiplicative observation noise per counter.
            .map(|x| (x * (1.0 + 0.01 * rng.next_gaussian())).max(0.0))
    }
}

impl MetricVector {
    /// Creates a vector; must match the schema width.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != SCHEMA.len()`.
    pub fn new(values: Vec<f64>) -> Self {
        let values = <[f64; SCHEMA.len()]>::try_from(values)
            .unwrap_or_else(|v| panic!("metric width mismatch: {} values", v.len()));
        MetricVector {
            values: OnceLock::from(values),
            pending: None,
        }
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        self.values.get_or_init(|| {
            self.pending
                .as_ref()
                .expect("an unset vector is pending")
                .draw()
        })
    }

    /// Value of the metric named `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        SCHEMA
            .iter()
            .position(|&n| n == name)
            .map(|i| self.values()[i])
    }

    /// Takes this vector's draws from `rng`, the generator that was
    /// passed to [`generate`], so `rng` ends where an eager generator
    /// would have left it. Call it right after the run that made the
    /// vector, before drawing from `rng` again; a caller that drops the
    /// run's generator need not. A vector from [`MetricVector::new`]
    /// took no draws and leaves `rng` alone.
    pub fn settle(&self, rng: &mut Rng) {
        if let Some(pending) = &self.pending {
            debug_assert!(
                *rng == pending.rng,
                "settle must follow the run that generated the metrics"
            );
            for _ in 0..SCHEMA.len() {
                rng.next_polar();
            }
        }
    }
}

impl PartialEq for MetricVector {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl std::fmt::Debug for MetricVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricVector")
            .field("values", &self.values())
            .finish()
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
///
/// Nothing is drawn or computed here: the first read draws from a copy
/// of `rng`, which is left as it was (see the crate docs and
/// [`MetricVector::settle`]).
pub fn generate(
    snapshot: &Snapshot,
    demand: &ComponentVec,
    relative_perf: f64,
    rng: &mut Rng,
) -> MetricVector {
    MetricVector {
        values: OnceLock::new(),
        pending: Some(Pending {
            speeds: snapshot.speeds,
            interference: snapshot.interference,
            demand: *demand,
            perf: relative_perf.max(0.0),
            rng: rng.clone(),
        }),
    }
}

/// The noise-free counters, in [`SCHEMA`] order.
fn counters(
    speeds: &ComponentVec,
    itf: &ComponentVec,
    demand: &ComponentVec,
    perf: f64,
) -> [f64; SCHEMA.len()] {
    // CPU accounting: interference shows up as steal time; disk pressure as
    // iowait. Shares are percentages of total CPU time.
    let cpu_busy = (demand.cpu * 100.0).min(98.0);
    let steal = (-itf.cpu).max(0.0) * 2_000.0 + (1.0 - speeds.cpu).max(0.0) * 300.0;
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
    let disk_util = (demand.disk * 100.0 / speeds.disk.max(0.05)).min(100.0);
    let disk_await = 0.9 / speeds.disk.max(0.05) * (1.0 + 6.0 * (-itf.disk).max(0.0));

    // Network: proportional to served work.
    let net_sent = 60.0 * perf * demand.cpu.max(0.1);
    let net_recv = 25.0 * perf * demand.cpu.max(0.1);

    // OS latency probe: thread-creation time grows with OS interference —
    // the paper's previously unmeasured variance source.
    let thread_create = 18.5 / speeds.os.max(0.05);

    [
        user,
        system,
        idle,
        iowait,
        steal,
        ctx,
        intr,
        softirq,
        syscalls,
        load1,
        load5,
        procs_running,
        procs_blocked,
        mem_used,
        mem_available,
        mem_cached,
        swap_used,
        faults,
        major_faults,
        mem_bw_util,
        llc_miss,
        llc_refs,
        disk_read,
        disk_write,
        disk_iops,
        disk_util,
        disk_await,
        net_sent,
        net_recv,
        thread_create,
    ]
}

/// The eager generator [`generate`] replaced, kept as the oracle its
/// tests compare against: it draws from the caller's `rng` and computes
/// every counter at once.
#[cfg(test)]
mod eager {
    use super::MetricVector;
    use tuna_cloudsim::components::ComponentVec;
    use tuna_cloudsim::machine::Snapshot;
    use tuna_stats::rng::Rng;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
            v.settle(&mut rng);
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
            v.settle(&mut rng);
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
        hi.settle(&mut rng);
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

    fn bits(v: &MetricVector) -> Vec<u64> {
        v.values().iter().map(|x| x.to_bits()).collect()
    }

    /// A snapshot after `epochs` observations of a machine of `sku`
    /// (0: d8s_v5, 1: the burstable b8ms, whose depleted credits push
    /// speeds far from nominal).
    fn snapshot(seed: u64, sku: usize, epochs: usize, demand: &ComponentVec) -> Snapshot {
        let sku = if sku == 0 {
            VmSku::d8s_v5()
        } else {
            VmSku::b8ms()
        };
        let mut m = Machine::provision(seed, &sku, &Region::westus2(), &Rng::seed_from(seed));
        let mut snap = m.observe(demand);
        for _ in 0..epochs {
            snap = m.observe(demand);
        }
        snap
    }

    proptest! {
        #[test]
        fn lazy_vector_matches_the_eager_oracle(
            seed in any::<u64>(),
            sku in 0usize..2,
            epochs in 0usize..40,
            demand in prop::collection::vec(0.0f64..1.2, 5..=5),
            perf_kind in 0usize..4,
            perf in 0.0f64..2.5,
            draws in any::<u64>(),
        ) {
            let demand = ComponentVec::new(demand[0], demand[1], demand[2], demand[3], demand[4]);
            let perf = match perf_kind {
                0 => 0.0,
                1 => -0.4,
                _ => perf,
            };
            let snap = snapshot(seed, sku, epochs, &demand);
            let (mut lazy_rng, mut eager_rng) = (Rng::seed_from(draws), Rng::seed_from(draws));
            let lazy = generate(&snap, &demand, perf, &mut lazy_rng);
            let oracle = eager::generate(&snap, &demand, perf, &mut eager_rng);

            // `generate` draws nothing from the caller; `settle` takes
            // the draws and leaves the stream where the eager pass did.
            prop_assert_eq!(&lazy_rng, &Rng::seed_from(draws));
            let early_clone = lazy.clone();
            lazy.settle(&mut lazy_rng);
            prop_assert_eq!(&lazy_rng, &eager_rng);
            prop_assert_eq!(lazy_rng.next_u64(), eager_rng.next_u64());

            // `Debug` and `==` read through; a clone taken before the
            // first read computes the same bits as the original.
            let unread = generate(&snap, &demand, perf, &mut Rng::seed_from(draws));
            prop_assert_eq!(format!("{unread:?}"), format!("{oracle:?}"));
            prop_assert_eq!(format!("{:#?}", generate(&snap, &demand, perf, &mut Rng::seed_from(draws))), format!("{oracle:#?}"));
            prop_assert!(generate(&snap, &demand, perf, &mut Rng::seed_from(draws)) == oracle);
            prop_assert_eq!(bits(&lazy), bits(&oracle));
            prop_assert_eq!(bits(&early_clone), bits(&oracle));
            prop_assert_eq!(bits(&lazy.clone()), bits(&oracle));
            prop_assert!(lazy == early_clone);
            prop_assert_eq!(lazy.get("disk_iops"), oracle.get("disk_iops"));
        }

        #[test]
        fn one_settled_stream_matches_the_eager_stream(
            seed in any::<u64>(),
            sku in 0usize..2,
            runs in 1usize..12,
            draws in any::<u64>(),
            read_before_settle in any::<bool>(),
        ) {
            // Several epochs on one machine, one generator threaded
            // through them all, as a caller that keeps its stream does.
            let demand = demand();
            let mut m = Machine::provision(seed, &if sku == 0 { VmSku::d8s_v5() } else { VmSku::b8ms() }, &Region::westus2(), &Rng::seed_from(seed));
            let (mut lazy_rng, mut eager_rng) = (Rng::seed_from(draws), Rng::seed_from(draws));
            for run in 0..runs {
                let snap = m.observe(&demand);
                let perf = 0.5 + run as f64 * 0.1;
                let lazy = generate(&snap, &demand, perf, &mut lazy_rng);
                if read_before_settle {
                    lazy.values();
                }
                lazy.settle(&mut lazy_rng);
                let oracle = eager::generate(&snap, &demand, perf, &mut eager_rng);
                prop_assert_eq!(bits(&lazy), bits(&oracle));
                prop_assert_eq!(&lazy_rng, &eager_rng);
                // The caller's next draw is the eager caller's next draw.
                prop_assert_eq!(lazy_rng.next_f64().to_bits(), eager_rng.next_f64().to_bits());
            }
        }
    }

    #[test]
    fn concurrent_first_reads_and_clones_agree() {
        let demand = demand();
        let snap = snapshot(11, 0, 3, &demand);
        let mut rng = Rng::seed_from(12);
        let mut eager_rng = rng.clone();
        for _ in 0..16 {
            let shared = generate(&snap, &demand, 1.0, &mut rng);
            shared.settle(&mut rng);
            let oracle = bits(&eager::generate(&snap, &demand, 1.0, &mut eager_rng));
            // Even items read first, odd items clone first: the first read
            // races other first reads and clones on the pool's workers.
            let seen = tuna_stats::pool::map(
                4,
                (0..8).collect(),
                |_| (),
                |_, i: usize| {
                    if i % 2 == 0 {
                        bits(&shared)
                    } else {
                        bits(&shared.clone())
                    }
                },
            );
            assert!(seen.iter().all(|b| *b == oracle));
        }
    }

    #[test]
    fn settle_leaves_a_given_vectors_caller_alone() {
        let v = MetricVector::new(vec![1.0; SCHEMA.len()]);
        let mut rng = Rng::seed_from(13);
        v.settle(&mut rng);
        assert_eq!(rng, Rng::seed_from(13));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "settle must follow the run")]
    fn settle_out_of_turn_is_caught_in_debug_builds() {
        let mut rng = Rng::seed_from(14);
        let v = generate(&snapshot(15, 0, 1, &demand()), &demand(), 1.0, &mut rng);
        rng.next_u64();
        v.settle(&mut rng);
    }

    #[test]
    #[should_panic(expected = "metric width mismatch")]
    fn new_rejects_the_wrong_width() {
        MetricVector::new(vec![0.0; SCHEMA.len() - 1]);
    }

    #[test]
    fn new_vectors_are_read_as_given() {
        let values: Vec<f64> = (0..SCHEMA.len()).map(|i| i as f64 * 0.5).collect();
        let v = MetricVector::new(values.clone());
        assert_eq!(v.values(), &values[..]);
        assert_eq!(v.clone(), v);
        assert_eq!(
            format!("{v:?}"),
            format!("MetricVector {{ values: {values:?} }}")
        );
    }
}
