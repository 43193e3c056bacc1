//! Parallel trial execution with a serial-equivalence guarantee.
//!
//! TUNA's detection guarantee rests on sampling each configuration on
//! *distinct* nodes of the worker cluster (§4.1, Figure 9), which makes the
//! runs of one scheduling round independent by construction: each run
//! touches exactly one [`Machine`](tuna_cloudsim::machine::Machine) and
//! no machine appears twice in a batch for the same config. This module
//! exploits that independence to execute a round's `(config, machine)`
//! assignments concurrently — one *lane* per simulated worker — while
//! producing **bit-identical** results to serial execution.
//!
//! Two disciplines make the equivalence hold:
//!
//! 1. **Forked per-run RNGs.** Every [`RunRequest`] carries a `stream`
//!    label (for pipeline runs, `hash_combine(config_id, machine_idx)`);
//!    the engine derives that run's generator with [`Rng::fork`] from a
//!    shared base instead of drawing sequentially from one generator.
//!    Forking does not advance the base, so run randomness is a pure
//!    function of `(base state, stream)` — independent of execution order.
//!    The run's generator is dropped after the run, so its guest metrics
//!    may draw their tail of the stream whenever they are first read.
//! 2. **Disjoint machine lanes.** Requests are grouped by machine into
//!    lanes over [`Cluster::machines_mut`]; lanes run concurrently but
//!    each lane executes its runs in plan order, so every machine observes
//!    the exact same sequence of measurement epochs as under serial
//!    execution.
//!
//! The lanes fan out through the workspace's one worker pool,
//! [`tuna_stats::pool::map`]: worker threads claim lanes one at a time,
//! and each run writes its outcome into its request's slot, so the
//! outcomes are in plan order without a reassembly pass. Besides the
//! pool's threads, a batch makes four allocations of any size: the
//! slots, the lane permutation, the lane list and the per-lane
//! [`BatchStats`]. Per-lane wall-clock is recorded there so speedup is
//! measurable.

use std::sync::OnceLock;
use std::time::Instant;

use tuna_cloudsim::Cluster;
use tuna_stats::rng::Rng;
use tuna_sut::{RunOutcome, SystemUnderTest};
use tuna_workloads::Workload;

/// How trial batches are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One thread executes runs in plan order.
    Serial,
    /// Up to `workers` OS threads execute machine lanes concurrently.
    /// Results are bit-identical to [`ExecutionMode::Serial`].
    Parallel {
        /// Worker-thread cap (effective count is `min(workers, lanes)`).
        workers: usize,
    },
}

impl ExecutionMode {
    /// Reads the mode from the `TUNA_WORKERS` environment variable:
    /// unset, `0` or `1` mean serial; `N > 1` means `Parallel { N }`.
    /// Unparseable values fall back to serial.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("TUNA_WORKERS").ok().as_deref())
    }

    /// [`ExecutionMode::from_env`]'s mapping, factored out of the
    /// environment read so it is testable without env races.
    fn parse(value: Option<&str>) -> Self {
        match value.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n > 1 => ExecutionMode::Parallel { workers: n },
            _ => ExecutionMode::Serial,
        }
    }

    /// The worker-thread cap (1 for serial).
    pub fn workers(&self) -> usize {
        match *self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel { workers } => workers.max(1),
        }
    }
}

/// One planned trial: run `config` on `cluster[machine]` with the run-level
/// generator `base.fork(stream)`.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest<'a> {
    /// The configuration to evaluate.
    pub config: &'a tuna_space::Config,
    /// Machine index within the cluster.
    pub machine: usize,
    /// RNG fork label; must be unique within a batch for decorrelated
    /// runs (the pipeline uses `hash_combine(config_id, machine_idx)`).
    pub stream: u64,
}

/// Wall-clock accounting for one executed lane.
#[derive(Debug, Clone, Copy)]
pub struct LaneStats {
    /// Machine index the lane ran on.
    pub machine: usize,
    /// Number of runs in the lane.
    pub runs: usize,
    /// Wall-clock nanoseconds spent executing the lane.
    pub nanos: u128,
}

/// Wall-clock accounting for one batch.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Whole-batch wall-clock nanoseconds (including pool overhead).
    pub wall_nanos: u128,
    /// Per-lane accounting.
    pub lanes: Vec<LaneStats>,
}

impl BatchStats {
    /// Sum of per-lane busy time (the serial cost of the batch's work).
    pub fn busy_nanos(&self) -> u128 {
        self.lanes.iter().map(|l| l.nanos).sum()
    }

    /// The slowest lane (the batch's critical path).
    pub fn critical_nanos(&self) -> u128 {
        self.lanes.iter().map(|l| l.nanos).max().unwrap_or(0)
    }
}

/// Cumulative execution accounting across a pipeline's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Batches executed.
    pub batches: usize,
    /// Total runs executed.
    pub runs: usize,
    /// Total wall-clock nanoseconds across batches.
    pub wall_nanos: u128,
    /// Total lane-busy nanoseconds (what a single thread would have spent
    /// inside the SuT).
    pub busy_nanos: u128,
    /// Total critical-path nanoseconds (a lower bound on the wall-clock
    /// of a perfectly scheduled parallel execution).
    pub critical_nanos: u128,
}

impl ExecStats {
    /// Folds one batch into the totals.
    pub fn absorb(&mut self, batch: &BatchStats) {
        self.batches += 1;
        self.runs += batch.lanes.iter().map(|l| l.runs).sum::<usize>();
        self.wall_nanos += batch.wall_nanos;
        self.busy_nanos += batch.busy_nanos();
        self.critical_nanos += batch.critical_nanos();
    }

    /// Observed speedup over serial execution of the same work
    /// (`busy / wall`; 1.0 when nothing ran).
    pub fn speedup(&self) -> f64 {
        if self.wall_nanos == 0 {
            1.0
        } else {
            self.busy_nanos as f64 / self.wall_nanos as f64
        }
    }
}

/// Cached handles into the process-global metrics registry so the per
/// batch cost of instrumentation is a handful of relaxed atomic ops —
/// no lock, no name lookup. Observability only: nothing here feeds
/// back into execution.
struct ExecMetrics {
    batches: tuna_obs::Counter,
    runs: tuna_obs::Counter,
    steals: tuna_obs::Counter,
    occupancy: tuna_obs::Gauge,
    lanes: tuna_obs::Histogram,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tuna_obs::global();
        ExecMetrics {
            batches: reg.counter("tuna_executor_batches_total", "trial batches executed"),
            runs: reg.counter("tuna_executor_runs_total", "trial runs executed"),
            steals: reg.counter(
                "tuna_executor_steals_total",
                "lanes claimed by secondary pool workers (work stolen off the first thread)",
            ),
            occupancy: reg.gauge(
                "tuna_executor_lane_occupancy_pct",
                "last batch's pool occupancy: lane-busy time over workers x wall time",
            ),
            lanes: reg.histogram(
                "tuna_executor_lanes_per_batch",
                "machine lanes per executed batch",
                &[1, 2, 4, 8, 16, 32, 64],
            ),
        }
    })
}

/// Executes a batch of trial runs and returns the outcomes in plan order
/// plus wall-clock accounting.
///
/// Serial and parallel modes produce bit-identical outcomes for any worker
/// count: per-run randomness comes from `base.fork(request.stream)` and
/// each machine executes its runs in plan order either way. `base` is not
/// advanced.
///
/// # Panics
///
/// Panics if a request's machine index is out of bounds, or (propagated,
/// with its original payload) if the SuT panics.
pub fn execute_batch(
    mode: ExecutionMode,
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    cluster: &mut Cluster,
    base: &Rng,
    requests: &[RunRequest<'_>],
) -> (Vec<RunOutcome>, BatchStats) {
    if requests.is_empty() {
        return (Vec::new(), BatchStats::default());
    }

    // One outcome slot per request, in plan order, and the permutation
    // that groups the slots into machine lanes: by machine, then in plan
    // order within each machine.
    let mut slots: Vec<Option<RunOutcome>> = requests.iter().map(|_| None).collect();
    let mut plan: Vec<(usize, &mut Option<RunOutcome>)> = slots.iter_mut().enumerate().collect();
    plan.sort_unstable_by_key(|&(i, _)| (requests[i].machine, i));
    let n_machines = cluster.size();
    let mut machines = cluster.machines_mut().iter_mut().enumerate();
    let lanes: Vec<_> = plan
        .chunk_by_mut(|a, b| requests[a.0].machine == requests[b.0].machine)
        .map(|runs| {
            let machine = requests[runs[0].0].machine;
            let (_, lane) = machines.find(|&(m, _)| m == machine).unwrap_or_else(|| {
                panic!("machine {machine} out of bounds for cluster of {n_machines}")
            });
            (machine, lane, runs)
        })
        .collect();

    let workers = mode.workers().min(lanes.len());
    let metrics = exec_metrics();
    let batch_start = Instant::now();
    // Lanes come back in machine order, whichever worker ran them. A lane
    // run by any worker but the first would have queued behind it on a
    // single thread: that is the "stolen" work the steal counter sees.
    let lanes = tuna_stats::pool::map(
        workers,
        lanes,
        |w| w,
        |&mut w, (machine, lane, runs)| {
            let start = Instant::now();
            for (i, slot) in runs.iter_mut() {
                let req = &requests[*i];
                let mut rng = base.fork(req.stream);
                **slot = Some(sut.run(req.config, workload, lane, &mut rng));
            }
            if w != 0 {
                metrics.steals.inc();
            }
            LaneStats {
                machine,
                runs: runs.len(),
                nanos: start.elapsed().as_nanos(),
            }
        },
    );
    let stats = BatchStats {
        wall_nanos: batch_start.elapsed().as_nanos(),
        lanes,
    };

    metrics.batches.inc();
    metrics.runs.add(requests.len() as u64);
    metrics.lanes.observe(stats.lanes.len() as u64);
    if stats.wall_nanos > 0 {
        let pool_nanos = stats.wall_nanos.saturating_mul(workers as u128);
        let pct = stats.busy_nanos().saturating_mul(100) / pool_nanos.max(1);
        metrics.occupancy.set(u64::try_from(pct).unwrap_or(100));
    }

    // `Option<RunOutcome>` has `RunOutcome`'s layout, so this collects in
    // place, into the slots' allocation.
    let outcomes = slots
        .into_iter()
        .map(|o| o.expect("every request ran"))
        .collect();
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_cloudsim::{Region, VmSku};
    use tuna_space::Config;
    use tuna_stats::rng::hash_combine;
    use tuna_sut::postgres::Postgres;

    fn cluster(n: usize, seed: u64) -> Cluster {
        Cluster::new(n, VmSku::d8s_v5(), Region::westus2(), seed)
    }

    fn plan(
        configs: &[Config],
        machines_per_config: usize,
        cluster_size: usize,
    ) -> Vec<(usize, u64, usize)> {
        // (config index, stream, machine) triples spread round-robin.
        let mut entries = Vec::new();
        for (c, cfg) in configs.iter().enumerate() {
            for k in 0..machines_per_config {
                let m = (c + k * 3) % cluster_size;
                entries.push((c, hash_combine(cfg.id().0, m as u64), m));
            }
        }
        entries
    }

    fn run_plan(mode: ExecutionMode, seed: u64) -> Vec<u64> {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut cluster = cluster(8, seed);
        let base = Rng::seed_from(hash_combine(seed, 1));
        let mut sample_rng = Rng::seed_from(hash_combine(seed, 2));
        let configs: Vec<Config> = (0..12)
            .map(|_| pg.space().sample(&mut sample_rng))
            .collect();
        let entries = plan(&configs, 3, 8);
        let requests: Vec<RunRequest<'_>> = entries
            .iter()
            .map(|&(c, stream, machine)| RunRequest {
                config: &configs[c],
                machine,
                stream,
            })
            .collect();
        let (outcomes, stats) = execute_batch(mode, &pg, &workload, &mut cluster, &base, &requests);
        assert_eq!(outcomes.len(), requests.len());
        assert_eq!(
            stats.lanes.iter().map(|l| l.runs).sum::<usize>(),
            requests.len()
        );
        outcomes.iter().map(|o| o.value.to_bits()).collect()
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for seed in [1u64, 7, 42] {
            let serial = run_plan(ExecutionMode::Serial, seed);
            for workers in [1usize, 2, 4, 8, 16] {
                let par = run_plan(ExecutionMode::Parallel { workers }, seed);
                assert_eq!(serial, par, "workers={workers} seed={seed} diverged");
            }
        }
    }

    #[test]
    fn one_request_batch_matches_its_run_in_a_larger_plan() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let base = Rng::seed_from(21);
        let mut sample_rng = Rng::seed_from(22);
        let configs: Vec<Config> = (0..4).map(|_| pg.space().sample(&mut sample_rng)).collect();
        let requests: Vec<RunRequest<'_>> = configs
            .iter()
            .enumerate()
            .map(|(m, cfg)| RunRequest {
                config: cfg,
                machine: m,
                stream: hash_combine(cfg.id().0, m as u64),
            })
            .collect();
        let bits = |o: &RunOutcome| {
            let mut v = vec![o.value.to_bits(), u64::from(o.crashed)];
            v.extend(o.metrics.values().iter().map(|x| x.to_bits()));
            v
        };
        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Parallel { workers: 4 },
        ] {
            let (full, _) =
                execute_batch(mode, &pg, &workload, &mut cluster(4, 21), &base, &requests);
            for (req, expected) in requests.iter().zip(&full) {
                let (alone, stats) = execute_batch(
                    mode,
                    &pg,
                    &workload,
                    &mut cluster(4, 21),
                    &base,
                    std::slice::from_ref(req),
                );
                assert_eq!(alone.len(), 1);
                assert_eq!(bits(&alone[0]), bits(expected), "{mode:?}");
                assert_eq!(stats.lanes.len(), 1, "{mode:?}");
                assert_eq!(stats.lanes[0].machine, req.machine);
                assert_eq!(stats.lanes[0].runs, 1);
                assert!(stats.busy_nanos() <= stats.wall_nanos, "{mode:?}");
            }
        }
    }

    /// Postgres, except that a run on one chosen machine panics.
    struct PanicsOn {
        inner: Postgres,
        machine: tuna_cloudsim::machine::MachineId,
    }

    impl SystemUnderTest for PanicsOn {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn space(&self) -> &tuna_space::ConfigSpace {
            self.inner.space()
        }
        fn default_config(&self) -> Config {
            self.inner.default_config()
        }
        fn supports(&self, workload: &Workload) -> bool {
            self.inner.supports(workload)
        }
        fn run(
            &self,
            config: &Config,
            workload: &Workload,
            machine: &mut tuna_cloudsim::machine::Machine,
            rng: &mut Rng,
        ) -> RunOutcome {
            if machine.id() == self.machine {
                panic!("sut failed on the chosen machine");
            }
            self.inner.run(config, workload, machine, rng)
        }
    }

    #[test]
    fn sut_panic_keeps_its_message_at_any_worker_count() {
        let workload = tuna_workloads::tpcc();
        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Parallel { workers: 4 },
        ] {
            let mut c = cluster(4, 11);
            let sut = PanicsOn {
                inner: Postgres::new(),
                machine: c.machine(2).id(),
            };
            let cfg = sut.default_config();
            let requests: Vec<RunRequest<'_>> = (0..4)
                .map(|m| RunRequest {
                    config: &cfg,
                    machine: m,
                    stream: m as u64,
                })
                .collect();
            let base = Rng::seed_from(11);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_batch(mode, &sut, &workload, &mut c, &base, &requests)
            }))
            .expect_err("the SuT panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"sut failed on the chosen machine"),
                "{mode:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_machine_panics() {
        let pg = Postgres::new();
        let cfg = pg.default_config();
        let requests = [RunRequest {
            config: &cfg,
            machine: 2,
            stream: 1,
        }];
        execute_batch(
            ExecutionMode::Serial,
            &pg,
            &tuna_workloads::tpcc(),
            &mut cluster(2, 1),
            &Rng::seed_from(1),
            &requests,
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut c = cluster(2, 1);
        let base = Rng::seed_from(3);
        let (outcomes, stats) =
            execute_batch(ExecutionMode::Serial, &pg, &workload, &mut c, &base, &[]);
        assert!(outcomes.is_empty());
        assert_eq!(stats.wall_nanos, 0);
        assert!(stats.lanes.is_empty());
    }

    #[test]
    fn base_rng_is_not_advanced() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut c = cluster(2, 1);
        let base = Rng::seed_from(9);
        let before = base.clone();
        let cfg = pg.default_config();
        let requests = [RunRequest {
            config: &cfg,
            machine: 0,
            stream: 1,
        }];
        execute_batch(
            ExecutionMode::Serial,
            &pg,
            &workload,
            &mut c,
            &base,
            &requests,
        );
        assert_eq!(base, before, "fork-only discipline violated");
    }

    #[test]
    fn lane_stats_cover_every_machine_once() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        let mut c = cluster(4, 5);
        let base = Rng::seed_from(5);
        let cfg = pg.default_config();
        let requests: Vec<RunRequest<'_>> = (0..4)
            .chain(0..4)
            .map(|m| RunRequest {
                config: &cfg,
                machine: m,
                stream: m as u64,
            })
            .collect();
        let (_, stats) = execute_batch(
            ExecutionMode::Parallel { workers: 4 },
            &pg,
            &workload,
            &mut c,
            &base,
            &requests,
        );
        let mut machines: Vec<usize> = stats.lanes.iter().map(|l| l.machine).collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1, 2, 3]);
        assert!(stats.lanes.iter().all(|l| l.runs == 2));
        assert!(stats.wall_nanos >= stats.critical_nanos());
    }

    #[test]
    fn exec_stats_accumulate_and_speedup_defined() {
        let mut stats = ExecStats::default();
        assert_eq!(stats.speedup(), 1.0);
        stats.absorb(&BatchStats {
            wall_nanos: 50,
            lanes: vec![
                LaneStats {
                    machine: 0,
                    runs: 2,
                    nanos: 40,
                },
                LaneStats {
                    machine: 1,
                    runs: 1,
                    nanos: 35,
                },
            ],
        });
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.busy_nanos, 75);
        assert_eq!(stats.critical_nanos, 40);
        assert!((stats.speedup() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_env_parses_worker_counts() {
        // Exercise the parsing mapping directly (not via the real
        // environment — tests run in parallel).
        assert_eq!(ExecutionMode::parse(None), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::parse(Some("0")), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::parse(Some("1")), ExecutionMode::Serial);
        assert_eq!(
            ExecutionMode::parse(Some("4")),
            ExecutionMode::Parallel { workers: 4 }
        );
        assert_eq!(
            ExecutionMode::parse(Some(" 8\n")),
            ExecutionMode::Parallel { workers: 8 }
        );
        assert_eq!(ExecutionMode::parse(Some("lots")), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::Serial.workers(), 1);
        assert_eq!(ExecutionMode::Parallel { workers: 4 }.workers(), 4);
        assert_eq!(ExecutionMode::Parallel { workers: 0 }.workers(), 1);
    }
}
