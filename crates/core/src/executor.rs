//! Trial execution: a round's planned runs, in plan order, on the
//! calling thread.
//!
//! TUNA samples each configuration on *distinct* nodes of the worker
//! cluster (§4.1, Figure 9), so the runs of one scheduling round are
//! independent by construction: each touches exactly one
//! [`Machine`](tuna_cloudsim::machine::Machine). The reproduction models
//! that concurrency in the [`TaskScheduler`](crate::scheduler::TaskScheduler)'s
//! plan and in the run's randomness, not in OS threads: a simulated run
//! costs about a microsecond, far less than starting a thread.
//!
//! **Forked per-run RNGs.** Every [`RunRequest`] carries a `stream` label
//! (for pipeline runs, `hash_combine(config_id, machine_idx)`); the run's
//! generator is `base.fork(stream)` instead of a sequential draw from one
//! generator. Forking does not advance the base, so run randomness is a
//! pure function of `(base state, stream)`, whatever else runs around it.
//! The run's generator is dropped after the run, so its guest metrics may
//! draw their tail of the stream whenever they are first read.
//!
//! A batch makes one allocation, its outcome `Vec`, and records its
//! wall-clock in [`BatchStats`].

use std::sync::OnceLock;
use std::time::Instant;

use tuna_cloudsim::Cluster;
use tuna_stats::rng::Rng;
use tuna_sut::{RunOutcome, SystemUnderTest};
use tuna_workloads::Workload;

/// How many worker threads a tuning run may use. Trials always run in
/// plan order on the calling thread ([`execute_batch`]); the count sets
/// the forest threads of SMAC's surrogate and the noise adjuster
/// (`ForestParams::threads`), and the campaign runner reuses it for cell
/// workers. Results are bit-identical at any count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One thread.
    Serial,
    /// Up to `workers` threads for forest fits (or campaign cells).
    /// Results are bit-identical to [`ExecutionMode::Serial`].
    Parallel {
        /// Worker-thread cap.
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

/// Wall-clock accounting for one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Runs executed.
    pub runs: usize,
    /// Wall-clock nanoseconds spent executing the runs.
    pub wall_nanos: u128,
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
    /// Total nanoseconds spent running trials. Trials run on one thread,
    /// so this equals `wall_nanos`.
    pub busy_nanos: u128,
    /// Total critical-path nanoseconds. Trials run on one thread, so this
    /// equals `wall_nanos`.
    pub critical_nanos: u128,
}

impl ExecStats {
    /// Folds one batch into the totals.
    pub fn absorb(&mut self, batch: &BatchStats) {
        self.batches += 1;
        self.runs += batch.runs;
        self.wall_nanos += batch.wall_nanos;
        self.busy_nanos += batch.wall_nanos;
        self.critical_nanos += batch.wall_nanos;
    }

    /// Observed speedup over serial execution of the same work
    /// (`busy / wall`; 1.0 when nothing ran, and 1.0 for batches this
    /// module executed).
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
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = tuna_obs::global();
        ExecMetrics {
            batches: reg.counter("tuna_executor_batches_total", "trial batches executed"),
            runs: reg.counter("tuna_executor_runs_total", "trial runs executed"),
        }
    })
}

/// Executes a batch of trial runs in plan order on the calling thread and
/// returns the outcomes in plan order plus wall-clock accounting.
///
/// Each run draws from `base.fork(request.stream)`; `base` is not
/// advanced.
///
/// # Panics
///
/// Panics if a request's machine index is out of bounds, or if the SuT
/// panics.
pub fn execute_batch(
    sut: &dyn SystemUnderTest,
    workload: &Workload,
    cluster: &mut Cluster,
    base: &Rng,
    requests: &[RunRequest<'_>],
) -> (Vec<RunOutcome>, BatchStats) {
    if requests.is_empty() {
        return (Vec::new(), BatchStats::default());
    }
    let start = Instant::now();
    let outcomes: Vec<RunOutcome> = requests
        .iter()
        .map(|req| {
            let machine = cluster.machine_mut(req.machine);
            sut.run(req.config, workload, machine, &mut base.fork(req.stream))
        })
        .collect();
    let stats = BatchStats {
        runs: requests.len(),
        wall_nanos: start.elapsed().as_nanos(),
    };
    let metrics = exec_metrics();
    metrics.batches.inc();
    metrics.runs.add(requests.len() as u64);
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

    /// Every bit of an outcome: its value, crash flag and guest metrics.
    fn bits(o: &RunOutcome) -> Vec<u64> {
        let mut v = vec![o.value.to_bits(), u64::from(o.crashed)];
        v.extend(o.metrics.values().iter().map(|x| x.to_bits()));
        v
    }

    #[test]
    fn batch_equals_its_runs_one_by_one() {
        let pg = Postgres::new();
        let workload = tuna_workloads::tpcc();
        for seed in [1u64, 7, 42] {
            let base = Rng::seed_from(hash_combine(seed, 1));
            let mut sample_rng = Rng::seed_from(hash_combine(seed, 2));
            let configs: Vec<Config> = (0..12)
                .map(|_| pg.space().sample(&mut sample_rng))
                .collect();
            // Three runs per config, spread so machines interleave and
            // most machines run more than once.
            let requests: Vec<RunRequest<'_>> = configs
                .iter()
                .enumerate()
                .flat_map(|(c, cfg)| {
                    (0..3).map(move |k| {
                        let machine = (c + k * 3) % 8;
                        RunRequest {
                            config: cfg,
                            machine,
                            stream: hash_combine(cfg.id().0, machine as u64),
                        }
                    })
                })
                .collect();
            let (outcomes, stats) =
                execute_batch(&pg, &workload, &mut cluster(8, seed), &base, &requests);
            assert_eq!(stats.runs, requests.len());

            let mut oracle = cluster(8, seed);
            assert_eq!(outcomes.len(), requests.len());
            for (req, outcome) in requests.iter().zip(&outcomes) {
                let alone = pg.run(
                    req.config,
                    &workload,
                    oracle.machine_mut(req.machine),
                    &mut base.fork(req.stream),
                );
                assert_eq!(bits(outcome), bits(&alone), "seed={seed}");
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
        let (full, _) = execute_batch(&pg, &workload, &mut cluster(4, 21), &base, &requests);
        for (req, expected) in requests.iter().zip(&full) {
            let (alone, stats) = execute_batch(
                &pg,
                &workload,
                &mut cluster(4, 21),
                &base,
                std::slice::from_ref(req),
            );
            assert_eq!(alone.len(), 1);
            assert_eq!(bits(&alone[0]), bits(expected));
            assert_eq!(stats.runs, 1);
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
            execute_batch(&sut, &workload, &mut c, &base, &requests)
        }))
        .expect_err("the SuT panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"sut failed on the chosen machine")
        );
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
        let (outcomes, stats) = execute_batch(&pg, &workload, &mut c, &base, &[]);
        assert!(outcomes.is_empty());
        assert_eq!(stats.wall_nanos, 0);
        assert_eq!(stats.runs, 0);
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
        execute_batch(&pg, &workload, &mut c, &base, &requests);
        assert_eq!(base, before, "fork-only discipline violated");
    }

    #[test]
    fn exec_stats_accumulate_and_speedup_defined() {
        let mut stats = ExecStats::default();
        assert_eq!(stats.speedup(), 1.0);
        stats.absorb(&BatchStats {
            runs: 3,
            wall_nanos: 50,
        });
        stats.absorb(&BatchStats {
            runs: 1,
            wall_nanos: 25,
        });
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.wall_nanos, 75);
        assert_eq!(stats.busy_nanos, 75);
        assert_eq!(stats.critical_nanos, 75);
        assert_eq!(stats.speedup(), 1.0);
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
