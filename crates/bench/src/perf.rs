//! The perf-gate subsystem: deterministic benchmark scenarios, the
//! machine-readable `BENCH.json` document, and the CI regression gate.
//!
//! # Design
//!
//! Every scenario is a *deterministic* workload under fixed seeds: it
//! folds every result it produces into an order-sensitive FNV-1a
//! [`Checksum`], so a scenario has exactly one legal checksum per
//! algorithm version. The harness re-runs each scenario several times
//! and asserts the checksum never changes — nondeterminism is a bug the
//! gate catches locally, before CI.
//!
//! The gate compares a fresh run against the committed
//! `bench/baseline.json`:
//!
//! - **checksum drift** fails unconditionally — either the algorithm
//!   changed (regenerate the baseline deliberately) or determinism broke;
//! - **slowdown** is judged on *calibration-normalized* throughput: each
//!   document carries a fixed arithmetic calibration scenario, and
//!   scenario throughput is divided by the document's own calibration
//!   throughput before comparing, which cancels most of the difference
//!   between the machine that produced the baseline and the CI runner.
//!   A normalized ratio below `1 - tolerance` (default
//!   [`DEFAULT_TOLERANCE`]) fails the gate.
//!
//! `perfgate` (in `src/bin/`) is the CLI: `run` emits `BENCH.json`,
//! `check` runs the gate, `update-baseline` regenerates the committed
//! baseline.

use std::time::Instant;

use tuna_cloudsim::{Cluster, Machine, Region, VmSku};
use tuna_core::aggregate::AggregationPolicy;
use tuna_core::baselines::run_naive_distributed;
use tuna_core::campaign::{CellRecord, CellRow};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::objective_for;
use tuna_core::outlier::OutlierDetector;
use tuna_core::pipeline::{TunaConfig, TunaPipeline, TuningResult};
use tuna_optimizer::multifidelity::LadderParams;
use tuna_optimizer::random::RandomSearch;
use tuna_optimizer::smac::{SmacOptimizer, SmacParams};
use tuna_optimizer::{Objective, Solver};
use tuna_serve::manager::{Assignment, StudyManager};
use tuna_stats::ar1::Ar1;
use tuna_stats::bootstrap::bootstrap_mean_ci;
use tuna_stats::online::Welford;
use tuna_stats::rng::Rng;
use tuna_stats::summary;
use tuna_sut::SystemUnderTest;
use tuna_workloads::Workload;

/// Name of the calibration scenario used as the cross-machine
/// throughput normalizer.
pub const CALIBRATION: &str = "calibration/splitmix";

/// Default slowdown tolerance of the gate (fraction of normalized
/// throughput; 0.20 fails on >20% slowdown).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// `BENCH.json` format version.
pub const BENCH_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// Order-sensitive FNV-1a/64 digest over the values a scenario produces
/// (shared with the campaign engine; see [`tuna_stats::fnv`]).
pub use tuna_stats::fnv::Checksum;

// ---------------------------------------------------------------------------
// BENCH.json document
// ---------------------------------------------------------------------------

/// One scenario measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (stable identifier).
    pub scenario: String,
    /// Best-of-N wall clock of one scenario run, in nanoseconds.
    pub wall_ns: u64,
    /// Work units one run processes (samples, epochs, rounds...).
    pub items: u64,
    /// `items / wall_seconds`.
    pub throughput: f64,
    /// Deterministic result digest ([`Checksum::hex`]).
    pub checksum: String,
}

/// The `BENCH.json` document: every scenario of one suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Format version ([`BENCH_VERSION`]).
    pub version: u64,
    /// Whether the suite ran in quick mode. Quick and full runs have
    /// different iteration counts and therefore different checksums;
    /// [`compare`] refuses to mix them.
    pub quick: bool,
    /// Scenario measurements, in suite order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchDoc {
    /// Looks up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.scenario == name)
    }

    /// Calibration throughput of this document, if present.
    pub fn calibration_throughput(&self) -> Option<f64> {
        self.get(CALIBRATION).map(|s| s.throughput)
    }

    /// Serializes to the canonical `BENCH.json` layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scenario\": {}, \"wall_ns\": {}, \"items\": {}, \
                 \"throughput\": {:?}, \"checksum\": {}}}{}\n",
                json::quote(&s.scenario),
                s.wall_ns,
                s.items,
                s.throughput,
                json::quote(&s.checksum),
                if i + 1 == self.scenarios.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document previously emitted by [`BenchDoc::to_json`]
    /// (or hand-maintained in the same schema).
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("top level must be an object")?;
        let version = json::field(obj, "version")?
            .as_f64()
            .ok_or("version must be a number")? as u64;
        let quick = match json::field(obj, "quick") {
            Ok(v) => v.as_bool().ok_or("quick must be a boolean")?,
            // Documents written before the field existed were full runs.
            Err(_) => false,
        };
        let list = json::field(obj, "scenarios")?
            .as_arr()
            .ok_or("scenarios must be an array")?;
        let mut scenarios = Vec::with_capacity(list.len());
        for item in list {
            let o = item.as_obj().ok_or("scenario entry must be an object")?;
            scenarios.push(ScenarioResult {
                scenario: json::field(o, "scenario")?
                    .as_str()
                    .ok_or("scenario must be a string")?
                    .to_string(),
                wall_ns: json::field(o, "wall_ns")?
                    .as_f64()
                    .ok_or("wall_ns must be a number")? as u64,
                items: json::field(o, "items")?
                    .as_f64()
                    .ok_or("items must be a number")? as u64,
                throughput: json::field(o, "throughput")?
                    .as_f64()
                    .ok_or("throughput must be a number")?,
                checksum: json::field(o, "checksum")?
                    .as_str()
                    .ok_or("checksum must be a string")?
                    .to_string(),
            });
        }
        Ok(BenchDoc {
            version,
            quick,
            scenarios,
        })
    }
}

// JSON reading/writing lives in the shared `tuna_stats::json` module
// (one hand-rolled writer/parser for the whole offline workspace).
use tuna_stats::json;

// ---------------------------------------------------------------------------
// Scenario harness
// ---------------------------------------------------------------------------

/// A deterministic benchmark scenario.
pub struct ScenarioSpec {
    /// Stable name (`area/workload`).
    pub name: &'static str,
    /// Work units one run processes.
    pub items: u64,
    /// The workload; must fold every result into the checksum.
    pub run: Box<dyn Fn(&mut Checksum)>,
}

/// Runs one scenario: a warmup pass to settle caches and pin the
/// checksum, then at least `timed_rounds` measured passes taking the
/// best wall clock. Short scenarios get extra passes (up to 8, until
/// ~60ms of cumulative measurement) so scheduler noise cannot dominate
/// a single quick pass.
///
/// # Panics
///
/// Panics if two passes disagree on the checksum — scenarios must be
/// deterministic.
pub fn run_scenario(spec: &ScenarioSpec, timed_rounds: u32) -> ScenarioResult {
    const MEASURE_BUDGET_NS: u64 = 60_000_000;
    const MAX_ROUNDS: u32 = 8;

    let mut warm = Checksum::new();
    (spec.run)(&mut warm);
    let expected = warm.hex();

    let mut best_ns = u64::MAX;
    let mut total_ns = 0u64;
    let mut rounds = 0u32;
    loop {
        let mut c = Checksum::new();
        let start = Instant::now();
        (spec.run)(&mut c);
        let elapsed = start.elapsed().as_nanos() as u64;
        assert_eq!(
            c.hex(),
            expected,
            "scenario '{}' is nondeterministic across passes",
            spec.name
        );
        best_ns = best_ns.min(elapsed.max(1));
        total_ns += elapsed;
        rounds += 1;
        if rounds >= timed_rounds.max(1) && (total_ns >= MEASURE_BUDGET_NS || rounds >= MAX_ROUNDS)
        {
            break;
        }
    }
    ScenarioResult {
        scenario: spec.name.to_string(),
        wall_ns: best_ns,
        items: spec.items,
        throughput: spec.items as f64 / (best_ns as f64 / 1e9),
        checksum: expected,
    }
}

/// Runs the whole curated suite.
///
/// `quick` scales every scenario down (~10x) for tests and smoke runs —
/// quick and full runs have different checksums and must not be
/// compared against each other. `handicap > 1` multiplies measured wall
/// time (dividing throughput) on every non-calibration scenario; it
/// exists to demonstrate the gate failing on an injected slowdown
/// without editing code.
pub fn run_suite(quick: bool, handicap: f64) -> BenchDoc {
    assert!(handicap >= 1.0, "handicap must be >= 1");
    let mut scenarios = Vec::new();
    for spec in suite(quick) {
        let mut r = run_scenario(&spec, 3);
        if spec.name != CALIBRATION && handicap > 1.0 {
            r.wall_ns = ((r.wall_ns as f64) * handicap) as u64;
            r.throughput /= handicap;
        }
        scenarios.push(r);
    }
    BenchDoc {
        version: BENCH_VERSION,
        quick,
        scenarios,
    }
}

fn smac_for(sut: &dyn SystemUnderTest, objective: Objective) -> Box<dyn Solver> {
    Box::new(SmacOptimizer::multi_fidelity(
        sut.space().clone(),
        objective,
        SmacParams {
            n_init: 5,
            n_random_candidates: 40,
            ..SmacParams::default()
        },
        LadderParams::paper_default(),
    ))
}

fn checksum_result(c: &mut Checksum, result: &TuningResult) {
    c.push_f64(result.best_value);
    c.push_u64(result.total_samples as u64);
    c.push_u64(result.n_configs as u64);
    c.push_u64(result.n_unstable_configs as u64);
    for rec in &result.trace {
        c.push_f64(rec.reported);
    }
}

/// One full-pipeline tuning run: `rounds` rounds of the TUNA sampling
/// pipeline driving the `solver` it builds, on a 10-worker cluster under
/// `mode`.
fn run_pipeline(
    workload: &Workload,
    rounds: usize,
    seed: u64,
    mode: ExecutionMode,
    solver: fn(&dyn SystemUnderTest, Objective) -> Box<dyn Solver>,
) -> TuningResult {
    let sut = tuna_sut::for_target(workload.target);
    let objective = objective_for(workload);
    let cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), seed);
    let optimizer = solver(sut.as_ref(), objective);
    // Fixed, orientation-appropriate crash penalty: the scenario must be
    // deterministic and cheap, not paper-faithful.
    let crash_penalty = match objective {
        Objective::Maximize => 1.0,
        Objective::Minimize => 10_000.0,
    };
    let mut cfg = TunaConfig::paper_default(crash_penalty);
    cfg.mode = mode;
    let mut pipeline = TunaPipeline::new(cfg, sut.as_ref(), workload, optimizer, cluster);
    let mut rng = Rng::seed_from(seed ^ 0x9E37);
    pipeline.run_rounds(rounds, &mut rng);
    pipeline.finish()
}

/// Drains `mgr`'s fair-share scheduler with synthetic one-row
/// completions, each charging `wall_ns`, and returns the grants in
/// order: scheduling throughput alone, no cell executes.
fn drain_synthetic(mgr: &mut StudyManager, wall_ns: u64) -> Vec<Assignment> {
    let mut grants = Vec::new();
    while let Some(a) = mgr.next_assignment() {
        let rows = vec![CellRow {
            label: "synthetic".to_string(),
            seed: a.cell as u64,
            samples: 1,
            best: Some(a.cell as f64),
            mean: Some(1.0),
            std: Some(0.0),
            min: Some(1.0),
            max: Some(1.0),
            crashes: Some(0),
        }];
        let checksum = CellRecord::compute_checksum(&rows);
        let record = CellRecord {
            cell: a.cell,
            rows,
            checksum,
        };
        mgr.complete_traced(&a.tenant, &a.study, record, wall_ns, None)
            .expect("synthetic completion");
        grants.push(a);
    }
    grants
}

/// The curated deterministic scenario suite.
///
/// Scenario names are contract: renaming one orphans its baseline
/// entry, so treat names as append-only.
pub fn suite(quick: bool) -> Vec<ScenarioSpec> {
    let k = if quick { 1 } else { 10 };
    let mut v: Vec<ScenarioSpec> = Vec::new();

    // -- calibration -------------------------------------------------------
    // Fixed integer mixing; its throughput normalizes every other
    // scenario's when comparing documents from different machines.
    {
        let iters: u64 = 400_000 * k as u64;
        v.push(ScenarioSpec {
            name: CALIBRATION,
            items: iters,
            run: Box::new(move |c| {
                let mut state = 0x2545_F491_4F6C_DD1Du64;
                for _ in 0..iters {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    state ^= z >> 31;
                }
                c.push_u64(state);
            }),
        });
    }

    // Shared 10k AR(1) window generator for the stats micro-kernels —
    // the workload the pipeline actually aggregates (temporally
    // correlated cloud noise around a nominal level).
    fn ar1_window(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from(seed);
        let mut ar = Ar1::new(0.9, 0.1, &mut rng).expect("valid AR(1)");
        (0..n).map(|_| 1.0 + ar.step(&mut rng)).collect()
    }

    // -- stats micro-kernels ----------------------------------------------
    {
        let reps = 20 * k;
        v.push(ScenarioSpec {
            name: "stats/relative_range_cov_10k",
            items: (reps * 10_000) as u64,
            run: Box::new(move |c| {
                let xs = ar1_window(10_000, 101);
                for _ in 0..reps {
                    c.push_f64(summary::relative_range(&xs));
                    c.push_f64(summary::coefficient_of_variation(&xs));
                }
            }),
        });
    }
    {
        let reps = 10 * k;
        v.push(ScenarioSpec {
            name: "stats/select_quantile_10k",
            items: (reps * 10_000) as u64,
            run: Box::new(move |c| {
                let xs = ar1_window(10_000, 102);
                let mut scratch = Vec::new();
                for _ in 0..reps {
                    c.push_f64(summary::quantile_with(&xs, 0.5, &mut scratch));
                    c.push_f64(summary::quantile_with(&xs, 0.95, &mut scratch));
                }
            }),
        });
    }
    {
        let reps = 10 * k;
        v.push(ScenarioSpec {
            name: "stats/select_median_mad_10k",
            items: (reps * 10_000) as u64,
            run: Box::new(move |c| {
                let xs = ar1_window(10_000, 103);
                let mut scratch = Vec::new();
                for _ in 0..reps {
                    c.push_f64(summary::median_with(&xs, &mut scratch));
                    c.push_f64(summary::mad_with(&xs, &mut scratch));
                }
            }),
        });
    }
    {
        // The retained naive oracle on the same window: BENCH.json keeps
        // the naive-vs-streaming delta visible run over run.
        let reps = 10 * k;
        v.push(ScenarioSpec {
            name: "stats/naive_median_mad_10k",
            items: (reps * 10_000) as u64,
            run: Box::new(move |c| {
                let xs = ar1_window(10_000, 103);
                for _ in 0..reps {
                    c.push_f64(summary::naive::median(&xs));
                    c.push_f64(summary::naive::mad(&xs));
                }
            }),
        });
    }
    {
        let reps = 3 * k;
        v.push(ScenarioSpec {
            name: "stats/bootstrap_200x500",
            items: (reps * 500 * 200) as u64,
            run: Box::new(move |c| {
                let xs = ar1_window(200, 105);
                for rep in 0..reps {
                    let ci =
                        bootstrap_mean_ci(&xs, 0.99, 500, &mut Rng::seed_from(900 + rep as u64));
                    c.push_f64(ci.lo);
                    c.push_f64(ci.point);
                    c.push_f64(ci.hi);
                }
            }),
        });
    }
    // -- core aggregation hot path ----------------------------------------
    {
        let windows = 6_000 * k;
        v.push(ScenarioSpec {
            name: "core/outlier_aggregate_windows",
            items: (windows * 10) as u64,
            run: Box::new(move |c| {
                let detector = OutlierDetector::default();
                let mut rng = Rng::seed_from(108);
                let mut window = [0.0f64; 10];
                let mut scratch = Vec::new();
                for _ in 0..windows {
                    for slot in window.iter_mut() {
                        *slot = 1000.0 * (1.0 + 0.08 * rng.next_gaussian());
                    }
                    let stab = detector.classify(&window);
                    let min = AggregationPolicy::WorstCase.aggregate_with(
                        &window,
                        Objective::Maximize,
                        &mut scratch,
                    );
                    let med = AggregationPolicy::Median.aggregate_with(
                        &window,
                        Objective::Maximize,
                        &mut scratch,
                    );
                    c.push_f64(stab.relative_range());
                    c.push_f64(min);
                    c.push_f64(med);
                }
            }),
        });
    }

    // -- cloudsim measurement generation ----------------------------------
    {
        let epochs = 5_000 * k;
        v.push(ScenarioSpec {
            name: "cloudsim/machine_observe",
            items: epochs as u64,
            run: Box::new(move |c| {
                let root = Rng::seed_from(109);
                let mut m = Machine::provision(0, &VmSku::d8s_v5(), &Region::westus2(), &root);
                let demand = tuna_cloudsim::components::ComponentVec::new(0.6, 0.7, 0.4, 0.3, 0.2);
                let mut acc = Welford::new();
                for _ in 0..epochs {
                    let snap = m.observe(&demand);
                    acc.push(snap.speeds.cpu + snap.speeds.disk + snap.speeds.cache);
                }
                c.push_f64(acc.mean());
                c.push_f64(acc.variance());
                c.push_u64(acc.count());
            }),
        });
    }
    {
        let epochs = 2_000 * k;
        v.push(ScenarioSpec {
            name: "metrics/generate",
            items: epochs as u64,
            run: Box::new(move |c| {
                let root = Rng::seed_from(110);
                let mut m = Machine::provision(1, &VmSku::d8s_v5(), &Region::westus2(), &root);
                let demand = tuna_cloudsim::components::ComponentVec::new(0.5, 0.8, 0.4, 0.3, 0.2);
                let mut rng = Rng::seed_from(111);
                let mut acc = Welford::new();
                for _ in 0..epochs {
                    let snap = m.observe(&demand);
                    let metrics = tuna_metrics::generate(&snap, &demand, 1.0, &mut rng);
                    for &x in metrics.values() {
                        acc.push(x);
                    }
                }
                c.push_f64(acc.mean());
                c.push_u64(acc.count());
            }),
        });
    }
    {
        // 2 regions x 2 SKUs x 7 benches x (3 long VMs x 24 weeks x 6
        // sessions + 24 weeks x 20 short VMs) = 25_536 samples — big
        // enough to time stably, small enough to stay under ~10ms.
        let weeks = if quick { 8 } else { 24 };
        let short_per_week = if quick { 10 } else { 20 };
        let items = (2 * 2 * 7 * (3 * weeks * 6 + weeks * short_per_week)) as u64;
        v.push(ScenarioSpec {
            name: "cloudsim/study_quick",
            items,
            run: Box::new(move |c| {
                let cfg = tuna_cloudsim::study::StudyConfig {
                    weeks,
                    short_vms_per_week: short_per_week,
                    long_sessions_per_week: 6,
                    keep_samples: false,
                    ..tuna_cloudsim::study::StudyConfig::scaled_default()
                };
                let report = tuna_cloudsim::study::run_study(&cfg);
                c.push_u64(report.total_samples);
                c.push_u64(report.total_instances);
                for s in &report.series {
                    c.push_f64(s.overall.mean());
                    c.push_u64(s.overall.count());
                }
            }),
        });
    }

    // -- one pipeline run per SuT ------------------------------------------
    // Round counts are tuned so each SuT's scenario runs tens of
    // milliseconds: the redis/nginx models are much cheaper per round
    // than postgres and need more rounds to time stably.
    for (name, workload, rounds) in [
        (
            "pipeline/postgres_tpcc",
            tuna_workloads::tpcc(),
            if quick { 8 } else { 48 },
        ),
        (
            "pipeline/redis_ycsb_c",
            tuna_workloads::ycsb_c(),
            if quick { 8 } else { 80 },
        ),
        (
            "pipeline/nginx_wikipedia",
            tuna_workloads::wikipedia(),
            if quick { 8 } else { 80 },
        ),
    ] {
        v.push(ScenarioSpec {
            name,
            items: rounds as u64,
            run: Box::new(move |c| {
                let result =
                    run_pipeline(&workload, rounds, 0xBEEF, ExecutionMode::Serial, smac_for);
                checksum_result(c, &result);
            }),
        });
    }

    // -- the TUNA step at paper scale ---------------------------------------
    // Paper-budget runs (96 rounds x 10 nodes = 960 budget-1 steps each)
    // with random search, which trains neither a surrogate nor the
    // adjuster: what is timed is the per-step bookkeeping and the
    // simulator. A step whose cost grows with the history shows here as
    // superlinear time, which the 48-80-round scenarios above are too
    // short to show. One run takes a few ms, too short to time on a
    // shared box, so the scenario runs 16 of them on different seeds. The
    // checksum folds every step's `best_so_far`.
    {
        let (steps, runs) = if quick { (96, 1) } else { (960, 16) };
        v.push(ScenarioSpec {
            name: "pipeline/tuna_random_paper",
            items: (steps * runs) as u64,
            run: Box::new(move |c| {
                for seed in (0x7A9E..).take(runs) {
                    let result = run_pipeline(
                        &tuna_workloads::tpcc(),
                        steps,
                        seed,
                        ExecutionMode::Serial,
                        |sut, objective| {
                            Box::new(RandomSearch::new(sut.space().clone(), objective, 1))
                        },
                    );
                    checksum_result(c, &result);
                    for rec in &result.trace {
                        c.push_f64(rec.best_so_far.unwrap_or(f64::NAN));
                    }
                }
            }),
        });
    }

    // -- naive-distributed baseline ----------------------------------------
    {
        let budget = if quick { 40 } else { 800 };
        v.push(ScenarioSpec {
            name: "baselines/naive_distributed",
            items: budget as u64,
            run: Box::new(move |c| {
                let workload = tuna_workloads::tpcc();
                let sut = tuna_sut::for_target(workload.target);
                let objective = objective_for(&workload);
                let optimizer = smac_for(sut.as_ref(), objective);
                let cluster = Cluster::new(10, VmSku::d8s_v5(), Region::westus2(), 0xD157);
                let mut rng = Rng::seed_from(0xD158);
                let result = run_naive_distributed(
                    ExecutionMode::Serial,
                    sut.as_ref(),
                    &workload,
                    optimizer,
                    cluster,
                    budget,
                    1.0,
                    &mut rng,
                );
                checksum_result(c, &result);
            }),
        });
    }

    // -- campaign engine ---------------------------------------------------
    // A small (workload × method) grid through the declarative campaign
    // runner, executed serially and with 4 cell-stealing workers; the two
    // result stores must agree checksum-for-checksum (the campaign's
    // determinism contract), and every cell digest feeds the scenario
    // checksum so grid numerics are gated run over run.
    {
        let rounds = if quick { 2 } else { 6 };
        v.push(ScenarioSpec {
            name: "campaign/grid_small",
            // 2 workloads × 2 arms × 1 run, executed in both modes.
            items: 8,
            run: Box::new(move |c| {
                use tuna_core::campaign::{Campaign, CampaignRunner, ResultStore};
                use tuna_core::experiment::Method;
                let campaign = Campaign::protocol(
                    "perfgate_grid_small",
                    0xCA4A,
                    vec![tuna_workloads::tpcc(), tuna_workloads::ycsb_c()],
                    &[("TUNA", Method::Tuna), ("Default", Method::DefaultConfig)],
                )
                .with_runs(1)
                .with_rounds(rounds);
                let mut serial_store = ResultStore::in_memory(&campaign);
                let serial = CampaignRunner::serial().run(&campaign, &mut serial_store);
                let mut par_store = ResultStore::in_memory(&campaign);
                let parallel = CampaignRunner::with_workers(4).run(&campaign, &mut par_store);
                assert_eq!(
                    serial.checksum, parallel.checksum,
                    "serial and 4-worker campaign runs diverged"
                );
                c.push_str(&serial.checksum);
                for cell in &serial.cells {
                    c.push_u64(cell.cell as u64);
                    c.push_str(&cell.record.checksum);
                }
            }),
        });
    }

    // -- serve daemon ingest ----------------------------------------------
    // The daemon's cheap path: decode submit requests through the full
    // HTTP+JSON wire stack, register the studies, then drain the
    // fair-share scheduler (completions are synthetic — no tuning runs).
    // The checksum pins response statuses, the assignment *order* (the
    // scheduling policy is part of the contract) and every study's
    // declaration digest.
    {
        let requests = 40 * k;
        v.push(ScenarioSpec {
            name: "serve/ingest",
            // Each request declares (1 + r%2 workloads) x 2 arms x
            // (1 + r%3 runs) cells; both requests and scheduled cells
            // are work items.
            items: {
                let cells: usize = (0..requests).map(|r| (1 + r % 2) * 2 * (1 + r % 3)).sum();
                (requests + cells) as u64
            },
            run: Box::new(move |c| {
                use tuna_serve::daemon::handle_bytes;
                use tuna_serve::http;
                use tuna_serve::tenant::TenantRegistry;

                let mut mgr =
                    StudyManager::new(None, TenantRegistry::loopback()).expect("in-memory manager");
                for r in 0..requests {
                    let workloads = if r % 2 == 0 {
                        "\"tpcc\""
                    } else {
                        "\"tpcc\", \"ycsb-c\""
                    };
                    let body = format!(
                        "{{\"name\": \"ingest-{r}\", \"seed\": {r}, \"runs\": {}, \
                         \"rounds\": 4, \"workloads\": [{workloads}], \
                         \"arms\": [{{\"label\": \"TUNA\", \"method\": \"tuna\"}}, \
                         {{\"label\": \"Default\", \"method\": \"default\"}}]}}",
                        1 + r % 3
                    );
                    let raw = http::request_bytes("POST", "/v1/studies", &body);
                    let reply = handle_bytes(&mut mgr, &raw);
                    let (status, _) = http::parse_response(&reply).expect("well-formed reply");
                    c.push_u64(status as u64);
                }
                // Drain the fair-share scheduler with synthetic
                // completions: this times pure scheduling throughput and
                // pins the policy's assignment order.
                for a in drain_synthetic(&mut mgr, 0) {
                    let mut h = Checksum::new();
                    h.push_str(&a.study);
                    h.push_u64(a.cell as u64);
                    c.push_str(&h.hex());
                }
                for study in mgr.studies() {
                    c.push_str(&study.campaign.digest());
                }
            }),
        });
    }

    // -- serve connection engine at scale ----------------------------------
    // Thousands of keep-alive connections interleaved through the same
    // per-connection state machine `tunad` runs, fed in staggered waves
    // so requests queue across scheduler ticks before dispatching. The
    // scenario's items are *connections*, so the gated throughput is
    // connections/sec; the checksum pins every response status in
    // connection order, the fair-share assignment order, and the p99
    // decode-to-dispatch latency (in ticks), which is also hard-bounded
    // here. Deliberately the same size in quick mode: the determinism
    // contract is "≥ 2,000 interleaved connections", not a sample of it.
    {
        const CONNS: usize = 2000;
        const WAVE: usize = 100;
        // Dispatch only every DISPATCH_EVERY waves, so decode-to-dispatch
        // latencies spread deterministically over 1..=DISPATCH_EVERY ticks.
        const DISPATCH_EVERY: usize = 4;
        v.push(ScenarioSpec {
            name: "serve/c10k",
            items: CONNS as u64,
            run: Box::new(move |c| {
                use tuna_serve::engine::{Engine, EngineConfig};
                use tuna_serve::http;
                use tuna_serve::sim::SimServer;
                use tuna_serve::tenant::TenantRegistry;

                let mut sim = SimServer::with_tenants(None, 1, TenantRegistry::loopback())
                    .expect("in-memory sim");
                *sim.engine_mut() = Engine::new(EngineConfig {
                    record_latency: true,
                    ..EngineConfig::sim_default()
                });
                let conns: Vec<usize> = (0..CONNS).map(|_| sim.connect()).collect();

                // Round 1: every connection submits a one-cell study;
                // round 2: every connection re-uses its socket for a
                // status poll. Both rounds arrive in staggered waves.
                for round in 0..2 {
                    for (wave, chunk) in conns.chunks(WAVE).enumerate() {
                        for (i, &conn) in chunk.iter().enumerate() {
                            let id = wave * WAVE + i;
                            let raw = if round == 0 {
                                let body = format!(
                                    "{{\"name\": \"c10k-{id}\", \"seed\": {id}, \
                                     \"runs\": 1, \"rounds\": 2, \"workloads\": [\"tpcc\"], \
                                     \"arms\": [{{\"label\": \"Default\", \
                                     \"method\": \"default\"}}]}}"
                                );
                                http::request_bytes_with("POST", "/v1/studies", &body, true)
                            } else {
                                http::request_bytes_with(
                                    "GET",
                                    &format!("/v1/studies/c10k-{id}"),
                                    "",
                                    true,
                                )
                            };
                            sim.feed(conn, &raw);
                        }
                        sim.tick();
                        if wave % DISPATCH_EVERY == DISPATCH_EVERY - 1 {
                            sim.dispatch();
                        }
                    }
                    sim.dispatch();
                }

                // Statuses in connection order: 201 then 200 per conn.
                for &conn in &conns {
                    let raw = sim.recv(conn);
                    let replies = http::split_responses(&raw).expect("well-formed replies");
                    assert_eq!(replies.len(), 2, "submit + status per connection");
                    for (status, _) in &replies {
                        c.push_u64(u64::from(*status));
                    }
                    assert!(!sim.wants_close(conn), "keep-alive survives both rounds");
                }

                // Decode-to-dispatch p99, gated and pinned.
                let mut latencies = sim.engine_mut().take_latencies();
                assert_eq!(latencies.len(), CONNS * 2);
                latencies.sort_unstable();
                let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
                assert!(p99 <= 2 * DISPATCH_EVERY as u64, "p99 {p99} ticks");
                c.push_u64(p99);

                // Drain the fair-share scheduler synthetically and pin
                // the assignment order (one cell per study).
                let grants = drain_synthetic(sim.manager_mut(), 0);
                for a in &grants {
                    let mut h = Checksum::new();
                    h.push_str(&a.study);
                    h.push_u64(a.cell as u64);
                    c.push_str(&h.hex());
                }
                assert_eq!(grants.len(), CONNS, "one cell per connection's study");
            }),
        });
    }

    // -- serve multi-tenant scheduling --------------------------------------
    // The tenant layer end to end on the sim clock: authenticated wire
    // submissions for a weight-3 and a weight-1 tenant (with an
    // interactive probe in the mix), auth and admission refusals, then a
    // synthetic drain of the weighted fair-share scheduler. The checksum
    // pins every response status, the full (tenant, study, cell) grant
    // order — the weighted policy is part of the determinism contract —
    // and the persisted-format usage meters.
    {
        const STUDIES: usize = 40; // per tenant
        v.push(ScenarioSpec {
            name: "serve/multitenant",
            // Submits per tenant plus every scheduled cell (each study
            // declares 1 workload x 1 arm x (1 + r%3) runs).
            items: {
                let cells: usize = (0..STUDIES).map(|r| 1 + r % 3).sum();
                (2 * (STUDIES + cells)) as u64
            },
            run: Box::new(move |c| {
                use tuna_serve::sim::SimServer;
                use tuna_serve::tenant::TenantRegistry;

                let registry = TenantRegistry::parse(
                    "{\"tenants\": [\
                     {\"name\": \"alice\", \"token\": \"alice-secret\", \"weight\": 3, \
                      \"max_studies\": 40}, \
                     {\"name\": \"bob\", \"token\": \"bob-secret\", \"max_cells\": 200}]}",
                )
                .expect("valid tenant table");
                let mut sim = SimServer::with_tenants(None, 1, registry).expect("in-memory sim");

                // Auth refusals come back structured: 401 without a
                // token, 403 with an unknown one.
                let (status, _) = sim.request("GET", "/v1/studies", "", None);
                c.push_u64(u64::from(status));
                let (status, _) = sim.request("GET", "/v1/studies", "", Some("wrong"));
                c.push_u64(u64::from(status));

                for r in 0..STUDIES {
                    for token in ["alice-secret", "bob-secret"] {
                        // Every 8th study is an interactive probe, so the
                        // lane-preemption order is pinned too.
                        let lane = if r % 8 == 7 {
                            ", \"lane\": \"interactive\""
                        } else {
                            ""
                        };
                        let body = format!(
                            "{{\"name\": \"mt-{r}\", \"seed\": {r}, \"runs\": {}, \
                             \"rounds\": 2{lane}, \"workloads\": [\"tpcc\"], \
                             \"arms\": [{{\"label\": \"Default\", \"method\": \"default\"}}]}}",
                            1 + r % 3
                        );
                        let (status, _) = sim.request("POST", "/v1/studies", &body, Some(token));
                        c.push_u64(u64::from(status));
                    }
                }

                // Admission refusals: alice is at her concurrent-study
                // budget (429 study-budget); a 150-cell submission blows
                // bob's outstanding-cell budget (429 cell-budget).
                let over = "{\"name\": \"mt-over\", \"runs\": 1, \"rounds\": 2, \
                            \"workloads\": [\"tpcc\"], \
                            \"arms\": [{\"label\": \"Default\", \"method\": \"default\"}]}";
                let (status, _) = sim.request("POST", "/v1/studies", over, Some("alice-secret"));
                c.push_u64(u64::from(status));
                let big = over.replace("\"runs\": 1", "\"runs\": 150");
                let (status, _) = sim.request("POST", "/v1/studies", &big, Some("bob-secret"));
                c.push_u64(u64::from(status));

                // Drain the weighted scheduler synthetically, pinning the
                // full (tenant, study, cell) grant order.
                for a in drain_synthetic(sim.manager_mut(), 1000) {
                    let mut h = Checksum::new();
                    h.push_str(&a.tenant);
                    h.push_str(&a.study);
                    h.push_u64(a.cell as u64);
                    c.push_str(&h.hex());
                }

                // Usage meters (the persisted accounting) are part of the
                // pinned surface, via the tenants document.
                let (status, tenants) = sim.request("GET", "/v1/tenants", "", Some("bob-secret"));
                assert_eq!(status, 200, "{tenants}");
                c.push_str(&tenants);
            }),
        });
    }

    // -- serial vs parallel executor ---------------------------------------
    // Runs the same tuning rounds in both modes, asserts bit-identical
    // results (the executor's core contract), and reports the combined
    // wall time.
    {
        let rounds = if quick { 6 } else { 30 };
        v.push(ScenarioSpec {
            name: "executor/serial_vs_parallel4",
            items: (rounds * 2) as u64,
            run: Box::new(move |c| {
                let workload = tuna_workloads::tpcc();
                let serial =
                    run_pipeline(&workload, rounds, 0xE4EC, ExecutionMode::Serial, smac_for);
                let parallel = run_pipeline(
                    &workload,
                    rounds,
                    0xE4EC,
                    ExecutionMode::Parallel { workers: 4 },
                    smac_for,
                );
                assert_eq!(
                    serial, parallel,
                    "serial and 4-worker parallel execution diverged"
                );
                checksum_result(c, &serial);
            }),
        });
    }

    // -- tournament arena ---------------------------------------------------
    // Head-to-head brackets through the arena runner: both sides of every
    // match see one machine snapshot and one noise draw. The checksum pins
    // the bracket outcomes (champion ids per generation on a synthetic
    // objective) and the full arena iteration trace on the simulated SuT,
    // so any drift in bracket pairing, seed-salt derivation, or match
    // noise-sharing fails the gate.
    {
        let samples = if quick { 64 } else { 192 };
        v.push(ScenarioSpec {
            name: "optimizer/arena",
            items: samples as u64,
            run: Box::new(move |c| {
                use tuna_core::baselines::run_arena;
                use tuna_optimizer::solver::{SolverId, SolverParams};
                use tuna_optimizer::tournament::{TournamentParams, TournamentSolver};
                use tuna_optimizer::Solver as _;
                use tuna_sut::postgres::Postgres;
                use tuna_sut::SystemUnderTest;

                // Pure brackets: drive a tournament on a deterministic
                // objective and pin every generation's champion.
                let pg = Postgres::new();
                let mut t = TournamentSolver::new(
                    pg.space().clone(),
                    Objective::Minimize,
                    TournamentParams::default(),
                );
                let mut rng = Rng::seed_from(0xA7E0);
                for _ in 0..samples {
                    let s = t.ask(&mut rng);
                    let cost = s.config.id().0 as f64 / u64::MAX as f64;
                    t.tell(&s.config, cost, s.budget);
                    if let Some(champ) = t.champion() {
                        c.push_u64(champ.id().0);
                    }
                }
                c.push_u64(t.generations_played());

                // Arena matches on the simulated SuT: shared-noise
                // head-to-head runs through the registry-built solver.
                let workload = tuna_workloads::tpcc();
                let id = SolverId::tournament();
                let solver = id.build(
                    pg.space().clone(),
                    Objective::Maximize,
                    &SolverParams::default(),
                );
                let cluster = Cluster::new(1, VmSku::d8s_v5(), Region::westus2(), 0xA7E1);
                let mut rng = Rng::seed_from(0xA7E2);
                let result = run_arena(
                    &pg,
                    &workload,
                    solver,
                    cluster,
                    samples,
                    id.capabilities().match_size,
                    0.0,
                    &mut rng,
                );
                checksum_result(c, &result);
            }),
        });
    }

    // -- observability overhead ---------------------------------------------
    // The observer-effect gate: the same deterministic serve workload
    // (keep-alive submits + status polls through the sim engine) runs
    // with instrumentation off (control) and on, interleaved best-of-3.
    // The run *panics* if any response byte differs between the two, or
    // if the instrumented pass costs more than 3% over the control
    // (with a small absolute floor so a micro-fast control cannot fail
    // the gate on scheduler jitter alone). The checksum pins the
    // response bytes, so telemetry drift that touches the wire also
    // fails as checksum drift.
    {
        const CONNS: usize = 500;
        v.push(ScenarioSpec {
            name: "obs/overhead",
            items: CONNS as u64,
            run: Box::new(move |c| {
                use tuna_serve::engine::{Engine, EngineConfig};
                use tuna_serve::http;
                use tuna_serve::sim::SimServer;
                use tuna_serve::tenant::TenantRegistry;

                let pass = |instrument: bool| -> (Vec<u8>, u64) {
                    let start = Instant::now();
                    let mut sim = SimServer::with_tenants(None, 1, TenantRegistry::loopback())
                        .expect("in-memory sim");
                    *sim.engine_mut() = Engine::new(EngineConfig {
                        instrument,
                        ..EngineConfig::sim_default()
                    });
                    let conns: Vec<usize> = (0..CONNS).map(|_| sim.connect()).collect();
                    for round in 0..2 {
                        for (id, &conn) in conns.iter().enumerate() {
                            let raw = if round == 0 {
                                let body = format!(
                                    "{{\"name\": \"obs-{id}\", \"seed\": {id}, \
                                     \"runs\": 1, \"rounds\": 2, \"workloads\": [\"tpcc\"], \
                                     \"arms\": [{{\"label\": \"Default\", \
                                     \"method\": \"default\"}}]}}"
                                );
                                http::request_bytes_with("POST", "/v1/studies", &body, true)
                            } else {
                                http::request_bytes_with(
                                    "GET",
                                    &format!("/v1/studies/obs-{id}"),
                                    "",
                                    true,
                                )
                            };
                            sim.feed(conn, &raw);
                        }
                        sim.tick();
                        sim.dispatch();
                    }
                    let mut out = Vec::new();
                    for &conn in &conns {
                        out.extend(sim.recv(conn));
                    }
                    let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    (out, wall)
                };

                // Interleave control/instrumented so both see the same
                // cache and frequency state; keep the best of each.
                let mut wire: Option<Vec<u8>> = None;
                let (mut control_ns, mut instrumented_ns) = (u64::MAX, u64::MAX);
                for _ in 0..3 {
                    let (control_out, t_off) = pass(false);
                    let (instrumented_out, t_on) = pass(true);
                    assert_eq!(
                        control_out, instrumented_out,
                        "instrumentation changed a response byte"
                    );
                    match &wire {
                        Some(w) => assert_eq!(w, &control_out, "pass-to-pass drift"),
                        None => wire = Some(control_out),
                    }
                    control_ns = control_ns.min(t_off);
                    instrumented_ns = instrumented_ns.min(t_on);
                }
                let limit = (control_ns + control_ns * 3 / 100).max(control_ns + 2_000_000);
                assert!(
                    instrumented_ns <= limit,
                    "instrumentation overhead above 3%: {instrumented_ns}ns vs {control_ns}ns control"
                );
                c.push_bytes(&wire.expect("three passes ran"));
            }),
        });
    }

    // -- random-forest fits -------------------------------------------------
    // The two forests a TUNA run refits on every new observation, at the
    // sizes a paper-default mssales run reaches, each grown on the calling
    // thread. The inputs are built once, outside the timed closure; the
    // checksums pin prediction bits.
    //
    // SMAC's surrogate: a ~300-config history over the mssales knobs, 48
    // trees, then an EI-sized candidate pool predicted.
    {
        use tuna_ml::forest::{ForestParams, RandomForest};
        use tuna_ml::Regressor;

        let rows = if quick { 60 } else { 300 };
        let space = tuna_sut::for_target(tuna_workloads::mssales().target)
            .space()
            .clone();
        let mut rng = Rng::seed_from(0xF0_4E57);
        let encode = |rng: &mut Rng| space.encode(&space.sample(rng));
        let x: Vec<Vec<f64>> = (0..rows).map(|_| encode(&mut rng)).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|row| {
                let shape: f64 = row
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v - 0.1 * (i % 7) as f64).powi(2))
                    .sum();
                100.0 + 10.0 * shape + rng.next_gaussian()
            })
            .collect();
        let candidates: Vec<Vec<f64>> = (0..140).map(|_| encode(&mut rng)).collect();
        v.push(ScenarioSpec {
            name: "ml/forest_fit_smac",
            items: rows as u64,
            run: Box::new(move |c| {
                let mut forest = RandomForest::new(ForestParams::default());
                forest
                    .fit(&x, &y, &mut Rng::seed_from(0xF0_4E58))
                    .expect("well-formed history");
                for row in &candidates {
                    let (mean, var) = forest.predict_stats(row);
                    c.push_f64(mean);
                    c.push_f64(var);
                }
            }),
        });
    }
    // SMAC's surrogate on the history a real run builds. Uniform samples
    // (above) give each column ~300 distinct values; a tuned history
    // repeats incumbent values through its neighbourhood search, so its
    // columns are tie-heavy, which is what the per-node sorts see in a
    // TUNA run. Paper-default multi-fidelity SMAC tunes mssales on one
    // simulated VM until its history holds ~300 configs (untimed), then
    // one 48-tree fit is timed and its predictions on every training row
    // checksummed.
    {
        use tuna_ml::forest::{ForestParams, RandomForest};
        use tuna_ml::Regressor;

        let configs = if quick { 60 } else { 300 };
        let workload = tuna_workloads::mssales();
        let sut = tuna_sut::for_target(workload.target);
        let mut solver = SmacOptimizer::multi_fidelity(
            sut.space().clone(),
            objective_for(&workload),
            SmacParams {
                n_init: 10,
                n_random_candidates: 100,
                ..SmacParams::default()
            },
            LadderParams::paper_default(),
        );
        let root = Rng::seed_from(0x5AC_4157);
        let mut machine = Machine::provision(0, &VmSku::d8s_v5(), &Region::westus2(), &root);
        let mut rng = Rng::seed_from(0x5AC_4158);
        while solver.history().n_configs() < configs {
            let s = solver.ask(&mut rng);
            let outcome = sut.run(&s.config, &workload, &mut machine, &mut rng);
            solver.tell(&s.config, outcome.value, s.budget);
        }
        let (x, y) = solver.history().surrogate_data(sut.space());
        v.push(ScenarioSpec {
            name: "ml/forest_fit_smac_history",
            items: x.len() as u64,
            run: Box::new(move |c| {
                let mut forest = RandomForest::new(ForestParams::default());
                forest
                    .fit(&x, &y, &mut Rng::seed_from(0x5AC_4159))
                    .expect("well-formed history");
                for row in &x {
                    let (mean, var) = forest.predict_stats(row);
                    c.push_f64(mean);
                    c.push_f64(var);
                }
            }),
        });
    }
    // The noise adjuster's `Standardize ∘ forest`: ~600 samples of 30
    // guest metrics plus a 10-wide one-hot machine id, 32 trees, then
    // every training row predicted back (the adjust pass).
    {
        use tuna_core::adjuster::AdjusterConfig;
        use tuna_ml::forest::RandomForest;
        use tuna_ml::pipeline::StandardizedRegressor;
        use tuna_ml::Regressor;

        let (machines, epochs) = (10usize, if quick { 12 } else { 60 });
        let root = Rng::seed_from(0xAD_F17);
        let mut rng = Rng::seed_from(0xAD_F18);
        let demand = tuna_cloudsim::components::ComponentVec::new(0.6, 0.7, 0.4, 0.3, 0.2);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for machine in 0..machines {
            let mut m =
                Machine::provision(machine as u64, &VmSku::d8s_v5(), &Region::westus2(), &root);
            for _ in 0..epochs {
                let snap = m.observe(&demand);
                let metrics = tuna_metrics::generate(&snap, &demand, 1.0, &mut rng);
                let mut row = metrics.values().to_vec();
                row.extend((0..machines).map(|i| if i == machine { 1.0 } else { 0.0 }));
                x.push(row);
                y.push(snap.speeds.cpu - 1.0 + 0.01 * rng.next_gaussian());
            }
        }
        v.push(ScenarioSpec {
            name: "ml/forest_fit_adjuster",
            items: x.len() as u64,
            run: Box::new(move |c| {
                let params = AdjusterConfig::paper_default(machines).forest;
                let mut model = StandardizedRegressor::new(RandomForest::new(params));
                model
                    .fit(&x, &y, &mut Rng::seed_from(0xAD_F19))
                    .expect("well-formed samples");
                for row in &x {
                    c.push_f64(model.predict(row));
                }
            }),
        });
    }

    v
}

// ---------------------------------------------------------------------------
// The regression gate
// ---------------------------------------------------------------------------

/// Per-scenario gate verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance, checksum matches.
    Ok,
    /// Normalized throughput fell below `1 - tolerance`.
    Slow,
    /// Checksums differ — algorithm change or lost determinism.
    ChecksumDrift,
    /// Scenario exists in the baseline but not in the current run.
    Missing,
    /// Scenario exists only in the current run (baseline needs
    /// regenerating); informational, does not fail the gate.
    New,
    /// The calibration scenario itself; informational.
    Calibration,
}

impl GateStatus {
    /// Whether this verdict fails the gate.
    pub fn fails(&self) -> bool {
        matches!(
            self,
            GateStatus::Slow | GateStatus::ChecksumDrift | GateStatus::Missing
        )
    }

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            GateStatus::Ok => "ok",
            GateStatus::Slow => "SLOW",
            GateStatus::ChecksumDrift => "CHECKSUM DRIFT",
            GateStatus::Missing => "MISSING",
            GateStatus::New => "new",
            GateStatus::Calibration => "calibration",
        }
    }
}

/// One row of the gate's delta table.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Scenario name.
    pub scenario: String,
    /// Baseline raw throughput (items/s), if present.
    pub baseline_throughput: Option<f64>,
    /// Current raw throughput (items/s), if present.
    pub current_throughput: Option<f64>,
    /// Calibration-normalized throughput ratio (current / baseline);
    /// `> 1` is faster, `< 1` slower.
    pub normalized_ratio: Option<f64>,
    /// Verdict.
    pub status: GateStatus,
}

/// Gate outcome: the per-scenario delta table and the overall verdict.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Per-scenario rows, baseline order then new scenarios.
    pub rows: Vec<DeltaRow>,
    /// Slowdown tolerance the comparison used.
    pub tolerance: f64,
    /// Whether the gate passes.
    pub pass: bool,
}

/// Compares a current run against the committed baseline.
///
/// Fails on any checksum drift, any missing scenario, or any scenario
/// whose calibration-normalized throughput dropped more than
/// `tolerance`.
///
/// # Errors
///
/// Returns an error when either document lacks the calibration
/// scenario, the documents mix quick and full mode (their iteration
/// counts and checksums are incompatible), or a document declares an
/// unknown format version.
pub fn compare(base: &BenchDoc, cur: &BenchDoc, tolerance: f64) -> Result<GateOutcome, String> {
    if base.version != BENCH_VERSION || cur.version != BENCH_VERSION {
        return Err(format!(
            "version mismatch: baseline v{}, current v{}, gate speaks v{BENCH_VERSION}",
            base.version, cur.version
        ));
    }
    if base.quick != cur.quick {
        let mode = |q: bool| if q { "quick" } else { "full" };
        return Err(format!(
            "mode mismatch: baseline is a {} run, current is a {} run — quick and \
             full suites have different checksums and must not be compared",
            mode(base.quick),
            mode(cur.quick)
        ));
    }
    let base_calib = base
        .calibration_throughput()
        .ok_or("baseline lacks the calibration scenario")?;
    let cur_calib = cur
        .calibration_throughput()
        .ok_or("current run lacks the calibration scenario")?;

    let mut rows = Vec::new();
    let mut pass = true;
    for b in &base.scenarios {
        let row = if b.scenario == CALIBRATION {
            // The calibration scenario is exempt from the slowdown
            // check (it *defines* the normalizer) but not from the
            // checksum check: a drifted calibration workload would
            // silently skew every normalized ratio.
            let cur_calib_scenario = cur.get(CALIBRATION);
            let status = match cur_calib_scenario {
                Some(c) if c.checksum != b.checksum => GateStatus::ChecksumDrift,
                _ => GateStatus::Calibration,
            };
            DeltaRow {
                scenario: b.scenario.clone(),
                baseline_throughput: Some(b.throughput),
                current_throughput: cur_calib_scenario.map(|s| s.throughput),
                normalized_ratio: None,
                status,
            }
        } else {
            match cur.get(&b.scenario) {
                None => DeltaRow {
                    scenario: b.scenario.clone(),
                    baseline_throughput: Some(b.throughput),
                    current_throughput: None,
                    normalized_ratio: None,
                    status: GateStatus::Missing,
                },
                Some(c) => {
                    let ratio = (c.throughput / cur_calib) / (b.throughput / base_calib);
                    let status = if c.checksum != b.checksum {
                        GateStatus::ChecksumDrift
                    } else if ratio < 1.0 - tolerance {
                        GateStatus::Slow
                    } else {
                        GateStatus::Ok
                    };
                    DeltaRow {
                        scenario: b.scenario.clone(),
                        baseline_throughput: Some(b.throughput),
                        current_throughput: Some(c.throughput),
                        normalized_ratio: Some(ratio),
                        status,
                    }
                }
            }
        };
        pass &= !row.status.fails();
        rows.push(row);
    }
    for c in &cur.scenarios {
        if base.get(&c.scenario).is_none() {
            rows.push(DeltaRow {
                scenario: c.scenario.clone(),
                baseline_throughput: None,
                current_throughput: Some(c.throughput),
                normalized_ratio: None,
                status: GateStatus::New,
            });
        }
    }
    Ok(GateOutcome {
        rows,
        tolerance,
        pass,
    })
}

fn fmt_throughput(t: Option<f64>) -> String {
    match t {
        None => "—".to_string(),
        Some(t) if t >= 1e6 => format!("{:.2}M/s", t / 1e6),
        Some(t) if t >= 1e3 => format!("{:.1}k/s", t / 1e3),
        Some(t) => format!("{t:.1}/s"),
    }
}

/// Renders the gate outcome as a GitHub-flavored markdown table (the
/// CI job appends this to the step summary).
pub fn markdown_table(outcome: &GateOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### Perf gate: {} (tolerance {:.0}% on calibration-normalized throughput)\n\n",
        if outcome.pass { "PASS" } else { "FAIL" },
        outcome.tolerance * 100.0
    ));
    out.push_str("| scenario | baseline | current | normalized Δ | status |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for row in &outcome.rows {
        let delta = match row.normalized_ratio {
            None => "—".to_string(),
            Some(r) => format!("{:+.1}%", (r - 1.0) * 100.0),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            row.scenario,
            fmt_throughput(row.baseline_throughput),
            fmt_throughput(row.current_throughput),
            delta,
            row.status.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &[(&str, f64, &str)]) -> BenchDoc {
        BenchDoc {
            version: BENCH_VERSION,
            quick: false,
            scenarios: entries
                .iter()
                .map(|(name, thr, sum)| ScenarioResult {
                    scenario: name.to_string(),
                    wall_ns: 1_000_000,
                    items: 1_000,
                    throughput: *thr,
                    checksum: sum.to_string(),
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let d = doc(&[
            (CALIBRATION, 1234.5, "aa"),
            ("stats/x", 99.25, "bb"),
            ("pipeline/y", 1.5e9, "cc"),
        ]);
        let parsed = BenchDoc::parse(&d.to_json()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchDoc::parse("not json").is_err());
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("{\"version\": 1}").is_err());
        // A document cut off mid-string (multibyte char at the very
        // end) must error, not panic.
        assert!(BenchDoc::parse("{\"version\": 1, \"x\": \"\u{00c3}").is_err());
        assert!(json::parse("\"\u{00e9}\"").is_ok());
    }

    #[test]
    fn identical_docs_pass() {
        let d = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 50.0, "bb")]);
        let out = compare(&d, &d, DEFAULT_TOLERANCE).unwrap();
        assert!(out.pass);
        assert!(out.rows.iter().all(|r| !r.status.fails()), "{:?}", out.rows);
    }

    #[test]
    fn injected_25pct_slowdown_fails_gate() {
        let base = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 100.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 75.0, "bb")]);
        let out = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!out.pass);
        assert_eq!(out.rows[1].status, GateStatus::Slow);
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 100.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 85.0, "bb")]);
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).unwrap().pass);
    }

    #[test]
    fn calibration_normalization_cancels_machine_speed() {
        // Same code on a machine 3x slower across the board: every raw
        // throughput drops 3x, including calibration — gate passes.
        let base = doc(&[(CALIBRATION, 300.0, "aa"), ("s/a", 90.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 30.0, "bb")]);
        let out = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(out.pass);
        let r = out.rows[1].normalized_ratio.unwrap();
        assert!((r - 1.0).abs() < 1e-12, "ratio {r}");
    }

    #[test]
    fn checksum_drift_fails_even_when_faster() {
        let base = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 50.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 500.0, "DRIFTED")]);
        let out = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!out.pass);
        assert_eq!(out.rows[1].status, GateStatus::ChecksumDrift);
    }

    #[test]
    fn missing_scenario_fails_and_new_scenario_informs() {
        let base = doc(&[(CALIBRATION, 100.0, "aa"), ("s/gone", 50.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "aa"), ("s/fresh", 50.0, "cc")]);
        let out = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!out.pass);
        assert_eq!(out.rows[1].status, GateStatus::Missing);
        let fresh = out.rows.iter().find(|r| r.scenario == "s/fresh").unwrap();
        assert_eq!(fresh.status, GateStatus::New);
        assert!(!fresh.status.fails());
    }

    #[test]
    fn calibration_checksum_drift_fails_gate() {
        // A changed calibration workload would silently skew every
        // normalized ratio, so its checksum is still gated even though
        // its throughput is not.
        let base = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 50.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "DRIFTED"), ("s/a", 50.0, "bb")]);
        let out = compare(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(!out.pass);
        assert_eq!(out.rows[0].status, GateStatus::ChecksumDrift);
    }

    #[test]
    fn quick_vs_full_comparison_is_an_error() {
        let base = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 50.0, "bb")]);
        let mut quick = base.clone();
        quick.quick = true;
        let err = compare(&base, &quick, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("mode mismatch"), "{err}");
        assert!(compare(&quick, &base, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn quick_flag_roundtrips_through_json() {
        let mut d = doc(&[(CALIBRATION, 100.0, "aa")]);
        d.quick = true;
        assert_eq!(BenchDoc::parse(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn missing_calibration_is_an_error() {
        let base = doc(&[("s/a", 50.0, "bb")]);
        let cur = doc(&[(CALIBRATION, 100.0, "aa"), ("s/a", 50.0, "bb")]);
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_err());
        assert!(compare(&cur, &base, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn handicap_injection_fails_gate_end_to_end() {
        // A cheap two-scenario "suite": the calibration spec plus one
        // stats kernel, measured honestly for the baseline and with a
        // 1.5x handicap for the current run.
        let specs = || {
            suite(true)
                .into_iter()
                .filter(|s| s.name == CALIBRATION || s.name == "stats/select_median_mad_10k")
                .collect::<Vec<_>>()
        };
        let run = |handicap: f64| {
            let mut scenarios = Vec::new();
            for spec in specs() {
                let mut r = run_scenario(&spec, 1);
                if spec.name != CALIBRATION && handicap > 1.0 {
                    r.wall_ns = ((r.wall_ns as f64) * handicap) as u64;
                    r.throughput /= handicap;
                }
                scenarios.push(r);
            }
            BenchDoc {
                version: BENCH_VERSION,
                quick: true,
                scenarios,
            }
        };
        let base = run(1.0);
        // Same machine moments apart: an honest re-run must not drift
        // checksums (it may legitimately jitter in speed, so only the
        // checksum verdicts are asserted).
        let honest = compare(&base, &run(1.0), DEFAULT_TOLERANCE).unwrap();
        assert!(honest
            .rows
            .iter()
            .all(|r| r.status != GateStatus::ChecksumDrift));
        // A 2.5x handicap is far outside any timing jitter: gate fails.
        let out = compare(&base, &run(2.5), DEFAULT_TOLERANCE).unwrap();
        assert!(!out.pass);
        assert!(out.rows.iter().any(|r| r.status == GateStatus::Slow));
        let table = markdown_table(&out);
        assert!(table.contains("FAIL") && table.contains("SLOW"));
    }

    #[test]
    fn quick_suite_runs_and_is_deterministic() {
        // Stats + core scenarios only (the cheap half) — determinism of
        // the heavier pipeline scenarios is covered by run_scenario's
        // internal checksum assertion when the full suite runs.
        for spec in suite(true)
            .into_iter()
            .filter(|s| s.name.starts_with("stats/") || s.name.starts_with("core/"))
        {
            let a = run_scenario(&spec, 1);
            let b = run_scenario(&spec, 1);
            assert_eq!(a.checksum, b.checksum, "{} drifted", spec.name);
            assert!(a.throughput > 0.0);
            assert!(a.items > 0);
        }
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = Checksum::new();
        a.push_f64(1.0);
        a.push_f64(2.0);
        let mut b = Checksum::new();
        b.push_f64(2.0);
        b.push_f64(1.0);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
