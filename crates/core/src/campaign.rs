//! Declarative study-grid campaigns (the §6 evaluation as data).
//!
//! The paper's evaluation is a grid of (SuT × workload × method × seeds ×
//! cluster shapes); historically every figure binary hand-rolled that loop.
//! A [`Campaign`] instead *declares* the grid — workloads on one axis,
//! [`Arm`]s (method recipes) on another, `runs` independent seeds on the
//! third — and [`CampaignRunner`] expands it into cells and executes them:
//!
//! - **Deterministic cells.** Each cell's randomness is a pure function of
//!   the campaign seed and the cell's coordinates (the per-run seed is
//!   derived by `hash_combine` exactly as the pre-campaign binaries did,
//!   so migrated figures reproduce their historical output bit-for-bit).
//!   No RNG state flows between cells, so execution order cannot matter.
//! - **Work-stealing over cells.** The runner reuses the executor's
//!   [`ExecutionMode`] vocabulary but parallelizes at the *cell* level:
//!   whole cells fan out through [`tuna_stats::pool::map`], the same pool
//!   [`crate::executor`] runs its machine lanes on. Trials inside a
//!   campaign cell always run serially — the scaling axis is the grid
//!   itself, and results are bit-identical for any worker count either
//!   way.
//! - **A checksummed, resumable [`ResultStore`].** Every finished cell is
//!   appended to a CSV journal with an FNV-1a digest over its rows;
//!   [`ResultStore::finalize`] rewrites the file in cell order and emits a
//!   JSON mirror. Re-running a half-finished campaign skips completed
//!   cells and produces byte-identical files to an uninterrupted run.
//!   A cell may also carry its convergence trace
//!   ([`ResultStore::record_traced`], what the serve daemon records): the
//!   trace rides in the same journal, one line ahead of the cell's rows.
//!
//! # Examples
//!
//! ```
//! use tuna_core::campaign::{Arm, Campaign, CampaignRunner, Recipe, ResultStore};
//! use tuna_core::experiment::Method;
//!
//! let campaign = Campaign::protocol(
//!     "demo",
//!     1,
//!     vec![tuna_workloads::tpcc()],
//!     &[("TUNA", Method::Tuna), ("Default", Method::DefaultConfig)],
//! )
//! .with_runs(1)
//! .with_rounds(3);
//! let mut store = ResultStore::in_memory(&campaign);
//! let result = CampaignRunner::serial().run(&campaign, &mut store);
//! assert_eq!(result.cells.len(), 2);
//! assert!(result.complete);
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::aggregate::AggregationPolicy;
use crate::baselines::{run_arena, run_naive_distributed};
use crate::deploy::{default_worst_case_with, evaluate_deployment_with};
use crate::executor::ExecutionMode;
use crate::experiment::{Experiment, Method, RunSummary, SolverId};
use crate::pipeline::{TunaConfig, TunaPipeline, TuningResult};
use crate::report::{summarize_method, MethodSummary};
use tuna_cloudsim::{Cluster, Region, VmSku};
use tuna_obs::CellTrace;
use tuna_optimizer::multifidelity::LadderParams;
use tuna_stats::fnv::Checksum;
use tuna_stats::rng::{hash_combine, Rng};
use tuna_workloads::Workload;

/// Store format version (first CSV header line and JSON `version`).
pub const STORE_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Campaign declaration
// ---------------------------------------------------------------------------

/// A tuning-cluster shape override for pinned recipes: size plus the
/// budget ladder that fits it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterShape {
    /// Worker-cluster size.
    pub size: usize,
    /// Budget ladder whose max rung fits the cluster.
    pub ladder: LadderParams,
}

/// A pinned TUNA pipeline run on an explicit sample budget (the §6.5
/// equal-cost basis and the ablation studies). The seed labels are part
/// of the declaration so that studies migrated from pre-campaign binaries
/// keep their historical derivations — and therefore their exact numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBudgetSpec {
    /// Total sample budget (`run_until_samples`).
    pub samples: usize,
    /// Per-run seed label: `hash_combine(campaign.seed, seed_salt + run)`.
    pub seed_salt: u64,
    /// Pipeline RNG label: `Rng::seed_from(hash_combine(seed, rng_label))`.
    pub rng_label: u64,
    /// Deployment derivation label.
    pub deploy_label: u64,
    /// Aggregation-policy override (§4.4 ablation).
    pub aggregation: Option<AggregationPolicy>,
    /// Outlier-threshold override (§4.2 ablation).
    pub outlier_threshold: Option<f64>,
    /// Cluster-shape override (§5.1 ablation).
    pub cluster: Option<ClusterShape>,
}

impl SampleBudgetSpec {
    /// A plain equal-cost TUNA run with no config overrides.
    pub fn new(samples: usize, seed_salt: u64, rng_label: u64, deploy_label: u64) -> Self {
        SampleBudgetSpec {
            samples,
            seed_salt,
            rng_label,
            deploy_label,
            aggregation: None,
            outlier_threshold: None,
            cluster: None,
        }
    }
}

/// A TUNA-vs-naive-distributed convergence pair (§6.5.2): both arms of
/// one run share a single RNG stream (the pipeline consumes it first,
/// naive distributed continues it), as the historical Figure 17 driver
/// did, so the pair is one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceSpec {
    /// Sample budget granted to each arm.
    pub samples: usize,
    /// Per-run seed label: `hash_combine(campaign.seed, seed_salt + run)`.
    pub seed_salt: u64,
    /// Shared RNG label.
    pub rng_label: u64,
}

/// A head-to-head arena cell: one (noise regime × solver) point of an
/// arena grid. Registry solvers tune through [`run_arena`], which hands
/// every member of a match group the *same* machine snapshot and noise
/// draw ([`tuna_optimizer::solver::Capabilities::match_size`] sets the
/// group width — 2 for the tournament solver's matches). The sentinel
/// solver name [`ArenaSpec::TUNA`] runs the full TUNA pipeline instead,
/// so the grid can compare TUNA's noise-filtering against match-based
/// noise cancellation under each regime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaSpec {
    /// Solver registry name, or [`ArenaSpec::TUNA`] for the pipeline.
    pub solver: String,
    /// Noise regime: a built-in [`Region`] name overriding the
    /// experiment's region.
    pub region: String,
    /// Total sample budget.
    pub samples: usize,
}

impl ArenaSpec {
    /// Sentinel solver name selecting the full TUNA pipeline.
    pub const TUNA: &'static str = "tuna";

    /// Creates a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if `solver` is neither [`ArenaSpec::TUNA`] nor a registry
    /// name, or `region` is not a built-in region.
    pub fn new(solver: &str, region: &str, samples: usize) -> Self {
        if solver != Self::TUNA {
            SolverId::new(solver).unwrap_or_else(|e| panic!("arena arm: {e}"));
        }
        assert!(
            Region::by_name(region).is_some(),
            "arena arm: unknown region {region:?}"
        );
        ArenaSpec {
            solver: solver.to_string(),
            region: region.to_string(),
            samples,
        }
    }

    /// The per-arm seed salt: FNV-1a over (region, solver), so arena
    /// arms can never collide with each other or with hand-salted
    /// protocol arms no matter which grid they appear in.
    fn seed_salt(&self) -> u64 {
        let mut c = Checksum::new();
        c.push_str(&self.region);
        c.push_str(&self.solver);
        c.value()
    }
}

/// How one arm of the grid evaluates a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Recipe {
    /// The full §6 protocol via [`Experiment::run`]: tune with `method`,
    /// deploy the winner on fresh VMs. The per-run seed is
    /// `hash_combine(campaign.seed, run)`, or
    /// `hash_combine(hash_combine(campaign.seed, salt), run)` when a salt
    /// is pinned.
    Protocol {
        /// Sampling methodology.
        method: Method,
        /// Optional extra seed label (pre-campaign binaries salted
        /// per-arm seeds when mixing protocol and pinned arms).
        seed_salt: Option<u64>,
    },
    /// A pinned sample-budget TUNA pipeline plus deployment.
    SampleBudget(SampleBudgetSpec),
    /// A TUNA + naive-distributed convergence pair.
    Convergence(ConvergenceSpec),
    /// A head-to-head arena run (noise regime × solver).
    Arena(ArenaSpec),
}

impl Recipe {
    /// The §6 protocol with the default seed derivation.
    pub fn protocol(method: Method) -> Self {
        Recipe::Protocol {
            method,
            seed_salt: None,
        }
    }

    fn tag(&self) -> u64 {
        match self {
            Recipe::Protocol { .. } => 1,
            Recipe::SampleBudget(_) => 2,
            Recipe::Convergence(_) => 3,
            Recipe::Arena(_) => 4,
        }
    }
}

/// One arm of the grid: a display label plus the recipe that runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Display label (also the CSV `arm` column; must not contain commas
    /// or newlines).
    pub label: String,
    /// Cell recipe.
    pub recipe: Recipe,
}

impl Arm {
    /// Creates an arm.
    ///
    /// # Panics
    ///
    /// Panics if the label contains a comma or newline (it is a CSV cell).
    pub fn new(label: impl Into<String>, recipe: Recipe) -> Self {
        let label = label.into();
        assert!(
            !label.contains(',') && !label.contains('\n'),
            "arm label {label:?} must not contain commas or newlines"
        );
        Arm { label, recipe }
    }
}

/// A declarative study grid: workloads × arms × runs.
///
/// A campaign is pure data — the grid it declares expands to
/// `workloads × arms × runs` cells, each a pure function of the
/// campaign (via [`Campaign::digest`]) and the cell's coordinates, so
/// two equal campaigns always produce byte-identical results:
///
/// ```
/// use tuna_core::campaign::Campaign;
/// use tuna_core::experiment::Method;
///
/// let campaign = Campaign::protocol(
///     "demo",
///     7,
///     vec![tuna_workloads::tpcc()],
///     &[("TUNA", Method::Tuna), ("Default", Method::DefaultConfig)],
/// )
/// .with_runs(3);
/// assert_eq!(campaign.n_cells(), 6, "1 workload x 2 arms x 3 runs");
/// assert_eq!(campaign.digest(), campaign.clone().digest());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (store header + JSON; no commas/newlines).
    pub name: String,
    /// Root seed.
    pub seed: u64,
    /// Independent tuning runs (seeds) per (workload, arm).
    pub runs: usize,
    /// Tuning rounds for [`Recipe::Protocol`] arms ([`Experiment::rounds`]).
    pub rounds: usize,
    /// Solver (registry name) driving protocol and sample-budget arms.
    pub optimizer: SolverId,
    /// Workload axis (each workload determines its SuT).
    pub workloads: Vec<Workload>,
    /// Method axis.
    pub arms: Vec<Arm>,
    /// Deployment site: the [`VmSku`] name every cell tunes and deploys
    /// on ([`VmSku::by_name`]). Site names are built-in names, so they
    /// are `'static` and a fleet of campaigns holds no copies of them.
    pub sku: &'static str,
    /// Deployment site: the [`Region`] name ([`Region::by_name`]).
    /// Arena arms override it per arm.
    pub region: &'static str,
}

impl Campaign {
    /// The paper's deployment site, which [`Campaign::protocol`] and
    /// [`Campaign::arena`] declare: `Standard_D8s_v5` in `westus2`.
    pub const PAPER_SITE: (&'static str, &'static str) = ("Standard_D8s_v5", "westus2");

    /// A protocol-only campaign over `(label, method)` arms.
    pub fn protocol(
        name: impl Into<String>,
        seed: u64,
        workloads: Vec<Workload>,
        methods: &[(&str, Method)],
    ) -> Self {
        Campaign {
            name: name.into(),
            seed,
            runs: 1,
            rounds: 96,
            optimizer: SolverId::smac(),
            workloads,
            arms: methods
                .iter()
                .map(|(label, m)| Arm::new(*label, Recipe::protocol(*m)))
                .collect(),
            sku: Self::PAPER_SITE.0,
            region: Self::PAPER_SITE.1,
        }
    }

    /// An arena campaign gridding noise regimes × solvers: every
    /// `(region, solver)` pair becomes one arm labeled
    /// `"{region}/{solver}"`. Solver names are registry names plus the
    /// [`ArenaSpec::TUNA`] sentinel for the full pipeline.
    ///
    /// # Panics
    ///
    /// Panics if a solver or region name is unknown (see
    /// [`ArenaSpec::new`]).
    pub fn arena(
        name: impl Into<String>,
        seed: u64,
        workloads: Vec<Workload>,
        regions: &[&str],
        solvers: &[&str],
        samples: usize,
    ) -> Self {
        let arms = regions
            .iter()
            .flat_map(|region| {
                solvers.iter().map(move |solver| {
                    Arm::new(
                        format!("{region}/{solver}"),
                        Recipe::Arena(ArenaSpec::new(solver, region, samples)),
                    )
                })
            })
            .collect();
        Campaign {
            name: name.into(),
            seed,
            runs: 1,
            rounds: 96,
            optimizer: SolverId::smac(),
            workloads,
            arms,
            sku: Self::PAPER_SITE.0,
            region: Self::PAPER_SITE.1,
        }
    }

    /// Sets the number of runs per cell group.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the protocol arms' tuning rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the solver driving protocol and sample-budget arms.
    pub fn with_optimizer(mut self, optimizer: SolverId) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the deployment site by SKU and region name.
    ///
    /// # Panics
    ///
    /// Panics if `sku` or `region` is not a built-in name.
    pub fn with_site(mut self, sku: &'static str, region: &'static str) -> Self {
        assert!(
            VmSku::by_name(sku).is_some(),
            "campaign: unknown SKU {sku:?}"
        );
        assert!(
            Region::by_name(region).is_some(),
            "campaign: unknown region {region:?}"
        );
        self.sku = sku;
        self.region = region;
        self
    }

    /// Whether the campaign deploys on [`Campaign::PAPER_SITE`]. Only a
    /// different site enters the digest and the JSON mirror, so
    /// campaigns declared before the site was part of the declaration
    /// keep their digests and store bytes.
    fn paper_site(&self) -> bool {
        (self.sku, self.region) == Self::PAPER_SITE
    }

    /// Total number of grid cells.
    pub fn n_cells(&self) -> usize {
        self.workloads.len() * self.arms.len() * self.runs
    }

    /// Maps a cell index to `(workload, arm, run)` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn coords(&self, cell: usize) -> (usize, usize, usize) {
        assert!(cell < self.n_cells(), "cell {cell} out of range");
        let per_workload = self.arms.len() * self.runs;
        (
            cell / per_workload,
            (cell % per_workload) / self.runs,
            cell % self.runs,
        )
    }

    /// How many journal rows [`execute_cell`] produces for `cell`: one
    /// per summary, except convergence cells which store a TUNA/naive
    /// pair. The torn-tail repair in [`ResultStore::open`] uses this to
    /// tell a mid-append kill (fewer rows than the recipe produces —
    /// repairable) from corruption (full row count, bad checksum —
    /// refused).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn rows_per_cell(&self, cell: usize) -> usize {
        let (_, arm, _) = self.coords(cell);
        match self.arms[arm].recipe {
            Recipe::Convergence(_) => 2,
            Recipe::Protocol { .. } | Recipe::SampleBudget(_) | Recipe::Arena(_) => 1,
        }
    }

    /// Digest over the campaign declaration. Stored in the CSV header and
    /// JSON document; a resume against a store written by a *different*
    /// declaration is refused instead of silently mixing grids.
    pub fn digest(&self) -> String {
        let mut c = Checksum::new();
        c.push_str(&self.name);
        c.push_u64(self.seed);
        c.push_u64(self.runs as u64);
        c.push_u64(self.rounds as u64);
        // Store-format v1 pinned 1/2 for the original smac/gp enum;
        // solvers registered since fold their FNV-1a name hash, which
        // cannot collide with the small hand-numbered range.
        c.push_u64(match self.optimizer.as_str() {
            "smac" => 1,
            "gp" => 2,
            _ => self.optimizer.name_hash(),
        });
        for w in &self.workloads {
            c.push_str(w.name);
        }
        for arm in &self.arms {
            c.push_str(&arm.label);
            c.push_u64(arm.recipe.tag());
            match &arm.recipe {
                Recipe::Protocol { method, seed_salt } => {
                    c.push_str(method.name());
                    if let Method::TraditionalExtended { samples }
                    | Method::NaiveDistributed { samples } = method
                    {
                        c.push_u64(*samples as u64);
                    }
                    c.push_u64(seed_salt.map_or(u64::MAX, |s| s));
                }
                Recipe::SampleBudget(s) => {
                    c.push_u64(s.samples as u64);
                    c.push_u64(s.seed_salt);
                    c.push_u64(s.rng_label);
                    c.push_u64(s.deploy_label);
                    c.push_u64(s.aggregation.map_or(0, |a| 1 + a as u64));
                    c.push_f64(s.outlier_threshold.unwrap_or(f64::NEG_INFINITY));
                    c.push_u64(s.cluster.is_some() as u64);
                    if let Some(shape) = &s.cluster {
                        c.push_u64(shape.size as u64);
                        c.push_u64(shape.ladder.eta as u64);
                        c.push_u64(shape.ladder.min_rung_size as u64);
                        c.push_u64(shape.ladder.budgets.len() as u64);
                        for &b in &shape.ladder.budgets {
                            c.push_u64(b as u64);
                        }
                    }
                }
                Recipe::Convergence(s) => {
                    c.push_u64(s.samples as u64);
                    c.push_u64(s.seed_salt);
                    c.push_u64(s.rng_label);
                }
                Recipe::Arena(s) => {
                    c.push_str(&s.solver);
                    c.push_str(&s.region);
                    c.push_u64(s.samples as u64);
                }
            }
        }
        if !self.paper_site() {
            c.push_str(self.sku);
            c.push_str(self.region);
        }
        c.hex()
    }

    /// The experiment template for one workload (protocol defaults with
    /// this campaign's site, rounds and optimizer; trial execution pinned
    /// to `exec`). Figures read protocol constants (deployment VM
    /// counts, metric orientation) off this template.
    ///
    /// # Panics
    ///
    /// Panics if the site names are not built in (see
    /// [`Campaign::with_site`]).
    pub fn experiment(&self, workload: usize, exec: ExecutionMode) -> Experiment {
        let mut exp = Experiment::paper_default(self.workloads[workload].clone());
        exp.sku = VmSku::by_name(self.sku)
            .unwrap_or_else(|| panic!("campaign: unknown SKU {:?}", self.sku));
        exp.region = Region::by_name(self.region)
            .unwrap_or_else(|| panic!("campaign: unknown region {:?}", self.region));
        exp.rounds = self.rounds;
        exp.optimizer = self.optimizer.clone();
        exp.exec = exec;
        exp
    }
}

// ---------------------------------------------------------------------------
// Cell results and rows
// ---------------------------------------------------------------------------

/// One scalar result row of a cell. Protocol and sample-budget cells
/// produce exactly one row; convergence cells produce one per trace arm.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Row label (the arm label, or the trace arm for pairs).
    pub label: String,
    /// The derived per-run seed the cell actually used.
    pub seed: u64,
    /// Samples the tuning phase consumed (0 for the default config).
    pub samples: u64,
    /// Best reported tuning value (absent for the default config).
    pub best: Option<f64>,
    /// Deployment mean (absent for tuning-only rows).
    pub mean: Option<f64>,
    /// Deployment standard deviation.
    pub std: Option<f64>,
    /// Worst deployment value.
    pub min: Option<f64>,
    /// Best deployment value.
    pub max: Option<f64>,
    /// Crashed deployment runs.
    pub crashes: Option<u64>,
}

impl CellRow {
    fn fold(&self, c: &mut Checksum) {
        fn opt_f64(c: &mut Checksum, v: Option<f64>) {
            c.push_u64(v.is_some() as u64);
            c.push_f64(v.unwrap_or(0.0));
        }
        c.push_str(&self.label);
        c.push_u64(self.seed);
        c.push_u64(self.samples);
        opt_f64(c, self.best);
        opt_f64(c, self.mean);
        opt_f64(c, self.std);
        opt_f64(c, self.min);
        opt_f64(c, self.max);
        c.push_u64(self.crashes.is_some() as u64);
        c.push_u64(self.crashes.unwrap_or(0));
    }

    fn of_summary(label: &str, seed: u64, run: &RunSummary) -> CellRow {
        CellRow {
            label: label.to_string(),
            seed,
            samples: run.tuning.as_ref().map_or(0, |t| t.total_samples as u64),
            best: run.tuning.as_ref().map(|t| t.best_value),
            mean: Some(run.deployment.mean),
            std: Some(run.deployment.std),
            min: Some(run.deployment.five.min),
            max: Some(run.deployment.five.max),
            crashes: Some(run.deployment.crashes as u64),
        }
    }

    fn of_trace(label: &str, seed: u64, result: &TuningResult) -> CellRow {
        CellRow {
            label: label.to_string(),
            seed,
            samples: result.total_samples as u64,
            best: Some(result.best_value),
            mean: None,
            std: None,
            min: None,
            max: None,
            crashes: None,
        }
    }
}

/// The durable record of one finished cell: its rows plus their FNV-1a
/// digest.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Cell index within the campaign grid.
    pub cell: usize,
    /// Result rows.
    pub rows: Vec<CellRow>,
    /// FNV-1a digest over the rows ([`CellRecord::compute_checksum`]).
    pub checksum: String,
}

impl CellRecord {
    fn new(cell: usize, rows: Vec<CellRow>) -> Self {
        let checksum = Self::compute_checksum(&rows);
        CellRecord {
            cell,
            rows,
            checksum,
        }
    }

    /// Recomputes the digest from the rows (resume verifies stored
    /// records against this).
    pub fn compute_checksum(rows: &[CellRow]) -> String {
        let mut c = Checksum::new();
        for row in rows {
            row.fold(&mut c);
        }
        c.hex()
    }
}

/// In-memory payload of an executed cell — the rich results the
/// figures post-process (deployment distributions, convergence traces).
/// Cells restored from a store have no payload.
#[derive(Debug, Clone)]
pub enum CellPayload {
    /// A tune-plus-deploy outcome.
    Run(RunSummary),
    /// A TUNA / naive-distributed convergence pair.
    Pair {
        /// The TUNA pipeline's trace.
        tuna: TuningResult,
        /// The naive-distributed trace.
        naive: TuningResult,
    },
}

/// One cell of a finished campaign.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell index.
    pub cell: usize,
    /// Workload axis index.
    pub workload: usize,
    /// Arm axis index.
    pub arm: usize,
    /// Run (seed) index.
    pub run: usize,
    /// Durable record (rows + checksum).
    pub record: CellRecord,
    /// Rich in-memory results; `None` when restored from a store.
    pub payload: Option<CellPayload>,
    /// Whether the cell was skipped because the store already had it.
    pub resumed: bool,
}

/// A finished (or truncated) campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign declaration digest.
    pub digest: String,
    /// Cells in grid order. Truncated runs (a `cell_limit`) only contain
    /// the cells that have records.
    pub cells: Vec<CellResult>,
    /// Whether every grid cell has a record.
    pub complete: bool,
    /// Campaign-level checksum: FNV-1a over per-cell checksums in grid
    /// order (only meaningful when `complete`).
    pub checksum: String,
    /// Cells executed this run.
    pub executed: usize,
    /// Cells restored from the store.
    pub resumed: usize,
}

impl CampaignResult {
    fn find(&self, workload: usize, arm: usize) -> impl Iterator<Item = &CellResult> {
        self.cells
            .iter()
            .filter(move |c| c.workload == workload && c.arm == arm)
    }

    /// The run summaries of a protocol/sample-budget cell group, in run
    /// order. `None` if any cell is missing or carries no payload (e.g.
    /// restored from a store).
    pub fn run_summaries(&self, workload: usize, arm: usize) -> Option<Vec<&RunSummary>> {
        let mut out = Vec::new();
        for cell in self.find(workload, arm) {
            match &cell.payload {
                Some(CellPayload::Run(summary)) => out.push(summary),
                _ => return None,
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// All rows of a cell group, in cell (and therefore run) order.
    pub fn group_rows(&self, workload: usize, arm: usize) -> Vec<&CellRow> {
        self.find(workload, arm)
            .flat_map(|c| c.record.rows.iter())
            .collect()
    }

    /// [`summarize_method`] over a cell group. Computed from payloads when
    /// the cells ran in-process; falls back to the stored rows (which
    /// serialize floats losslessly) for resumed cells, so a fully resumed
    /// protocol campaign prints bit-identical tables.
    pub fn method_summary(&self, workload: usize, arm: usize) -> Option<MethodSummary> {
        if let Some(runs) = self.run_summaries(workload, arm) {
            return Some(summarize_method(
                &runs.into_iter().cloned().collect::<Vec<_>>(),
            ));
        }
        let rows = self.group_rows(workload, arm);
        if rows.is_empty() {
            return None;
        }
        let mut means = Vec::with_capacity(rows.len());
        let mut stds = Vec::with_capacity(rows.len());
        let mut worst = f64::INFINITY;
        let mut best = f64::NEG_INFINITY;
        let mut crashes = 0usize;
        for row in &rows {
            means.push(row.mean?);
            stds.push(row.std?);
            worst = worst.min(row.min?);
            best = best.max(row.max?);
            crashes += row.crashes? as usize;
        }
        Some(MethodSummary {
            mean_of_means: tuna_stats::summary::mean(&means),
            mean_std: tuna_stats::summary::mean(&stds),
            worst,
            best,
            crashes,
            n_runs: rows.len(),
        })
    }

    /// The convergence pairs of an arm, in run order.
    pub fn pairs(
        &self,
        workload: usize,
        arm: usize,
    ) -> Option<Vec<(&TuningResult, &TuningResult)>> {
        let mut out = Vec::new();
        for cell in self.find(workload, arm) {
            match &cell.payload {
                Some(CellPayload::Pair { tuna, naive }) => out.push((tuna, naive)),
                _ => return None,
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

// ---------------------------------------------------------------------------
// Result store
// ---------------------------------------------------------------------------

/// Streamed, checksummed cell storage with resume.
///
/// Backed by a CSV file when opened with [`ResultStore::open`]: finished
/// cells are appended as they complete (in completion order — the
/// journal), and [`ResultStore::finalize`] rewrites the file sorted by
/// cell index plus a JSON mirror next to it. Because rows are pure
/// functions of the campaign declaration, an interrupted-then-resumed
/// campaign finalizes to byte-identical files.
///
/// After the header and column lines, each recorded cell is one *cell
/// group*, written by a single append: an optional trace line (`@trace `
/// then [`CellTrace::render_line`]) and the cell's CSV rows. Batch runs
/// record no traces, so their journals hold rows only.
#[derive(Debug)]
pub struct ResultStore {
    path: Option<PathBuf>,
    records: BTreeMap<usize, CellRecord>,
    /// Convergence traces of recorded cells, sorted by cell index (a
    /// subset of `records`' keys). A sorted `Vec`, not a map: a map's
    /// first node takes ~1 KB, once per study across a fleet of
    /// thousands of small studies.
    traces: Vec<CellTrace>,
    campaign_digest: String,
    header: String,
    repaired: bool,
}

impl ResultStore {
    /// A store with no backing file (no resume; checksums only).
    pub fn in_memory(campaign: &Campaign) -> Self {
        ResultStore {
            path: None,
            records: BTreeMap::new(),
            traces: Vec::new(),
            campaign_digest: campaign.digest(),
            header: Self::header_line(campaign),
            repaired: false,
        }
    }

    /// Whether [`ResultStore::open`] dropped (and rewrote away) a torn
    /// tail. Observability only — the repair itself is already done.
    pub fn repaired(&self) -> bool {
        self.repaired
    }

    fn header_line(campaign: &Campaign) -> String {
        format!(
            "# tuna-campaign v{STORE_VERSION} name={} seed={} cells={} digest={}",
            campaign.name,
            campaign.seed,
            campaign.n_cells(),
            campaign.digest()
        )
    }

    /// Opens (or creates) a CSV-backed store for `campaign` at `path`.
    /// An existing file is parsed and its cells are skipped on the next
    /// run.
    ///
    /// A journal whose *tail* was torn by a kill mid-append — an
    /// unterminated final line, or a final cell group (trace line plus
    /// rows) with fewer rows than its recipe produces — is repaired, not
    /// refused: the torn group is dropped whole, trace included
    /// (re-executing only that cell on resume) and the
    /// journal is atomically rewritten to its verified prefix so later
    /// appends land on a clean file. Because cells are pure functions
    /// of the declaration, the repaired-and-resumed store finalizes
    /// byte-identically to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns an error when the existing file belongs to a different
    /// campaign declaration (digest mismatch), is malformed *before*
    /// the tail, or fails a per-cell checksum re-verification — torn
    /// tails are repairable, mid-file corruption is not.
    pub fn open(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, String> {
        let path = path.into();
        let mut store = ResultStore {
            path: Some(path.clone()),
            records: BTreeMap::new(),
            traces: Vec::new(),
            campaign_digest: campaign.digest(),
            header: Self::header_line(campaign),
            repaired: false,
        };
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if store.load(&text, campaign)? {
                store.rewrite_journal(campaign)?;
                store.repaired = true;
                tuna_obs::global()
                    .counter(
                        "tuna_store_repairs_total",
                        "torn result-journal tails dropped and rewritten on open",
                    )
                    .inc();
            }
        } else if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        Ok(store)
    }

    /// Parses journal text into records; returns whether a torn tail
    /// was dropped (so [`ResultStore::open`] knows to rewrite the
    /// file).
    fn load(&mut self, text: &str, campaign: &Campaign) -> Result<bool, String> {
        // A kill mid-append truncates the file at an arbitrary byte, so
        // an unterminated final line is a torn write, never data: a
        // prefix of a row must not be parsed (it could even still look
        // like a row). Every complete line ends in '\n' because the
        // writer emits whole lines.
        let complete = text.rfind('\n').map_or("", |i| &text[..=i]);
        let mut repaired = complete.len() != text.len();

        let mut pending: BTreeMap<usize, (Vec<CellRow>, String)> = BTreeMap::new();
        let mut traces: BTreeMap<usize, CellTrace> = BTreeMap::new();
        // Cell of the last group: the only one a kill can have torn.
        let mut tail_cell = None;
        let mut saw_header = false;
        for (lineno, line) in complete.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line == CSV_COLUMNS {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                saw_header = true;
                let digest = rest
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix("digest="))
                    .ok_or_else(|| format!("line {}: header lacks digest", lineno + 1))?;
                if digest != self.campaign_digest {
                    return Err(format!(
                        "store digest {digest} does not match campaign '{}' digest {} — \
                         the file belongs to a different declaration; move it aside to start over",
                        campaign.name, self.campaign_digest
                    ));
                }
                continue;
            }
            let cell = if let Some(json) = line.strip_prefix(TRACE_PREFIX) {
                let trace =
                    CellTrace::parse_line(json).map_err(|e| format!("line {}: {e}", lineno + 1))?;
                let cell = trace.cell as usize;
                // A trace line opens its cell's group: one that follows
                // the cell's rows or another trace line is corruption.
                if pending.contains_key(&cell) || traces.insert(cell, trace).is_some() {
                    return Err(format!(
                        "line {}: cell {cell} trace does not lead its group (corrupt store)",
                        lineno + 1
                    ));
                }
                cell
            } else {
                let (cell, row, checksum) =
                    parse_csv_row(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
                let entry = pending
                    .entry(cell)
                    .or_insert_with(|| (Vec::new(), checksum.clone()));
                if entry.1 != checksum {
                    return Err(format!(
                        "line {}: cell {cell} rows disagree on their checksum",
                        lineno + 1
                    ));
                }
                entry.0.push(row);
                cell
            };
            if cell >= campaign.n_cells() {
                return Err(format!("line {}: cell {cell} out of range", lineno + 1));
            }
            tail_cell = Some(cell);
        }
        // Rows without a verified header could belong to any declaration
        // whose cell indices happen to fit — refuse rather than resume
        // foreign results.
        if !pending.is_empty() && !saw_header {
            return Err(format!(
                "store has data rows but no '# tuna-campaign ... digest=' header, so it \
                 cannot be verified against campaign '{}'; move it aside to start over",
                campaign.name
            ));
        }
        // The journal is grouped by cell in append order, so only the
        // *last* group can have been torn by a kill: a group short of
        // its recipe's row count there — a lone trace line included — is
        // a repairable tear, anywhere else it is corruption.
        for cell in traces.keys().filter(|c| !pending.contains_key(c)) {
            if Some(*cell) != tail_cell {
                return Err(format!(
                    "cell {cell}: trace line without its rows (corrupt store)"
                ));
            }
            repaired = true;
        }
        for (cell, (rows, checksum)) in pending {
            let expected_rows = campaign.rows_per_cell(cell);
            if rows.len() < expected_rows && Some(cell) == tail_cell {
                repaired = true;
                continue;
            }
            if rows.len() != expected_rows {
                return Err(format!(
                    "cell {cell}: {} rows where the declaration produces {expected_rows} \
                     (corrupt store)",
                    rows.len()
                ));
            }
            let recomputed = CellRecord::compute_checksum(&rows);
            if recomputed != checksum {
                return Err(format!(
                    "cell {cell}: stored checksum {checksum} != recomputed {recomputed} \
                     (corrupt or hand-edited store)"
                ));
            }
            // `pending` iterates in cell order, so this stays sorted.
            self.traces.extend(traces.remove(&cell));
            self.records.insert(
                cell,
                CellRecord {
                    cell,
                    rows,
                    checksum,
                },
            );
        }
        Ok(repaired)
    }

    /// Atomically rewrites the journal to exactly the verified records —
    /// the repair half of torn-tail recovery, so a later append lands on
    /// a clean file instead of concatenating with the torn bytes.
    fn rewrite_journal(&self, campaign: &Campaign) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        write_atomic(path, &self.render_csv(campaign))
    }

    /// The canonical journal: header, column line, then every cell
    /// group in cell order.
    fn render_csv(&self, campaign: &Campaign) -> String {
        let mut csv = String::new();
        csv.push_str(&self.header);
        csv.push('\n');
        csv.push_str(CSV_COLUMNS);
        csv.push('\n');
        for record in self.records.values() {
            let trace = self.trace_slot(record.cell).ok().map(|i| &self.traces[i]);
            write_cell_group(&mut csv, campaign, record, trace);
        }
        csv
    }

    /// The backing CSV path, if any.
    pub fn csv_path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The JSON mirror path, if file-backed.
    pub fn json_path(&self) -> Option<PathBuf> {
        self.path.as_ref().map(|p| p.with_extension("json"))
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no cells have completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record of a completed cell.
    pub fn get(&self, cell: usize) -> Option<&CellRecord> {
        self.records.get(&cell)
    }

    /// Convergence traces of the recorded cells that carry one, in cell
    /// order.
    pub fn traces(&self) -> impl Iterator<Item = &CellTrace> {
        self.traces.iter()
    }

    /// Where `cell`'s trace is (`Ok`) or would go (`Err`) in `traces`.
    fn trace_slot(&self, cell: usize) -> Result<usize, usize> {
        self.traces.binary_search_by_key(&(cell as u64), |t| t.cell)
    }

    /// [`ResultStore::record_traced`] without a trace — the batch
    /// runner's path.
    pub fn record(&mut self, campaign: &Campaign, record: CellRecord) -> Result<(), String> {
        self.record_traced(campaign, record, None)
    }

    /// Records a finished cell and its optional convergence trace,
    /// appending them to the journal as one cell group (one write) when
    /// file-backed. The journal's group order follows completion order;
    /// [`ResultStore::finalize`] canonicalizes it. Public so external
    /// schedulers (the serve daemon) can stream cells they executed via
    /// [`execute_cell`] into the same store format the runner writes.
    ///
    /// # Errors
    ///
    /// Returns an error when the journal cannot be opened or appended
    /// to; the record is then *not* kept, so memory never claims a cell
    /// the journal lacks. Failures count in
    /// `tuna_store_append_failures_total`.
    pub fn record_traced(
        &mut self,
        campaign: &Campaign,
        record: CellRecord,
        trace: Option<CellTrace>,
    ) -> Result<(), String> {
        if let Some(path) = &self.path {
            let mut text = String::new();
            // Write the header before the first row of a fresh journal —
            // including a pre-created empty file, which has no header yet
            // (journals without one are refused on load).
            let file_is_empty = path.metadata().map_or(true, |m| m.len() == 0);
            if self.records.is_empty() && file_is_empty {
                text.push_str(&self.header);
                text.push('\n');
                text.push_str(CSV_COLUMNS);
                text.push('\n');
            }
            write_cell_group(&mut text, campaign, &record, trace.as_ref());
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(text.as_bytes()))
                .map_err(|e| {
                    tuna_obs::global()
                        .counter(
                            "tuna_store_append_failures_total",
                            "result-journal appends that failed (the cell was not kept)",
                        )
                        .inc();
                    format!("cannot append to {}: {e}", path.display())
                })?;
        }
        if let Some(trace) = trace {
            match self.trace_slot(record.cell) {
                Ok(i) => self.traces[i] = trace,
                Err(i) => self.traces.insert(i, trace),
            }
        }
        self.records.insert(record.cell, record);
        Ok(())
    }

    /// Adopts traces for recorded cells that have none yet (the first
    /// offered trace per cell wins; traces of unrecorded cells are
    /// dropped), then rewrites the journal. This is how a journal
    /// written before traces rode in it takes over the traces of a
    /// leftover sidecar file.
    ///
    /// # Errors
    ///
    /// Returns an error when the journal rewrite fails.
    pub fn adopt_traces(
        &mut self,
        campaign: &Campaign,
        traces: impl IntoIterator<Item = CellTrace>,
    ) -> Result<(), String> {
        for trace in traces {
            let cell = trace.cell as usize;
            if !self.records.contains_key(&cell) {
                continue;
            }
            if let Err(i) = self.trace_slot(cell) {
                self.traces.insert(i, trace);
            }
        }
        self.rewrite_journal(campaign)
    }

    /// Campaign-level checksum: FNV-1a over per-cell checksums in cell
    /// order.
    pub fn campaign_checksum(&self) -> String {
        let mut c = Checksum::new();
        for record in self.records.values() {
            c.push_u64(record.cell as u64);
            c.push_str(&record.checksum);
        }
        c.hex()
    }

    /// Rewrites the CSV sorted by cell index and writes the JSON mirror.
    /// Idempotent; called by the runner after every (possibly truncated)
    /// run so interrupted stores stay canonical.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn finalize(&self, campaign: &Campaign) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        // Atomic replace (write-temp-then-rename): an interrupt during
        // finalize must not destroy the journal of completed cells —
        // surviving interrupts is this store's whole point.
        write_atomic(path, &self.render_csv(campaign))?;
        let json_path = self.json_path().expect("file-backed store");
        write_atomic(&json_path, &self.to_json(campaign))?;
        Ok(())
    }

    /// Serializes the store to the canonical JSON layout (fixed schema,
    /// lossless floats, the shared [`tuna_stats::json`] writer — no
    /// serde).
    pub fn to_json(&self, campaign: &Campaign) -> String {
        use tuna_stats::json::fmt_opt_f64 as opt_f64;
        let complete = self.records.len() == campaign.n_cells();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {STORE_VERSION},\n"));
        out.push_str(&format!("  \"name\": {},\n", json_quote(&campaign.name)));
        out.push_str(&format!("  \"seed\": {},\n", campaign.seed));
        if !campaign.paper_site() {
            out.push_str(&format!("  \"sku\": {},\n", json_quote(campaign.sku)));
            out.push_str(&format!("  \"region\": {},\n", json_quote(campaign.region)));
        }
        out.push_str(&format!("  \"digest\": \"{}\",\n", self.campaign_digest));
        out.push_str(&format!("  \"cells\": {},\n", campaign.n_cells()));
        out.push_str(&format!("  \"completed\": {},\n", self.records.len()));
        out.push_str(&format!(
            "  \"checksum\": {},\n",
            if complete {
                format!("\"{}\"", self.campaign_checksum())
            } else {
                "null".to_string()
            }
        ));
        out.push_str("  \"rows\": [\n");
        let total_rows: usize = self.records.values().map(|r| r.rows.len()).sum();
        let mut i = 0usize;
        for record in self.records.values() {
            let (w, a, run) = campaign.coords(record.cell);
            for row in &record.rows {
                i += 1;
                out.push_str(&format!(
                    "    {{\"cell\": {}, \"workload\": {}, \"arm\": {}, \
                     \"label\": {}, \"run\": {}, \"seed\": {}, \"samples\": {}, \
                     \"best\": {}, \"mean\": {}, \"std\": {}, \"min\": {}, \"max\": {}, \
                     \"crashes\": {}, \"checksum\": \"{}\"}}{}\n",
                    record.cell,
                    json_quote(campaign.workloads[w].name),
                    json_quote(&campaign.arms[a].label),
                    json_quote(&row.label),
                    run,
                    row.seed,
                    row.samples,
                    opt_f64(row.best),
                    opt_f64(row.mean),
                    opt_f64(row.std),
                    opt_f64(row.min),
                    opt_f64(row.max),
                    row.crashes.map_or("null".to_string(), |c| c.to_string()),
                    record.checksum,
                    if i == total_rows { "" } else { "," }
                ));
            }
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Writes `text` to `path` via a sibling temp file plus rename, so an
/// interrupt mid-write leaves the previous file intact. Shared with the
/// serve daemon's spec/marker persistence — crash-safety code should
/// have one implementation.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        )
    })
}

// Quoting of identifiers in the JSON mirror (labels exclude
// commas/newlines but not quotes) goes through the shared writer.
use tuna_stats::json::quote as json_quote;

const CSV_COLUMNS: &str =
    "cell,workload,arm,label,run,seed,samples,best,mean,std,min,max,crashes,checksum";

/// Leads a trace line in the journal: no CSV row starts with `@` and no
/// header line does either.
const TRACE_PREFIX: &str = "@trace ";

/// One journal cell group: the trace line, if any, then the rows.
fn write_cell_group(
    out: &mut String,
    campaign: &Campaign,
    record: &CellRecord,
    trace: Option<&CellTrace>,
) {
    fn opt_f64(v: Option<f64>) -> String {
        v.map_or(String::new(), |x| format!("{x:?}"))
    }
    if let Some(trace) = trace {
        out.push_str(TRACE_PREFIX);
        out.push_str(&trace.render_line());
        out.push('\n');
    }
    let (w, a, run) = campaign.coords(record.cell);
    for row in &record.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            record.cell,
            campaign.workloads[w].name,
            campaign.arms[a].label,
            row.label,
            run,
            row.seed,
            row.samples,
            opt_f64(row.best),
            opt_f64(row.mean),
            opt_f64(row.std),
            opt_f64(row.min),
            opt_f64(row.max),
            row.crashes.map_or(String::new(), |c| c.to_string()),
            record.checksum,
        ));
    }
}

fn parse_csv_row(line: &str) -> Result<(usize, CellRow, String), String> {
    fn opt_f64(s: &str) -> Result<Option<f64>, String> {
        if s.is_empty() {
            Ok(None)
        } else {
            s.parse().map(Some).map_err(|_| format!("bad float {s:?}"))
        }
    }
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 14 {
        return Err(format!("expected 14 fields, found {}", fields.len()));
    }
    let cell: usize = fields[0]
        .parse()
        .map_err(|_| format!("bad cell index {:?}", fields[0]))?;
    let row = CellRow {
        label: fields[3].to_string(),
        seed: fields[5]
            .parse()
            .map_err(|_| format!("bad seed {:?}", fields[5]))?,
        samples: fields[6]
            .parse()
            .map_err(|_| format!("bad samples {:?}", fields[6]))?,
        best: opt_f64(fields[7])?,
        mean: opt_f64(fields[8])?,
        std: opt_f64(fields[9])?,
        min: opt_f64(fields[10])?,
        max: opt_f64(fields[11])?,
        crashes: if fields[12].is_empty() {
            None
        } else {
            Some(
                fields[12]
                    .parse()
                    .map_err(|_| format!("bad crashes {:?}", fields[12]))?,
            )
        },
    };
    Ok((cell, row, fields[13].to_string()))
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Executes a campaign's cells, work-stealing whole cells across worker
/// threads.
#[derive(Debug, Clone, Copy)]
pub struct CampaignRunner {
    /// Cell-level execution mode: [`ExecutionMode::Serial`] runs cells in
    /// grid order on the calling thread; `Parallel { workers }` lets up to
    /// `workers` pool threads claim cells one at a time. Results and store
    /// contents are bit-identical either way.
    pub mode: ExecutionMode,
    /// Stop after this many *newly executed* cells (checkpointing /
    /// interrupt simulation). `None` runs the whole grid.
    pub cell_limit: Option<usize>,
}

impl CampaignRunner {
    /// A serial runner.
    pub fn serial() -> Self {
        CampaignRunner {
            mode: ExecutionMode::Serial,
            cell_limit: None,
        }
    }

    /// A runner whose cell-level worker count comes from `TUNA_WORKERS`
    /// (the same knob the trial executor reads; campaigns scale across
    /// cells instead of within rounds), or one worker per core when it is
    /// unset. Results do not depend on the count.
    pub fn from_env() -> Self {
        Self::with_workers(match std::env::var_os("TUNA_WORKERS") {
            Some(_) => ExecutionMode::from_env().workers(),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    /// A runner with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        CampaignRunner {
            mode: if workers > 1 {
                ExecutionMode::Parallel { workers }
            } else {
                ExecutionMode::Serial
            },
            cell_limit: None,
        }
    }

    /// Caps the number of cells executed this run.
    pub fn with_cell_limit(mut self, limit: usize) -> Self {
        self.cell_limit = Some(limit);
        self
    }

    /// Runs every cell of `campaign` that `store` does not already hold,
    /// streams finished cells into the store, finalizes it, and returns
    /// the combined result in grid order.
    ///
    /// # Panics
    ///
    /// Panics if a cell's recipe is inconsistent with the grid (e.g. a
    /// ladder that exceeds its cluster), (propagated) if a SuT panics,
    /// or with the store's message if a journal append fails.
    pub fn run(&self, campaign: &Campaign, store: &mut ResultStore) -> CampaignResult {
        assert_eq!(
            store.campaign_digest,
            campaign.digest(),
            "store was opened for a different campaign declaration"
        );
        let n_cells = campaign.n_cells();
        let to_run: Vec<usize> = (0..n_cells)
            .filter(|i| store.get(*i).is_none())
            .take(self.cell_limit.unwrap_or(usize::MAX))
            .collect();
        let resumed_before = store.len();

        // Each cell is recorded as it finishes, so a kill loses only the
        // cells that were running.
        let shared_store = Mutex::new(&mut *store);
        let mut payloads: BTreeMap<usize, CellPayload> = tuna_stats::pool::map(
            self.mode.workers(),
            to_run,
            |_| (),
            |_, cell| {
                // Trials inside campaign cells always execute serially: the
                // campaign's scaling axis is the grid, and the executor's
                // serial-equivalence contract makes this numerically
                // irrelevant.
                let (record, payload) = execute_cell(campaign, cell, ExecutionMode::Serial);
                // The guard drops before a failure panics, so the mutex is
                // not poisoned.
                let recorded = shared_store
                    .lock()
                    .expect("store mutex poisoned")
                    .record(campaign, record);
                recorded.unwrap_or_else(|e| panic!("campaign '{}': {e}", campaign.name));
                (cell, payload)
            },
        )
        .into_iter()
        .collect();
        let executed_count = payloads.len();

        if let Err(e) = store.finalize(campaign) {
            eprintln!("campaign '{}': store finalize failed: {e}", campaign.name);
        }

        let mut cells = Vec::with_capacity(store.len());
        for (&cell, record) in &store.records {
            let (workload, arm, run) = campaign.coords(cell);
            let payload = payloads.remove(&cell);
            let resumed = payload.is_none();
            cells.push(CellResult {
                cell,
                workload,
                arm,
                run,
                record: record.clone(),
                payload,
                resumed,
            });
        }
        let complete = cells.len() == n_cells;
        CampaignResult {
            digest: campaign.digest(),
            checksum: store.campaign_checksum(),
            cells,
            complete,
            executed: executed_count,
            resumed: resumed_before,
        }
    }
}

// ---------------------------------------------------------------------------
// Cell execution
// ---------------------------------------------------------------------------

/// Runs one cell. Pure function of `(campaign, cell)` — all randomness is
/// derived from the campaign seed and the cell coordinates, never from
/// shared mutable state, so any execution order (and any worker count)
/// produces identical records. Public so external schedulers (the serve
/// daemon's fair-share multiplexer) can execute cells out of band and
/// [`ResultStore::record`] them.
pub fn execute_cell(
    campaign: &Campaign,
    cell: usize,
    inner: ExecutionMode,
) -> (CellRecord, CellPayload) {
    let (w, a, run) = campaign.coords(cell);
    let arm = &campaign.arms[a];
    let exp = campaign.experiment(w, inner);
    match &arm.recipe {
        Recipe::Protocol { method, seed_salt } => {
            let base = match seed_salt {
                None => campaign.seed,
                Some(salt) => hash_combine(campaign.seed, *salt),
            };
            let seed = hash_combine(base, run as u64);
            let summary = exp.run(*method, seed);
            let rows = vec![CellRow::of_summary(&arm.label, seed, &summary)];
            (CellRecord::new(cell, rows), CellPayload::Run(summary))
        }
        Recipe::SampleBudget(spec) => {
            let seed = hash_combine(campaign.seed, spec.seed_salt + run as u64);
            let summary = run_sample_budget(&exp, spec, seed, inner);
            let rows = vec![CellRow::of_summary(&arm.label, seed, &summary)];
            (CellRecord::new(cell, rows), CellPayload::Run(summary))
        }
        Recipe::Convergence(spec) => {
            let seed = hash_combine(campaign.seed, spec.seed_salt + run as u64);
            let (tuna, naive) = run_convergence(&exp, spec, seed, inner);
            let rows = vec![
                CellRow::of_trace("TUNA", seed, &tuna),
                CellRow::of_trace("naive", seed, &naive),
            ];
            (
                CellRecord::new(cell, rows),
                CellPayload::Pair { tuna, naive },
            )
        }
        Recipe::Arena(spec) => {
            let seed = hash_combine(hash_combine(campaign.seed, spec.seed_salt()), run as u64);
            let summary = run_arena_cell(&exp, spec, seed, inner);
            let rows = vec![CellRow::of_summary(&arm.label, seed, &summary)];
            (CellRecord::new(cell, rows), CellPayload::Run(summary))
        }
    }
}

/// Extracts the convergence trace of a freshly executed cell: one
/// best-cost-so-far series per tuner that ran (two for convergence
/// pairs, none for non-tuning arms such as a static default config).
/// The serve layer records it with the cell's rows
/// ([`ResultStore::record_traced`]) — the payload only exists in memory
/// at completion time.
///
/// # Panics
///
/// Panics if `cell` is out of range for `campaign`.
pub fn cell_trace(campaign: &Campaign, cell: usize, payload: &CellPayload) -> CellTrace {
    fn series_of(label: &str, t: &TuningResult) -> tuna_obs::ArmTrace {
        tuna_obs::ArmTrace {
            label: label.to_string(),
            series: t
                .trace
                .iter()
                .filter_map(|ir| ir.best_so_far.map(|b| (ir.round as u64, b)))
                .collect(),
        }
    }
    let (w, a, run) = campaign.coords(cell);
    let arms = match payload {
        CellPayload::Run(summary) => match &summary.tuning {
            Some(t) => vec![series_of(summary.method, t)],
            None => Vec::new(),
        },
        CellPayload::Pair { tuna, naive } => {
            vec![series_of("TUNA", tuna), series_of("naive", naive)]
        }
    };
    CellTrace {
        cell: cell as u64,
        workload: campaign.workloads[w].name.to_string(),
        arm: campaign.arms[a].label.clone(),
        run: run as u64,
        arms,
    }
}

/// The pinned equal-cost/ablation pipeline: the §6.5.1 driver loop with
/// the spec's overrides applied, then a deployment of the winner.
fn run_sample_budget(
    exp: &Experiment,
    spec: &SampleBudgetSpec,
    seed: u64,
    inner: ExecutionMode,
) -> RunSummary {
    let sut = exp.make_sut();
    let cluster_size = spec.cluster.as_ref().map_or(exp.cluster_size, |c| c.size);
    let ladder = spec
        .cluster
        .as_ref()
        .map_or_else(LadderParams::paper_default, |c| c.ladder.clone());
    let base = Cluster::new(cluster_size, exp.sku.clone(), exp.region.clone(), seed);
    let mut rng = Rng::seed_from(hash_combine(seed, spec.rng_label));
    let crash_penalty = default_worst_case_with(inner, sut.as_ref(), &exp.workload, &base, &rng);

    let mut cfg = TunaConfig::paper_default(crash_penalty);
    cfg.mode = inner;
    cfg.cluster_size = cluster_size;
    cfg.ladder = ladder.clone();
    if let Some(aggregation) = spec.aggregation {
        cfg.aggregation = aggregation;
    }
    if let Some(threshold) = spec.outlier_threshold {
        cfg.outlier_threshold = threshold;
    }
    let mut params = exp.solver_params(true);
    params.ladder = ladder;
    let optimizer = exp
        .optimizer
        .build(sut.space().clone(), exp.objective(), &params);
    let mut pipeline = TunaPipeline::new(cfg, sut.as_ref(), &exp.workload, optimizer, base.clone());
    pipeline.run_until_samples(spec.samples, &mut rng);
    let result = pipeline.finish();
    let deployment = evaluate_deployment_with(
        inner,
        sut.as_ref(),
        &exp.workload,
        &result.best_config,
        &base,
        spec.deploy_label,
        exp.deploy_vms,
        exp.deploy_repeats,
        crash_penalty,
        &rng,
    );
    RunSummary {
        method: "campaign",
        best_config: result.best_config.clone(),
        tuning: Some(result),
        deployment,
    }
}

/// The §6.5.2 convergence pair: a TUNA pipeline and a naive-distributed
/// run sharing one RNG stream (pipeline first), as the historical
/// Figure 17 driver derived them.
fn run_convergence(
    exp: &Experiment,
    spec: &ConvergenceSpec,
    seed: u64,
    inner: ExecutionMode,
) -> (TuningResult, TuningResult) {
    let sut = exp.make_sut();
    let base = Cluster::new(exp.cluster_size, exp.sku.clone(), exp.region.clone(), seed);
    let mut rng = Rng::seed_from(hash_combine(seed, spec.rng_label));
    let crash_penalty = default_worst_case_with(inner, sut.as_ref(), &exp.workload, &base, &rng);

    let optimizer = exp.optimizer.build(
        sut.space().clone(),
        exp.objective(),
        &exp.solver_params(true),
    );
    let mut cfg = TunaConfig::paper_default(crash_penalty);
    cfg.mode = inner;
    let mut pipeline = TunaPipeline::new(cfg, sut.as_ref(), &exp.workload, optimizer, base.clone());
    pipeline.run_until_samples(spec.samples, &mut rng);
    let tuna = pipeline.finish();

    let naive_opt = exp.optimizer.build(
        sut.space().clone(),
        exp.objective(),
        &exp.solver_params(false),
    );
    let naive = run_naive_distributed(
        inner,
        sut.as_ref(),
        &exp.workload,
        naive_opt,
        base,
        spec.samples,
        crash_penalty,
        &mut rng,
    );
    (tuna, naive)
}

/// One arena cell: region override, then either the full TUNA pipeline
/// (the [`ArenaSpec::TUNA`] sentinel) or [`run_arena`] with the named
/// registry solver on a single-machine arena, then a deployment of the
/// winner — so arena rows carry the same deploy statistics as protocol
/// rows and land in the same store columns.
fn run_arena_cell(
    exp: &Experiment,
    spec: &ArenaSpec,
    seed: u64,
    inner: ExecutionMode,
) -> RunSummary {
    // RNG labels for the arena recipe's independent streams.
    const ARENA_CLUSTER_LABEL: u64 = 0xA7_0001;
    const ARENA_RNG_LABEL: u64 = 0xA7_0002;
    const ARENA_MATCH_LABEL: u64 = 0xA7_0003;
    const ARENA_DEPLOY_LABEL: u64 = 0xA7_0004;

    let mut exp = exp.clone();
    exp.region = Region::by_name(&spec.region)
        .unwrap_or_else(|| panic!("arena cell: unknown region {:?}", spec.region));
    let sut = exp.make_sut();
    let base = Cluster::new(
        exp.cluster_size,
        exp.sku.clone(),
        exp.region.clone(),
        hash_combine(seed, ARENA_CLUSTER_LABEL),
    );
    let mut rng = Rng::seed_from(hash_combine(seed, ARENA_RNG_LABEL));
    let crash_penalty = default_worst_case_with(inner, sut.as_ref(), &exp.workload, &base, &rng);

    let (best_config, tuning) = if spec.solver == ArenaSpec::TUNA {
        let mut cfg = TunaConfig::paper_default(crash_penalty);
        cfg.mode = inner;
        cfg.cluster_size = exp.cluster_size;
        let optimizer = SolverId::smac().build(
            sut.space().clone(),
            exp.objective(),
            &exp.solver_params(true),
        );
        let mut pipeline =
            TunaPipeline::new(cfg, sut.as_ref(), &exp.workload, optimizer, base.clone());
        pipeline.run_until_samples(spec.samples, &mut rng);
        let result = pipeline.finish();
        (result.best_config.clone(), result)
    } else {
        let id = SolverId::new(&spec.solver).unwrap_or_else(|e| panic!("arena cell: {e}"));
        let match_size = id.capabilities().match_size;
        let solver = id.build(
            sut.space().clone(),
            exp.objective(),
            &exp.solver_params(false),
        );
        // Matches play on one machine so both sides share its noise draw.
        let arena = Cluster::new(
            1,
            exp.sku.clone(),
            exp.region.clone(),
            hash_combine(seed, ARENA_MATCH_LABEL),
        );
        let result = run_arena(
            sut.as_ref(),
            &exp.workload,
            solver,
            arena,
            spec.samples,
            match_size,
            crash_penalty,
            &mut rng,
        );
        (result.best_config.clone(), result)
    };

    let deployment = evaluate_deployment_with(
        inner,
        sut.as_ref(),
        &exp.workload,
        &best_config,
        &base,
        ARENA_DEPLOY_LABEL,
        exp.deploy_vms,
        exp.deploy_repeats,
        crash_penalty,
        &rng,
    );
    RunSummary {
        method: "arena",
        best_config,
        tuning: Some(tuning),
        deployment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign(name: &str) -> Campaign {
        Campaign::protocol(
            name,
            5,
            vec![tuna_workloads::tpcc()],
            &[("TUNA", Method::Tuna), ("Default", Method::DefaultConfig)],
        )
        .with_runs(2)
        .with_rounds(3)
    }

    #[test]
    fn coords_roundtrip() {
        let c = tiny_campaign("coords");
        assert_eq!(c.n_cells(), 4);
        assert_eq!(c.coords(0), (0, 0, 0));
        assert_eq!(c.coords(1), (0, 0, 1));
        assert_eq!(c.coords(2), (0, 1, 0));
        assert_eq!(c.coords(3), (0, 1, 1));
    }

    #[test]
    fn digest_tracks_declaration() {
        let a = tiny_campaign("digest");
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.runs = 3;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.arms[0] = Arm::new(
            "TUNA",
            Recipe::Protocol {
                method: Method::Tuna,
                seed_salt: Some(7),
            },
        );
        assert_ne!(a.digest(), c.digest());
        // The paper's site folds nothing: naming it explicitly keeps the
        // digest pinned before the site was declared; any other site
        // moves it.
        let (sku, region) = Campaign::PAPER_SITE;
        let paper = a.clone().with_site(sku, region);
        assert_eq!(paper.digest(), a.digest());
        assert_eq!(paper.digest(), "5f348e931f6df636");
        let moved = a.clone().with_site(sku, "centralus");
        assert_ne!(moved.digest(), a.digest());
        let metal = a.clone().with_site("c220g5", "cloudlab");
        assert_ne!(metal.digest(), a.digest());
        assert_ne!(metal.digest(), moved.digest());
    }

    #[test]
    #[should_panic(expected = "must not contain commas")]
    fn comma_labels_rejected() {
        Arm::new("a,b", Recipe::protocol(Method::Tuna));
    }

    #[test]
    fn protocol_cells_match_direct_runs() {
        let campaign = tiny_campaign("protocol");
        let mut store = ResultStore::in_memory(&campaign);
        let result = CampaignRunner::serial().run(&campaign, &mut store);
        assert!(result.complete);
        assert_eq!(result.executed, 4);

        // Cell (0, arm 0, run r) must equal a direct run seeded
        // `hash_combine(campaign.seed, r)` bit-for-bit.
        let mut exp = Experiment::paper_default(tuna_workloads::tpcc());
        exp.rounds = 3;
        exp.exec = ExecutionMode::Serial;
        let direct: Vec<RunSummary> = (0..2)
            .map(|r| exp.run(Method::Tuna, hash_combine(5, r)))
            .collect();
        let summaries = result.run_summaries(0, 0).expect("payloads present");
        assert_eq!(summaries.len(), 2);
        for (got, want) in summaries.iter().zip(&direct) {
            assert_eq!(got.deployment.values, want.deployment.values);
            assert_eq!(got.best_config, want.best_config);
        }
        let ms = result.method_summary(0, 0).unwrap();
        assert!(ms.n_runs == 2 && ms.mean_of_means > 0.0);
    }

    #[test]
    fn serial_and_parallel_checksums_match() {
        let campaign = tiny_campaign("modes");
        let mut serial_store = ResultStore::in_memory(&campaign);
        let serial = CampaignRunner::serial().run(&campaign, &mut serial_store);
        for workers in [2, 4] {
            let mut par_store = ResultStore::in_memory(&campaign);
            let par = CampaignRunner::with_workers(workers).run(&campaign, &mut par_store);
            assert_eq!(serial.checksum, par.checksum, "workers={workers}");
            for (s, p) in serial.cells.iter().zip(&par.cells) {
                assert_eq!(s.record, p.record, "workers={workers} cell {}", s.cell);
            }
        }
    }

    #[test]
    fn store_roundtrip_and_resume() {
        let campaign = tiny_campaign("resume");
        let dir = std::env::temp_dir().join(format!("tuna-campaign-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("resume/campaign.csv");

        // Uninterrupted reference.
        let ref_path = dir.join("reference/campaign.csv");
        let mut ref_store = ResultStore::open(&ref_path, &campaign).unwrap();
        let reference = CampaignRunner::serial().run(&campaign, &mut ref_store);

        // Interrupted after 1 cell, then resumed.
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        let partial = CampaignRunner::serial()
            .with_cell_limit(1)
            .run(&campaign, &mut store);
        assert!(!partial.complete);
        assert_eq!(partial.executed, 1);
        drop(store);

        let mut store = ResultStore::open(&path, &campaign).unwrap();
        assert_eq!(store.len(), 1);
        let resumed = CampaignRunner::serial().run(&campaign, &mut store);
        assert!(resumed.complete);
        assert_eq!(resumed.executed, 3);
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.checksum, reference.checksum);

        // Byte-identical files.
        let a = std::fs::read_to_string(&ref_path).unwrap();
        let b = std::fs::read_to_string(&path).unwrap();
        assert_eq!(a, b, "resumed CSV differs from uninterrupted CSV");
        let aj = std::fs::read_to_string(ref_path.with_extension("json")).unwrap();
        let bj = std::fs::read_to_string(path.with_extension("json")).unwrap();
        assert_eq!(aj, bj, "resumed JSON differs from uninterrupted JSON");

        // A fully resumed campaign executes nothing and keeps the files.
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        let replay = CampaignRunner::serial().run(&campaign, &mut store);
        assert!(replay.complete);
        assert_eq!(replay.executed, 0);
        assert_eq!(replay.checksum, reference.checksum);
        assert!(replay.cells.iter().all(|c| c.resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_store_is_refused() {
        let campaign = tiny_campaign("original");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.csv");
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        CampaignRunner::serial()
            .with_cell_limit(1)
            .run(&campaign, &mut store);
        drop(store);

        let other = tiny_campaign("original").with_runs(3);
        let err = ResultStore::open(&path, &other).unwrap_err();
        assert!(err.contains("different declaration"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_store_is_refused() {
        let campaign = tiny_campaign("corrupt");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.csv");
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        CampaignRunner::serial()
            .with_cell_limit(1)
            .run(&campaign, &mut store);
        drop(store);

        // The arm and label columns are both "TUNA"; only the label
        // feeds the cell checksum, so tamper the adjacent pair.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("TUNA,TUNA", "TUNA,TUNX", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let err = ResultStore::open(&path, &campaign).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-cell campaign whose first cell journals *two* rows (a
    /// convergence pair) and whose second journals one — so torn tails
    /// can land mid-group, not just mid-line.
    fn torn_campaign(name: &str) -> Campaign {
        let mut campaign = tiny_campaign(name);
        campaign.arms = vec![
            Arm::new(
                "pair",
                Recipe::Convergence(ConvergenceSpec {
                    samples: 10,
                    seed_salt: 41,
                    rng_label: 3,
                }),
            ),
            Arm::new("Default", Recipe::protocol(Method::DefaultConfig)),
        ];
        campaign.runs = 1;
        campaign
    }

    /// The served trace document of a store, as the serve layer
    /// assembles it.
    fn trace_document(campaign: &Campaign, store: &ResultStore) -> String {
        tuna_obs::StudyTrace {
            study: campaign.name.clone(),
            digest: campaign.digest(),
            n_cells: campaign.n_cells() as u64,
            cells: store.traces().cloned().collect(),
        }
        .to_json()
    }

    #[test]
    fn torn_tail_is_repaired_at_every_byte_offset() {
        let campaign = torn_campaign("torn");
        let dir = std::env::temp_dir().join(format!("tuna-campaign-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // The pure per-cell records and traces, so each truncation below
        // resumes from the journal write path without re-execution.
        let cells: Vec<(CellRecord, CellTrace)> = (0..campaign.n_cells())
            .map(|c| {
                let (record, payload) = execute_cell(&campaign, c, ExecutionMode::Serial);
                let trace = cell_trace(&campaign, c, &payload);
                (record, trace)
            })
            .collect();

        // A batch journal (rows only, written by the runner) and a
        // served one (each cell group led by its trace line).
        for traced in [false, true] {
            let ref_path = dir.join(format!("reference-{traced}.csv"));
            let mut ref_store = ResultStore::open(&ref_path, &campaign).unwrap();
            if traced {
                for (record, trace) in &cells {
                    ref_store
                        .record_traced(&campaign, record.clone(), Some(trace.clone()))
                        .unwrap();
                }
                ref_store.finalize(&campaign).unwrap();
            } else {
                let result = CampaignRunner::serial().run(&campaign, &mut ref_store);
                assert!(result.complete);
            }
            for (c, (record, _)) in cells.iter().enumerate() {
                assert_eq!(ref_store.get(c), Some(record), "records are pure");
            }
            let ref_csv = std::fs::read_to_string(&ref_path).unwrap();
            let ref_json = std::fs::read_to_string(ref_path.with_extension("json")).unwrap();
            let ref_trace = trace_document(&campaign, &ref_store);
            assert_eq!(ref_csv.contains(TRACE_PREFIX), traced);
            assert_eq!(ref_store.traces().count(), if traced { 2 } else { 0 });

            // Kill at every byte offset: the truncated journal must open
            // (repair, not refuse), keep only verified whole cell groups,
            // and after re-recording the lost cells finalize
            // byte-identically.
            let path = dir.join(format!("truncated-{traced}.csv"));
            for offset in 0..=ref_csv.len() {
                let _ = std::fs::remove_file(path.with_extension("json"));
                std::fs::write(&path, &ref_csv.as_bytes()[..offset]).unwrap();
                let mut store = ResultStore::open(&path, &campaign).unwrap_or_else(|e| {
                    panic!("traced={traced} offset {offset}: refused instead of repaired: {e}")
                });
                let kept_traces: Vec<usize> = store.traces().map(|t| t.cell as usize).collect();
                for (cell, (record, trace)) in cells.iter().enumerate() {
                    if let Some(kept) = store.get(cell) {
                        assert_eq!(kept, record, "offset {offset}: kept cell {cell} differs");
                        assert_eq!(
                            kept_traces.contains(&cell),
                            traced,
                            "traced={traced} offset {offset}: cell {cell} kept rows without trace"
                        );
                    } else {
                        assert!(
                            !kept_traces.contains(&cell),
                            "offset {offset}: cell {cell} kept a trace without rows"
                        );
                        store
                            .record_traced(&campaign, record.clone(), traced.then(|| trace.clone()))
                            .unwrap();
                    }
                }
                store.finalize(&campaign).unwrap();
                assert_eq!(
                    std::fs::read_to_string(&path).unwrap(),
                    ref_csv,
                    "traced={traced} offset {offset}: resumed CSV differs from uninterrupted"
                );
                assert_eq!(
                    std::fs::read_to_string(path.with_extension("json")).unwrap(),
                    ref_json,
                    "traced={traced} offset {offset}: resumed JSON differs from uninterrupted"
                );
                assert_eq!(
                    trace_document(&campaign, &store),
                    ref_trace,
                    "offset {offset}: resumed trace document differs from uninterrupted"
                );
            }

            // Spot-check the repair boundary: cutting the final byte
            // tears only the tail cell; the complete first cell survives.
            std::fs::write(&path, &ref_csv.as_bytes()[..ref_csv.len() - 1]).unwrap();
            let store = ResultStore::open(&path, &campaign).unwrap();
            assert_eq!(store.len(), 1, "only the torn tail cell is lost");
            assert!(store.get(0).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_line_without_its_rows_mid_file_is_refused() {
        let campaign = torn_campaign("torn-trace-midfile");
        let dir = std::env::temp_dir().join(format!(
            "tuna-campaign-trace-midfile-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.csv");
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        for c in 0..campaign.n_cells() {
            let (record, payload) = execute_cell(&campaign, c, ExecutionMode::Serial);
            let trace = cell_trace(&campaign, c, &payload);
            store.record_traced(&campaign, record, Some(trace)).unwrap();
        }
        drop(store);

        // Drop the first cell's rows but keep its trace line: the group
        // is short before the journal tail — corruption, not a tear.
        let text = std::fs::read_to_string(&path).unwrap();
        let gutted: String = text
            .lines()
            .filter(|l| !l.starts_with("0,"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(text, gutted);
        std::fs::write(&path, gutted).unwrap();
        let err = ResultStore::open(&path, &campaign).unwrap_err();
        assert!(err.contains("trace line without its rows"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_resume_reexecutes_only_the_lost_cell() {
        let campaign = torn_campaign("torn-rerun");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-torn-rerun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ref_path = dir.join("reference.csv");
        let mut ref_store = ResultStore::open(&ref_path, &campaign).unwrap();
        CampaignRunner::serial().run(&campaign, &mut ref_store);
        let ref_csv = std::fs::read_to_string(&ref_path).unwrap();

        // Tear mid-way through the *last* cell's line: the first cell's
        // pair is intact and must be kept, the tail cell re-executes.
        let path = dir.join("torn.csv");
        std::fs::write(&path, &ref_csv.as_bytes()[..ref_csv.len() - 3]).unwrap();
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        assert_eq!(store.len(), 1);
        let resumed = CampaignRunner::serial().run(&campaign, &mut store);
        assert!(resumed.complete);
        assert_eq!(resumed.executed, 1, "only the torn cell re-executes");
        assert_eq!(resumed.resumed, 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_csv);
        assert_eq!(
            std::fs::read_to_string(path.with_extension("json")).unwrap(),
            std::fs::read_to_string(ref_path.with_extension("json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_group_mid_file_is_still_refused() {
        let campaign = torn_campaign("torn-midfile");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-midfile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.csv");
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        CampaignRunner::serial().run(&campaign, &mut store);
        drop(store);

        // Delete the second row of the first cell's pair: the group is
        // short *before* the journal tail, which no kill-during-append
        // can produce — that is corruption and must be refused.
        let text = std::fs::read_to_string(&path).unwrap();
        let gutted: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert_ne!(text, gutted);
        std::fs::write(&path, gutted).unwrap();
        let err = ResultStore::open(&path, &campaign).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_journal_is_refused_but_empty_precreated_file_works() {
        let campaign = tiny_campaign("headerless");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-headerless-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // A pre-created *empty* file still gets a header on first record.
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "").unwrap();
        let mut store = ResultStore::open(&empty, &campaign).unwrap();
        CampaignRunner::serial()
            .with_cell_limit(1)
            .run(&campaign, &mut store);
        drop(store);
        let text = std::fs::read_to_string(&empty).unwrap();
        assert!(text.starts_with("# tuna-campaign"), "{text}");
        assert!(ResultStore::open(&empty, &campaign).is_ok());

        // Data rows with the header stripped cannot be verified against
        // any declaration and must be refused.
        let headerless: String = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        let stripped = dir.join("stripped.csv");
        std::fs::write(&stripped, headerless).unwrap();
        let err = ResultStore::open(&stripped, &campaign).unwrap_err();
        assert!(err.contains("no '# tuna-campaign"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replaces a store's journal file with a directory of the same
    /// name, so every later append fails.
    fn block_journal(path: &Path) {
        std::fs::remove_file(path).unwrap();
        std::fs::create_dir(path).unwrap();
    }

    #[test]
    fn failed_journal_append_is_reported_and_not_kept() {
        let campaign = tiny_campaign("blocked");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-blocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("store.csv");
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        let (first, _) = execute_cell(&campaign, 0, ExecutionMode::Serial);
        store.record(&campaign, first).unwrap();
        block_journal(&path);

        let failures = tuna_obs::global().counter("tuna_store_append_failures_total", "");
        let before = failures.get();
        let (second, _) = execute_cell(&campaign, 1, ExecutionMode::Serial);
        let err = store.record(&campaign, second).unwrap_err();
        assert!(err.contains("cannot append"), "{err}");
        assert!(failures.get() > before, "the failed append is counted");
        assert_eq!(
            store.len(),
            1,
            "memory must not claim a cell the journal lacks"
        );
        assert!(store.get(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_panics_with_the_store_message_on_a_failed_append() {
        let campaign = tiny_campaign("blocked-runner");
        for workers in [1, 2] {
            let dir = std::env::temp_dir().join(format!(
                "tuna-campaign-blocked-runner-{workers}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let path = dir.join("store.csv");
            let mut store = ResultStore::open(&path, &campaign).unwrap();
            CampaignRunner::serial()
                .with_cell_limit(1)
                .run(&campaign, &mut store);
            block_journal(&path);

            let runner = CampaignRunner::with_workers(workers);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.run(&campaign, &mut store)
            }))
            .expect_err("a failed append must not be dropped");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                message.contains("cannot append"),
                "{workers} workers: {message}"
            );
            assert_eq!(store.len(), 1, "{workers} workers");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn json_mirror_escapes_labels() {
        assert_eq!(super::json_quote("plain"), "\"plain\"");
        assert_eq!(super::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(super::json_quote("tab\there"), "\"tab\\there\"");

        let mut campaign = tiny_campaign("json-escape");
        campaign.name = "quoted \"name\"".to_string();
        campaign.runs = 1;
        campaign.arms = vec![Arm::new(
            "p=\"0.5\"",
            Recipe::protocol(Method::DefaultConfig),
        )];
        let mut store = ResultStore::in_memory(&campaign);
        CampaignRunner::serial().run(&campaign, &mut store);
        let json = store.to_json(&campaign);
        assert!(json.contains("\"name\": \"quoted \\\"name\\\"\""), "{json}");
        assert!(json.contains("\"arm\": \"p=\\\"0.5\\\"\""), "{json}");
    }

    #[test]
    fn digest_tracks_ladder_shape() {
        let spec = |eta: usize, min_rung: usize| {
            let mut c = tiny_campaign("ladder");
            c.arms = vec![Arm::new(
                "shape",
                Recipe::SampleBudget(SampleBudgetSpec {
                    cluster: Some(ClusterShape {
                        size: 5,
                        ladder: LadderParams {
                            budgets: vec![1, 2, 5],
                            eta,
                            min_rung_size: min_rung,
                        },
                    }),
                    ..SampleBudgetSpec::new(25, 1, 2, 3)
                }),
            )];
            c
        };
        assert_eq!(spec(3, 3).digest(), spec(3, 3).digest());
        assert_ne!(spec(3, 3).digest(), spec(2, 3).digest());
        assert_ne!(spec(3, 3).digest(), spec(3, 5).digest());
    }

    fn tiny_arena(name: &str) -> Campaign {
        Campaign::arena(
            name,
            9,
            vec![tuna_workloads::tpcc()],
            &["westus2", "centralus"],
            &["tuna", "smac", "gp", "random", "tournament"],
            16,
        )
    }

    #[test]
    fn arena_grid_crosses_regions_and_solvers() {
        let c = tiny_arena("arena-grid");
        assert_eq!(c.n_cells(), 2 * 5);
        assert_eq!(c.arms[0].label, "westus2/tuna");
        assert_eq!(c.arms[9].label, "centralus/tournament");
        // Every (region, solver) pair derives a distinct seed salt.
        let mut salts: Vec<u64> = c
            .arms
            .iter()
            .map(|a| match &a.recipe {
                Recipe::Arena(s) => s.seed_salt(),
                _ => unreachable!(),
            })
            .collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), c.arms.len(), "arena seed salts collide");
        // The digest distinguishes arena declarations.
        let mut other = c.clone();
        other.arms[0] = Arm::new("x", Recipe::Arena(ArenaSpec::new("smac", "eastus", 16)));
        assert_ne!(c.digest(), other.digest());
    }

    #[test]
    #[should_panic(expected = "unknown solver")]
    fn arena_unknown_solver_rejected() {
        ArenaSpec::new("adam", "westus2", 8);
    }

    #[test]
    #[should_panic(expected = "unknown region")]
    fn arena_unknown_region_rejected() {
        ArenaSpec::new("smac", "marsnorth1", 8);
    }

    #[test]
    fn arena_campaign_is_bit_identical_across_worker_counts() {
        let campaign = tiny_arena("arena-workers");
        let mut serial_store = ResultStore::in_memory(&campaign);
        let serial = CampaignRunner::serial().run(&campaign, &mut serial_store);
        assert!(serial.complete);
        assert!(serial
            .cells
            .iter()
            .all(|c| { c.record.rows[0].mean.is_some_and(|m| m.is_finite()) }));
        let mut par_store = ResultStore::in_memory(&campaign);
        let par = CampaignRunner::with_workers(4).run(&campaign, &mut par_store);
        assert_eq!(serial.checksum, par.checksum);
        for (s, p) in serial.cells.iter().zip(&par.cells) {
            assert_eq!(s.record, p.record, "cell {}", s.cell);
        }
    }

    #[test]
    fn convergence_cells_produce_pairs() {
        let mut campaign = tiny_campaign("pairs");
        campaign.arms = vec![Arm::new(
            "TUNA vs naive",
            Recipe::Convergence(ConvergenceSpec {
                samples: 30,
                seed_salt: 700,
                rng_label: 3,
            }),
        )];
        campaign.runs = 1;
        let mut store = ResultStore::in_memory(&campaign);
        let result = CampaignRunner::serial().run(&campaign, &mut store);
        assert!(result.complete);
        let pairs = result.pairs(0, 0).expect("pair payloads");
        assert_eq!(pairs.len(), 1);
        let (tuna, naive) = pairs[0];
        assert!(tuna.total_samples >= 30);
        assert!(naive.total_samples <= 30);
        assert_eq!(result.cells[0].record.rows.len(), 2);
        assert!(result.run_summaries(0, 0).is_none());
    }
}
