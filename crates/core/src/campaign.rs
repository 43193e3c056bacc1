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
//! - **One driver.** [`execute_cell`] lowers every [`Recipe`] to a
//!   [`RunPlan`] and runs it with [`Experiment::execute`], the driver
//!   [`Experiment::run`] uses too. A recipe's historical quirks (which
//!   seed labels it derives, whether it deploys, which solver its TUNA
//!   arm uses) are plan data, not code paths.
//! - **Work-stealing over cells.** The runner reuses the
//!   [`ExecutionMode`] vocabulary but parallelizes at the *cell* level:
//!   whole cells fan out through [`tuna_stats::pool::map`], the same pool
//!   forest fits grow their trees on. A campaign cell runs everything,
//!   forests included, on its one worker thread — the scaling axis is
//!   the grid itself, and results are bit-identical for any worker count.
//! - **A checksummed, resumable [`ResultStore`].** Every finished cell is
//!   appended to a CSV journal with an FNV-1a digest over its rows;
//!   [`ResultStore::finalize`] rewrites the file in cell order and emits a
//!   JSON mirror. Re-running a half-finished campaign skips completed
//!   cells and produces byte-identical files to an uninterrupted run.
//!   A cell may also carry its convergence trace
//!   ([`ResultStore::record_traced`], what the serve daemon records): the
//!   trace rides in the same journal, one line ahead of the cell's rows.
//! - **Only kept results stay in memory.** A cell's rich [`RunSummary`]
//!   (deployment values, convergence trace) is dropped on the worker
//!   that ran it; [`CampaignRunner::run_keeping`] first hands it to the
//!   caller's projection, and [`CampaignResult::kept`] returns what that
//!   kept. [`CampaignRunner::run`] keeps nothing.
//!
//! Every cell is one tune-and-deploy run and journals one row. Studies
//! that read tuning traces only, such as the §6.5.2 and §6.6 convergence
//! figures, build their [`RunPlan`]s and run them directly.
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
use crate::executor::ExecutionMode;
use crate::experiment::{
    ClusterShape, Experiment, Method, RunPlan, RunSummary, SolverId, TunaTweaks, Tuner,
};
use crate::report::MethodSummary;
use tuna_cloudsim::{Region, VmSku};
use tuna_obs::CellTrace;
use tuna_stats::fnv::Checksum;
use tuna_stats::rng::hash_combine;
use tuna_workloads::Workload;

/// Store format version (first CSV header line and JSON `version`).
pub const STORE_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Campaign declaration
// ---------------------------------------------------------------------------

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
    /// Deployment derivation label, used as-is (not combined with the
    /// per-run seed).
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

/// How one arm of the grid evaluates a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Recipe {
    /// The full §6 protocol, lowered to the plan [`Experiment::run`]
    /// executes: tune with `method`, deploy the winner on fresh VMs. The
    /// per-run seed is `hash_combine(campaign.seed, run)`, or
    /// `hash_combine(hash_combine(campaign.seed, salt), run)` when a salt
    /// is pinned.
    Protocol {
        /// Sampling methodology.
        method: Method,
        /// Optional extra seed label (pre-campaign binaries salted
        /// per-arm seeds when mixing protocol and pinned arms).
        seed_salt: Option<u64>,
    },
    /// A pinned sample-budget TUNA pipeline plus deployment; its base
    /// cluster takes the per-run seed itself.
    SampleBudget(SampleBudgetSpec),
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
    pub region: &'static str,
}

impl Campaign {
    /// The paper's deployment site, which [`Campaign::protocol`]
    /// declares: `Standard_D8s_v5` in `westus2`.
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

/// The scalar result row of a cell: every cell produces exactly one.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Row label (the arm label).
    pub label: String,
    /// The derived per-run seed the cell actually used.
    pub seed: u64,
    /// Samples the tuning phase consumed (0 for the default config).
    pub samples: u64,
    /// Best reported tuning value (absent for the default config).
    pub best: Option<f64>,
    /// Deployment mean.
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

/// One cell of a finished campaign.
#[derive(Debug, Clone)]
pub struct CellResult<K = ()> {
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
    /// What the caller's projection kept of the cell's [`RunSummary`];
    /// `None` when the cell was restored from the store.
    pub kept: Option<K>,
}

/// A finished (or truncated) campaign: every cell's durable record, plus
/// whatever [`CampaignRunner::run_keeping`]'s projection kept of the
/// cells executed this run (nothing, `()`, for [`CampaignRunner::run`]).
#[derive(Debug, Clone)]
pub struct CampaignResult<K = ()> {
    /// Campaign declaration digest.
    pub digest: String,
    /// Cells in grid order. Truncated runs (a `cell_limit`) only contain
    /// the cells that have records.
    pub cells: Vec<CellResult<K>>,
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

impl<K> CampaignResult<K> {
    fn find(&self, workload: usize, arm: usize) -> impl Iterator<Item = &CellResult<K>> {
        self.cells
            .iter()
            .filter(move |c| c.workload == workload && c.arm == arm)
    }

    /// What was kept of a cell group, in run order. `None` for an empty
    /// group or one with a cell restored from the store, whose summary
    /// no longer exists.
    pub fn kept(&self, workload: usize, arm: usize) -> Option<Vec<&K>> {
        let kept: Option<Vec<&K>> = self.find(workload, arm).map(|c| c.kept.as_ref()).collect();
        kept.filter(|k| !k.is_empty())
    }

    /// All rows of a cell group, in cell (and therefore run) order.
    pub fn group_rows(&self, workload: usize, arm: usize) -> Vec<&CellRow> {
        self.find(workload, arm)
            .flat_map(|c| c.record.rows.iter())
            .collect()
    }

    /// The [`crate::report::summarize_method`] summary of a cell group,
    /// folded from its rows: they carry each run's deployment mean, std,
    /// min, max and crashes, and serialize floats losslessly, so fresh
    /// and resumed cells print bit-identical tables through this one
    /// path. `None` for an empty group or one without deployment rows.
    pub fn method_summary(&self, workload: usize, arm: usize) -> Option<MethodSummary> {
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
        }
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
    /// unterminated final line, or a final cell group that is a trace
    /// line without its row — is repaired, not refused: the torn group
    /// is dropped whole, trace included (re-executing only that cell on
    /// resume) and the journal is atomically rewritten to its verified
    /// prefix so later appends land on a clean file. Because cells are
    /// pure functions of the declaration, the repaired-and-resumed store
    /// finalizes byte-identically to an uninterrupted run.
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
        };
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            if store.load(&text, campaign)? {
                store.rewrite_journal(campaign)?;
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
        // *last* group can have been torn by a kill: a lone trace line
        // there is a repairable tear, anywhere else it is corruption.
        for cell in traces.keys().filter(|c| !pending.contains_key(c)) {
            if Some(*cell) != tail_cell {
                return Err(format!(
                    "cell {cell}: trace line without its rows (corrupt store)"
                ));
            }
            repaired = true;
        }
        for (cell, (rows, checksum)) in pending {
            // Every cell journals one row, in the same append as its
            // trace line. A kill inside that append leaves at most the
            // trace line (repaired above), so more rows are corruption.
            if rows.len() != 1 {
                return Err(format!(
                    "cell {cell}: {} rows where a cell journals one (corrupt store)",
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
    /// (the same knob that sets a tuning run's forest threads; campaigns
    /// scale across cells instead), or one worker per core when it is
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
    /// the combined result in grid order. Keeps nothing of the cells'
    /// summaries: see [`CampaignRunner::run_keeping`].
    ///
    /// # Panics
    ///
    /// As [`CampaignRunner::run_keeping`].
    pub fn run(&self, campaign: &Campaign, store: &mut ResultStore) -> CampaignResult {
        self.run_keeping(campaign, store, |_, _| ())
    }

    /// [`CampaignRunner::run`], keeping `keep(cell, &summary)` of each
    /// executed cell. `keep` runs on the worker that executed the cell,
    /// right after the cell is recorded, and the summary is dropped
    /// there: a grid holds its records and the kept values, never every
    /// cell's traces at once.
    ///
    /// # Panics
    ///
    /// Panics if a cell's recipe is inconsistent with the grid (e.g. a
    /// ladder that exceeds its cluster), (propagated) if a SuT or `keep`
    /// panics, or with the store's message if a journal append or the
    /// final rewrite of the store files fails.
    pub fn run_keeping<K: Send>(
        &self,
        campaign: &Campaign,
        store: &mut ResultStore,
        keep: impl Fn(usize, &RunSummary) -> K + Sync,
    ) -> CampaignResult<K> {
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
        let mut kept: BTreeMap<usize, K> = tuna_stats::pool::map(
            self.mode.workers(),
            to_run,
            |_| (),
            |_, cell| {
                // Trials inside campaign cells always execute serially: the
                // campaign's scaling axis is the grid, and the executor's
                // serial-equivalence contract makes this numerically
                // irrelevant.
                let (record, summary) = execute_cell(campaign, cell, ExecutionMode::Serial);
                // The guard drops before a failure panics, so the mutex is
                // not poisoned.
                let recorded = shared_store
                    .lock()
                    .expect("store mutex poisoned")
                    .record(campaign, record);
                recorded.unwrap_or_else(|e| panic!("campaign '{}': {e}", campaign.name));
                (cell, keep(cell, &summary))
            },
        )
        .into_iter()
        .collect();
        let executed_count = kept.len();

        store
            .finalize(campaign)
            .unwrap_or_else(|e| panic!("campaign '{}': {e}", campaign.name));

        let mut cells = Vec::with_capacity(store.len());
        for (&cell, record) in &store.records {
            let (workload, arm, run) = campaign.coords(cell);
            cells.push(CellResult {
                cell,
                workload,
                arm,
                run,
                record: record.clone(),
                kept: kept.remove(&cell),
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
) -> (CellRecord, RunSummary) {
    let (w, a, run) = campaign.coords(cell);
    let arm = &campaign.arms[a];
    let exp = campaign.experiment(w, inner);
    // Each recipe lowers to (per-run seed, RunSummary method label, run
    // plan).
    let (seed, method, plan) = match &arm.recipe {
        Recipe::Protocol { method, seed_salt } => {
            let base = match seed_salt {
                None => campaign.seed,
                Some(salt) => hash_combine(campaign.seed, *salt),
            };
            let seed = hash_combine(base, run as u64);
            (seed, method.name(), exp.plan(*method, seed))
        }
        Recipe::SampleBudget(spec) => {
            let seed = hash_combine(campaign.seed, spec.seed_salt + run as u64);
            let tuner = Tuner::Tuna {
                tweaks: TunaTweaks {
                    aggregation: spec.aggregation,
                    outlier_threshold: spec.outlier_threshold,
                    ..TunaTweaks::default()
                },
                solver: exp.optimizer.clone(),
                samples: spec.samples,
            };
            let plan = RunPlan {
                cluster: spec.cluster.clone(),
                ..RunPlan::new(
                    seed,
                    hash_combine(seed, spec.rng_label),
                    Some(spec.deploy_label),
                    vec![tuner],
                )
            };
            (seed, "campaign", plan)
        }
    };

    let summary = exp.execute(&plan).into_summary(method);
    let rows = vec![CellRow::of_summary(&arm.label, seed, &summary)];
    (CellRecord::new(cell, rows), summary)
}

/// Extracts the convergence trace of a freshly executed cell: the
/// tuner's best-cost-so-far series, or none for non-tuning arms such as
/// a static default config. The serve layer records it with the cell's
/// row ([`ResultStore::record_traced`]) — the summary only exists in
/// memory at completion time.
///
/// # Panics
///
/// Panics if `cell` is out of range for `campaign`.
pub fn cell_trace(campaign: &Campaign, cell: usize, summary: &RunSummary) -> CellTrace {
    let (w, a, run) = campaign.coords(cell);
    let arms = summary.tuning.iter().map(|t| tuna_obs::ArmTrace {
        label: summary.method.to_string(),
        series: t
            .trace
            .iter()
            .filter_map(|ir| ir.best_so_far.map(|b| (ir.round as u64, b)))
            .collect(),
    });
    CellTrace {
        cell: cell as u64,
        workload: campaign.workloads[w].name.to_string(),
        arm: campaign.arms[a].label.clone(),
        run: run as u64,
        arms: arms.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_optimizer::multifidelity::LadderParams;

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
        let result = CampaignRunner::serial()
            .run_keeping(&campaign, &mut store, |_, summary| summary.clone());
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
        let summaries = result.kept(0, 0).expect("freshly executed");
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
        assert!(replay.cells.iter().all(|c| c.kept.is_none()));
        // ...and prints the same tables as the fresh run.
        for arm in 0..campaign.arms.len() {
            let fresh = reference.method_summary(0, arm);
            assert!(fresh.is_some(), "arm {arm}");
            assert_eq!(replay.method_summary(0, arm), fresh, "arm {arm}");
        }
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

    /// A two-cell campaign: a TUNA cell, whose traced group is a trace
    /// line plus its row, and a default-config cell — so torn tails can
    /// land mid-group, not just mid-line.
    fn torn_campaign(name: &str) -> Campaign {
        let mut campaign = tiny_campaign(name);
        campaign.arms = vec![
            Arm::new("TUNA", Recipe::protocol(Method::Tuna)),
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
                let (record, summary) = execute_cell(&campaign, c, ExecutionMode::Serial);
                let trace = cell_trace(&campaign, c, &summary);
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
            let (record, summary) = execute_cell(&campaign, c, ExecutionMode::Serial);
            let trace = cell_trace(&campaign, c, &summary);
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
        // row is intact and must be kept, the tail cell re-executes.
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
    fn overfull_group_mid_file_is_refused() {
        let campaign = torn_campaign("torn-midfile");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-midfile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign.csv");
        let mut store = ResultStore::open(&path, &campaign).unwrap();
        CampaignRunner::serial().run(&campaign, &mut store);
        drop(store);

        // Duplicate the first cell's row: a group of two rows *before*
        // the journal tail, which no kill-during-append can produce —
        // that is corruption and must be refused, although both rows
        // carry the right checksum.
        let text = std::fs::read_to_string(&path).unwrap();
        let doubled: String = text
            .lines()
            .flat_map(|l| {
                if l.starts_with("0,") {
                    vec![l, l]
                } else {
                    vec![l]
                }
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(doubled.lines().count(), text.lines().count() + 1);
        std::fs::write(&path, doubled).unwrap();
        let err = ResultStore::open(&path, &campaign).unwrap_err();
        assert!(err.contains("cell 0: 2 rows"), "{err}");
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
    fn runner_panics_with_the_store_message_on_a_failed_finalize() {
        let campaign = tiny_campaign("blocked-finalize");
        let dir =
            std::env::temp_dir().join(format!("tuna-campaign-finalize-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(dir.join("store.csv"), &campaign).unwrap();
        let json = store.json_path().unwrap();
        std::fs::create_dir(&json).unwrap();

        let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CampaignRunner::serial().run(&campaign, &mut store)
        })) else {
            panic!("a failed finalize must not be dropped");
        };
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("blocked-finalize") && message.contains(&json.display().to_string()),
            "{message}"
        );
        let _ = std::fs::remove_dir_all(&dir);
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

    /// One arm of every recipe kind: Protocol for every [`Method`], and
    /// SampleBudget plain and with each override. The campaign tunes
    /// with `gp`.
    fn recipe_pin_campaign() -> Campaign {
        let budget = || SampleBudgetSpec::new(60, 100, 2, 3);
        let arms = vec![
            Arm::new("tuna", Recipe::protocol(Method::Tuna)),
            Arm::new("no-outlier", Recipe::protocol(Method::TunaNoOutlier)),
            Arm::new("no-adjuster", Recipe::protocol(Method::TunaNoAdjuster)),
            Arm::new("traditional", Recipe::protocol(Method::Traditional)),
            Arm::new(
                "extended",
                Recipe::protocol(Method::TraditionalExtended { samples: 12 }),
            ),
            Arm::new(
                "naive",
                Recipe::Protocol {
                    method: Method::NaiveDistributed { samples: 40 },
                    seed_salt: Some(11),
                },
            ),
            Arm::new("default", Recipe::protocol(Method::DefaultConfig)),
            Arm::new("budget", Recipe::SampleBudget(budget())),
            Arm::new(
                "budget-mean",
                Recipe::SampleBudget(SampleBudgetSpec {
                    aggregation: Some(AggregationPolicy::Mean),
                    ..budget()
                }),
            ),
            Arm::new(
                "budget-threshold",
                Recipe::SampleBudget(SampleBudgetSpec {
                    outlier_threshold: Some(0.05),
                    ..budget()
                }),
            ),
            Arm::new(
                "budget-shape",
                Recipe::SampleBudget(SampleBudgetSpec {
                    cluster: Some(ClusterShape {
                        size: 5,
                        ladder: LadderParams {
                            budgets: vec![1, 2, 5],
                            eta: 3,
                            min_rung_size: 3,
                        },
                    }),
                    ..budget()
                }),
            ),
        ];
        Campaign {
            arms,
            ..tiny_campaign("recipe-pin")
        }
        .with_runs(1)
        .with_rounds(8)
        .with_optimizer(SolverId::new("gp").unwrap())
    }

    /// Pins every recipe's seed labels and tuner wiring: the campaign
    /// checksum covers each cell's rows, and the trace labels and digest
    /// cover each tuner's convergence series.
    #[test]
    fn every_recipe_kind_reproduces_its_pinned_results() {
        let campaign = recipe_pin_campaign();
        let mut store = ResultStore::in_memory(&campaign);
        let result =
            CampaignRunner::serial().run_keeping(&campaign, &mut store, |cell, summary| {
                cell_trace(&campaign, cell, summary)
            });
        assert!(result.complete);
        let mut series = Checksum::new();
        let labels: Vec<Vec<String>> = result
            .cells
            .iter()
            .map(|c| {
                let trace = c.kept.as_ref().expect("freshly executed");
                trace
                    .arms
                    .iter()
                    .map(|arm| {
                        for (round, best) in &arm.series {
                            series.push_u64(*round);
                            series.push_f64(*best);
                        }
                        arm.label.clone()
                    })
                    .collect()
            })
            .collect();
        assert_eq!(result.checksum, "72376ae7591ca1a0");
        assert_eq!(series.value(), 0xc7bc_87e2_f8dc_46e5);
        let want: Vec<Vec<&str>> = vec![
            vec!["TUNA"],
            vec!["TUNA w/o outlier detector"],
            vec!["TUNA w/o noise adjuster"],
            vec!["Traditional"],
            vec!["Traditional (equal cost)"],
            vec!["Naive distributed"],
            vec![],
            vec!["campaign"],
            vec!["campaign"],
            vec!["campaign"],
            vec!["campaign"],
        ];
        assert_eq!(labels, want);
    }

    #[test]
    fn run_keeping_returns_kept_values_in_cell_order_and_none_for_resumed_groups() {
        let campaign = tiny_campaign("keeping");
        let keep = |cell: usize, summary: &RunSummary| (cell, summary.deployment.mean);
        let mut store = ResultStore::in_memory(&campaign);
        // Cell 0 (group (0, 0)) is recorded by a first, truncated run.
        let first = CampaignRunner::serial()
            .with_cell_limit(1)
            .run_keeping(&campaign, &mut store, keep);
        assert_eq!(first.executed, 1);
        let result = CampaignRunner::with_workers(2).run_keeping(&campaign, &mut store, keep);
        assert!(result.complete);
        assert_eq!((result.executed, result.resumed), (3, 1));
        let cells: Vec<Option<usize>> = result
            .cells
            .iter()
            .map(|c| c.kept.map(|(cell, _)| cell))
            .collect();
        assert_eq!(cells, [None, Some(1), Some(2), Some(3)]);
        // The group with the resumed cell has nothing to offer; the fresh
        // group keeps its values in run order, each its row's mean.
        assert!(result.kept(0, 0).is_none());
        let fresh = result.kept(0, 1).expect("freshly executed");
        let group: Vec<&CellResult<_>> = result.find(0, 1).collect();
        assert_eq!(fresh.len(), 2);
        for (run, (&&(cell, mean), c)) in fresh.iter().zip(group).enumerate() {
            assert_eq!((cell, c.run), (c.cell, run));
            assert_eq!(Some(mean), c.record.rows[0].mean);
        }
        assert!(result.kept(1, 0).is_none(), "an empty group keeps nothing");
    }
}
