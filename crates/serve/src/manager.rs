//! The multi-tenant, multi-study scheduler: many tenants' noisy
//! studies competing for shared trial capacity.
//!
//! A [`StudyManager`] owns every study the daemon has accepted, keyed
//! by `(tenant, name)` — tenant namespaces are real: two tenants can
//! both run a study called `nightly` without colliding on the wire or
//! on disk. Each study is a [`Campaign`] (rebuilt from its persisted
//! [`StudySpec`]) plus a [`ResultStore`]; the manager hands out *cells*
//! — the campaign grid's unit of work — to whatever worker pool drives
//! it (the daemon's threads, or the loopback simulator's deterministic
//! step loop).
//!
//! # Weighted fair share
//!
//! [`StudyManager::next_assignment`] schedules in two deterministic
//! stages:
//!
//! 1. **Across tenants** — weighted deficit sharing. Each active tenant
//!    carries a `scheduled` counter (cells granted since it last went
//!    idle); the tenant minimizing the virtual time `scheduled/weight`
//!    is served next (compared exactly by cross-multiplication, ties by
//!    least-recently-scheduled then name). A weight-3 tenant therefore
//!    receives 3 cells for every 1 a weight-1 tenant gets, at cell
//!    granularity. A tenant entering the active set starts at the
//!    current minimum virtual time (scaled to its weight), so a
//!    latecomer gets its fair share *from now on* without starving
//!    everyone to "catch up".
//! 2. **Within a tenant** — the pre-tenant policy: fewest in-flight
//!    cells, then least recently scheduled, then name. A manager with
//!    only the default tenant (loopback mode) therefore schedules
//!    exactly like the pre-tenant fair-share manager.
//!
//! Two refinements sit on top: a per-study worker cap
//! ([`StudySpec::max_workers`]) bounds one study's concurrency, and the
//! `interactive` lane ([`Lane::Interactive`]) preempts batch work at
//! cell boundaries — while any interactive study has schedulable cells,
//! no batch cell is handed out (running batch cells always finish; a
//! cell is never aborted).
//!
//! The whole policy is a pure function of manager state under a total
//! order, so a fixed submission sequence schedules bit-identically at
//! any worker count — the determinism bar every serve suite pins.
//!
//! # Admission control and accounting
//!
//! [`StudyManager::submit`] enforces the tenant's budgets from the
//! [`TenantRegistry`] — max concurrently running studies and max
//! outstanding cells — refusing with a structured `429` [`Refusal`].
//! Per-tenant [`TenantUsage`] counters (studies accepted, cells
//! executed, wall-ns charged) persist atomically to
//! `tenant_usage.json` in the data directory and survive kill/restart
//! byte-identically.
//!
//! # Durability
//!
//! Every accepted study persists `<name>.spec.json` (the canonical
//! submission, written first, atomic) and one journal, `<name>.csv`:
//! the streaming [`ResultStore`], where each completed cell is a
//! single append of its convergence-trace line and its rows. Two more
//! files appear later: the `<name>.json` results mirror once the study
//! is done, and a `<name>.cancelled` marker if it is cancelled. They
//! sit at the top level for the default tenant (unchanged from the
//! pre-tenant layout), under `<data_dir>/<tenant>/` for named tenants.
//! A killed daemon reloads everything on start: finished cells are
//! skipped, in-flight-at-kill cells simply run again — cells are pure
//! functions of the declaration, so the resumed study's results and
//! trace are byte-identical to an uninterrupted run. A `<name>.trace`
//! sidecar left by the older two-journal layout is folded into the
//! journal on load and removed.
//!
//! # Examples
//!
//! ```
//! use tuna_serve::api::StudySpec;
//! use tuna_serve::manager::StudyManager;
//! use tuna_serve::tenant::{TenantRegistry, DEFAULT_TENANT};
//! use tuna_core::campaign::execute_cell;
//! use tuna_core::executor::ExecutionMode;
//!
//! let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
//! let spec = StudySpec::parse(
//!     r#"{"name": "demo", "runs": 2, "rounds": 2, "workloads": ["tpcc"],
//!         "arms": [{"label": "Default", "method": "default"}]}"#,
//! ).unwrap();
//! mgr.submit(spec).unwrap();
//! while let Some(a) = mgr.next_assignment() {
//!     let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
//!     mgr.complete_traced(&a.tenant, &a.study, record, 0, None).unwrap();
//! }
//! let study = mgr.get(DEFAULT_TENANT, "demo").unwrap();
//! assert_eq!(study.completed(), 2);
//! assert_eq!(mgr.usage(DEFAULT_TENANT).unwrap().cells, 2);
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::api::{Lane, StudySpec};
use crate::tenant::{self, TenantRegistry, TenantUsage, DEFAULT_TENANT};
use tuna_core::campaign::{write_atomic, Campaign, CellRecord, ResultStore};
use tuna_obs::{
    CellTrace, Clock, EventKind, Journal, MetricsRegistry, SpanId, StudyTrace, TickClock,
};

/// File (under the data dir) holding the persisted per-tenant usage
/// counters.
pub const USAGE_FILE: &str = "tenant_usage.json";

/// Lifecycle state of a study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyPhase {
    /// Accepted; cells remain to schedule or finish.
    Running,
    /// Every cell has a record and the store is finalized.
    Done,
    /// Cancelled by a client; pending cells will not be scheduled.
    Cancelled,
}

impl StudyPhase {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            StudyPhase::Running => "running",
            StudyPhase::Done => "done",
            StudyPhase::Cancelled => "cancelled",
        }
    }
}

/// A structured scheduler refusal: HTTP status, machine-readable
/// reason slug, human-readable message — what `POST /v1/studies`
/// serializes as `{"error": {"status", "reason", "message"}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// HTTP status (403, 409, 429, 500).
    pub status: u16,
    /// Stable reason slug clients branch on: `unknown-tenant`,
    /// `conflict`, `study-budget`, `cell-budget`, `persistence`.
    pub reason: &'static str,
    /// Client-facing detail.
    pub message: String,
}

impl Refusal {
    fn new(status: u16, reason: &'static str, message: impl Into<String>) -> Self {
        Refusal {
            status,
            reason,
            message: message.into(),
        }
    }
}

/// One study under management.
#[derive(Debug)]
pub struct Study {
    /// The validated, persisted submission (its `tenant` is always
    /// `Some` once under management).
    pub spec: StudySpec,
    /// The campaign the spec declares (shared with in-flight
    /// [`Assignment`]s, so handing out work never deep-copies the
    /// declaration).
    pub campaign: Arc<Campaign>,
    store: ResultStore,
    /// Cells not yet scheduled, ascending.
    pending: VecDeque<usize>,
    /// Cells handed to a worker and not yet completed.
    in_flight: Vec<usize>,
    cancelled: bool,
    /// Scheduler clock value of the last assignment from this study.
    last_scheduled: u64,
    /// The study's span in the manager's journal.
    span: SpanId,
    /// Open spans of in-flight cells, by cell index.
    cell_spans: BTreeMap<usize, SpanId>,
}

impl Study {
    fn new(
        spec: StudySpec,
        campaign: Arc<Campaign>,
        store: ResultStore,
        cancelled: bool,
        span: SpanId,
    ) -> Self {
        let pending = if cancelled {
            VecDeque::new()
        } else {
            (0..campaign.n_cells())
                .filter(|i| store.get(*i).is_none())
                .collect()
        };
        Study {
            spec,
            campaign,
            store,
            pending,
            in_flight: Vec::new(),
            cancelled,
            last_scheduled: 0,
            span,
            cell_spans: BTreeMap::new(),
        }
    }

    /// The tenant namespace this study belongs to.
    pub fn tenant(&self) -> &str {
        self.spec.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> StudyPhase {
        if self.cancelled {
            StudyPhase::Cancelled
        } else if self.store.len() == self.campaign.n_cells() {
            StudyPhase::Done
        } else {
            StudyPhase::Running
        }
    }

    /// Completed cells.
    pub fn completed(&self) -> usize {
        self.store.len()
    }

    /// Cells currently executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether this study can take another worker right now.
    fn schedulable(&self) -> bool {
        !self.cancelled
            && !self.pending.is_empty()
            && (self.spec.max_workers == 0 || self.in_flight.len() < self.spec.max_workers)
    }

    /// Status document (one line of `GET /v1/studies`, the whole body of
    /// `GET /v1/studies/<name>`). Default-tenant batch studies keep the
    /// exact pre-tenant bytes; non-default fields are additive.
    pub fn status_json(&self) -> String {
        let mut extra = String::new();
        if self.tenant() != DEFAULT_TENANT {
            extra.push_str(&format!(
                "\"tenant\": {}, ",
                tuna_stats::json::quote(self.tenant())
            ));
        }
        if self.spec.lane != Lane::Batch {
            extra.push_str(&format!("\"lane\": \"{}\", ", self.spec.lane.label()));
        }
        format!(
            "{{\"name\": {}, {extra}\"state\": \"{}\", \"cells\": {}, \"completed\": {}, \
             \"in_flight\": {}, \"digest\": \"{}\"}}",
            tuna_stats::json::quote(&self.spec.name),
            self.phase().label(),
            self.campaign.n_cells(),
            self.completed(),
            self.in_flight(),
            self.campaign.digest(),
        )
    }
}

/// Per-tenant scheduler state: the weighted-deficit counters plus the
/// usage meter.
#[derive(Debug)]
struct TenantSched {
    weight: u64,
    /// Cells granted since the tenant last became active — the
    /// numerator of its virtual time `scheduled/weight`.
    scheduled: u64,
    /// Scheduler clock value of the tenant's last grant.
    last_scheduled: u64,
    /// In the active set (has schedulable or in-flight work).
    active: bool,
    usage: TenantUsage,
}

impl TenantSched {
    fn new(weight: u64) -> Self {
        TenantSched {
            weight: weight.max(1),
            scheduled: 0,
            last_scheduled: 0,
            active: false,
            usage: TenantUsage::default(),
        }
    }
}

/// Exact comparison of two virtual times `sched/weight` by
/// cross-multiplication (u128: cannot overflow for u64 operands).
fn vtime_cmp(a: (u64, u64), b: (u64, u64)) -> Ordering {
    (a.0 as u128 * b.1 as u128).cmp(&(b.0 as u128 * a.1 as u128))
}

/// Folds a `<name>.trace` sidecar, where traces lived before they rode
/// in the result journal, into `store` and removes it. Only complete
/// lines count, the first per cell wins, and only cells the journal
/// holds keep one: the old layout wrote the sidecar first, so a kill
/// could leave a line for a cell that re-runs and traces itself.
fn fold_sidecar(path: &Path, store: &mut ResultStore, campaign: &Campaign) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let complete = text.rfind('\n').map_or("", |i| &text[..i]);
    let traces = complete
        .lines()
        .filter_map(|line| CellTrace::parse_line(line).ok());
    store.adopt_traces(campaign, traces)?;
    std::fs::remove_file(path).map_err(|e| format!("cannot remove {}: {e}", path.display()))
}

/// The manager's observability rig: a deterministic tick clock (kept
/// in lockstep with the scheduler clock), the span/event journal, the
/// manager-owned metrics registry, and cached handles for the hot
/// paths. Purely a side channel — nothing here feeds back into
/// scheduling decisions.
struct Obs {
    registry: MetricsRegistry,
    tick: Arc<TickClock>,
    journal: Journal,
    assigned: tuna_obs::Counter,
    completed: tuna_obs::Counter,
    preempted: tuna_obs::Counter,
    studies_gauge: tuna_obs::Gauge,
}

impl Obs {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let tick = TickClock::shared();
        let journal = Journal::new(tick.clone() as Arc<dyn Clock>);
        let assigned = registry.counter("tuna_cells_assigned_total", "cells handed to workers");
        let completed = registry.counter("tuna_cells_completed_total", "cell results recorded");
        let preempted = registry.counter(
            "tuna_preempted_total",
            "batch candidates deferred at a cell boundary by interactive work",
        );
        let studies_gauge = registry.gauge("tuna_studies", "studies under management");
        Obs {
            registry,
            tick,
            journal,
            assigned,
            completed,
            preempted,
            studies_gauge,
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").finish_non_exhaustive()
    }
}

/// The study registry plus the weighted fair-share scheduler.
#[derive(Debug)]
pub struct StudyManager {
    data_dir: Option<PathBuf>,
    registry: TenantRegistry,
    studies: BTreeMap<(String, String), Study>,
    tenants: BTreeMap<String, TenantSched>,
    /// Monotonic scheduling clock for least-recently-scheduled ties.
    clock: u64,
    obs: Obs,
}

/// An assignment handed to a worker: which tenant's study, which cell,
/// and the declaration to execute it against (an `Arc` share, so
/// execution runs outside the manager's lock without copying the
/// declaration).
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Tenant namespace.
    pub tenant: String,
    /// Study name within the tenant.
    pub study: String,
    /// Cell index within the study's campaign grid.
    pub cell: usize,
    /// The study's campaign declaration.
    pub campaign: Arc<Campaign>,
}

impl StudyManager {
    /// A manager over `registry`'s tenant table (pass
    /// [`TenantRegistry::loopback`] for the single default tenant),
    /// fully in memory when `data_dir` is `None`. With a data directory
    /// it is created if absent and every persisted study is reloaded:
    /// top-level `<name>.spec.json` files are the default tenant's,
    /// each `<tenant>/` subdirectory holds that tenant's. Stores
    /// resume, so finished cells are not re-run; persisted usage
    /// counters reload from [`USAGE_FILE`]. A tenant found on disk but
    /// absent from the table keeps its studies (at weight 1) — a
    /// daemon must not silently drop studies it accepted.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created or a
    /// persisted spec/store/usage file fails to load or verify.
    pub fn new(data_dir: Option<PathBuf>, registry: TenantRegistry) -> Result<Self, String> {
        let mut mgr = StudyManager {
            data_dir: data_dir.clone(),
            registry,
            studies: BTreeMap::new(),
            tenants: BTreeMap::new(),
            clock: 0,
            obs: Obs::new(),
        };
        mgr.seed_registry_tenants();
        let Some(data_dir) = data_dir else {
            return Ok(mgr);
        };
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| format!("cannot create data dir {}: {e}", data_dir.display()))?;

        let usage_path = data_dir.join(USAGE_FILE);
        if usage_path.exists() {
            let text = std::fs::read_to_string(&usage_path)
                .map_err(|e| format!("cannot read {}: {e}", usage_path.display()))?;
            let table =
                tenant::parse_usage(&text).map_err(|e| format!("{}: {e}", usage_path.display()))?;
            for (name, usage) in table {
                mgr.ensure_tenant(&name);
                mgr.tenants.get_mut(&name).expect("just ensured").usage = usage;
            }
        }

        let entries: Vec<PathBuf> = std::fs::read_dir(&data_dir)
            .map_err(|e| format!("cannot read data dir {}: {e}", data_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();

        // Top-level specs: the default tenant's namespace (the
        // pre-tenant on-disk layout, loaded unchanged).
        let mut spec_paths: Vec<&PathBuf> = entries
            .iter()
            .filter(|p| p.is_file() && is_spec_path(p))
            .collect();
        spec_paths.sort();
        for path in spec_paths {
            let spec = read_spec(path)?;
            if let Some(t) = spec.tenant.as_deref() {
                if t != DEFAULT_TENANT {
                    return Err(format!(
                        "persisted spec {} declares tenant '{t}' but lives in the default namespace",
                        path.display()
                    ));
                }
            }
            mgr.attach(spec)?;
        }

        // Tenant subdirectories.
        let mut tenant_dirs: Vec<&PathBuf> = entries
            .iter()
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(crate::api::valid_name)
            })
            .collect();
        tenant_dirs.sort();
        for dir in tenant_dirs {
            let tenant = dir
                .file_name()
                .and_then(|n| n.to_str())
                .expect("validated above")
                .to_string();
            let mut spec_paths: Vec<PathBuf> = std::fs::read_dir(dir)
                .map_err(|e| format!("cannot read tenant dir {}: {e}", dir.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.is_file() && is_spec_path(p))
                .collect();
            spec_paths.sort();
            for path in spec_paths {
                let mut spec = read_spec(&path)?;
                match spec.tenant.as_deref() {
                    None => spec.tenant = Some(tenant.clone()),
                    Some(t) if t == tenant => {}
                    Some(t) => {
                        return Err(format!(
                            "persisted spec {} declares tenant '{t}' but lives under '{tenant}/'",
                            path.display()
                        ))
                    }
                }
                mgr.attach(spec)?;
            }
        }
        Ok(mgr)
    }

    fn seed_registry_tenants(&mut self) {
        let seeds: Vec<(String, u64)> = self
            .registry
            .tenants()
            .map(|t| (t.name.clone(), t.weight))
            .collect();
        for (name, weight) in seeds {
            self.tenants.insert(name.clone(), TenantSched::new(weight));
        }
    }

    /// Registers scheduler state for a tenant if absent (weight from
    /// the registry, or 1 for disk-discovered tenants).
    fn ensure_tenant(&mut self, tenant: &str) {
        if !self.tenants.contains_key(tenant) {
            let weight = self.registry.get(tenant).map(|t| t.weight).unwrap_or(1);
            self.tenants
                .insert(tenant.to_string(), TenantSched::new(weight));
        }
    }

    /// The directory a tenant's files live in: the data dir itself for
    /// the default tenant (pre-tenant layout), a subdirectory otherwise.
    fn tenant_dir(&self, tenant: &str) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|d| {
            if tenant == DEFAULT_TENANT {
                d.clone()
            } else {
                d.join(tenant)
            }
        })
    }

    fn spec_path(&self, tenant: &str, name: &str) -> Option<PathBuf> {
        self.tenant_dir(tenant)
            .map(|d| d.join(format!("{name}.spec.json")))
    }

    fn store_path(&self, tenant: &str, name: &str) -> Option<PathBuf> {
        self.tenant_dir(tenant)
            .map(|d| d.join(format!("{name}.csv")))
    }

    fn cancel_marker_path(&self, tenant: &str, name: &str) -> Option<PathBuf> {
        self.tenant_dir(tenant)
            .map(|d| d.join(format!("{name}.cancelled")))
    }

    /// Writes the usage table atomically (no-op in memory; the file is
    /// not created until some counter is nonzero, and an unchanged
    /// table rewrites byte-identically — canonical serialization).
    fn persist_usage(&self) -> Result<(), String> {
        let Some(dir) = &self.data_dir else {
            return Ok(());
        };
        let table: BTreeMap<String, TenantUsage> = self
            .tenants
            .iter()
            .map(|(n, t)| (n.clone(), t.usage))
            .collect();
        if table.values().all(TenantUsage::is_zero) {
            return Ok(());
        }
        write_atomic(&dir.join(USAGE_FILE), &tenant::usage_to_json(&table))
    }

    /// Loads a study into the registry (store resumed from disk when
    /// persistent). Does not write the spec file.
    fn attach(&mut self, mut spec: StudySpec) -> Result<&Study, String> {
        // The default tenant stays implicit (`None`) so a loopback
        // spec's canonical bytes are exactly the pre-tenant ones.
        if spec.tenant.as_deref() == Some(DEFAULT_TENANT) {
            spec.tenant = None;
        }
        let tenant = spec
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        self.ensure_tenant(&tenant);
        let campaign = Arc::new(spec.to_campaign());
        let store = match self.store_path(&tenant, &spec.name) {
            None => ResultStore::in_memory(&campaign),
            Some(path) => ResultStore::open(&path, &campaign)
                .and_then(|mut store| {
                    fold_sidecar(&path.with_extension("trace"), &mut store, &campaign)?;
                    Ok(store)
                })
                .map_err(|e| format!("study '{}': {e}", spec.name))?,
        };
        // A persisted cancellation survives restarts: the cancelled
        // study must not silently resume consuming the pool.
        let cancelled = self
            .cancel_marker_path(&tenant, &spec.name)
            .is_some_and(|p| p.exists());
        // A kill can land between the final cell's journal append and
        // finalize; re-finalize complete stores here (idempotent) so
        // the on-disk mirror always exists for a `done` study.
        if store.len() == campaign.n_cells() {
            store
                .finalize(&campaign)
                .map_err(|e| format!("study '{}': finalize on attach failed: {e}", spec.name))?;
        }
        if store.repaired() {
            self.obs.journal.event(
                None,
                EventKind::JournalRepaired,
                &format!("{}: result journal tail dropped", spec.name),
            );
        }

        let span = self
            .obs
            .journal
            .begin_span(None, &format!("study:{}", spec.name));
        let key = (tenant, spec.name.clone());
        let study = Study::new(spec, campaign, store, cancelled, span);
        self.studies.insert(key.clone(), study);
        self.obs.studies_gauge.set(self.studies.len() as u64);
        Ok(self.studies.get(&key).expect("just inserted"))
    }

    /// Accepts a submission: admission control, then
    /// attach-or-report-existing as one atomic step under the manager
    /// (and therefore the caller's lock). The spec's tenant must be the
    /// authenticated tenant (the router fills it in; `None` means the
    /// default tenant). Re-submitting a byte-identical declaration is
    /// idempotent — the existing study comes back with
    /// `created = false`; a different declaration under an existing
    /// `(tenant, name)` is refused. Because the existence check and
    /// the attach happen inside this single `&mut self` call, two
    /// racing identical submissions get exactly one `created = true`
    /// between them.
    ///
    /// # Errors
    ///
    /// A structured [`Refusal`]: `403 unknown-tenant`, `409 conflict`,
    /// `429 study-budget` / `429 cell-budget` (admission), `500
    /// persistence`.
    pub fn submit(&mut self, mut spec: StudySpec) -> Result<(&Study, bool), Refusal> {
        // The default tenant stays implicit (`None`) so a loopback
        // spec's canonical bytes are exactly the pre-tenant ones.
        if spec.tenant.as_deref() == Some(DEFAULT_TENANT) {
            spec.tenant = None;
        }
        let tenant = spec
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        if !self.tenants.contains_key(&tenant) && self.registry.get(&tenant).is_none() {
            return Err(self.refused(Refusal::new(
                403,
                "unknown-tenant",
                format!("unknown tenant '{tenant}'"),
            )));
        }

        let key = (tenant.clone(), spec.name.clone());
        if let Some(existing) = self.studies.get(&key) {
            return if existing.spec == spec {
                Ok((self.studies.get(&key).expect("present"), false))
            } else {
                Err(self.refused(Refusal::new(
                    409,
                    "conflict",
                    format!(
                        "study '{}' already exists with a different declaration",
                        spec.name
                    ),
                )))
            };
        }

        // Admission control against the tenant table's budgets.
        if let Some(t) = self.registry.get(&tenant) {
            if let Some(max) = t.max_studies {
                let running = self.running_studies(&tenant) as u64;
                if running >= max {
                    return Err(self.refused(Refusal::new(
                        429,
                        "study-budget",
                        format!(
                            "tenant '{tenant}' already runs {running} of {max} allowed concurrent studies"
                        ),
                    )));
                }
            }
            if let Some(max) = t.max_cells {
                let outstanding = self.outstanding_cells(&tenant);
                let declared = spec.n_cells() as u64;
                if outstanding + declared > max {
                    return Err(self.refused(Refusal::new(
                        429,
                        "cell-budget",
                        format!(
                            "study declares {declared} cells but tenant '{tenant}' has \
                             {outstanding} outstanding of a {max}-cell budget"
                        ),
                    )));
                }
            }
        }

        // Attach (and therefore validate against any pre-existing store)
        // *before* persisting the spec: a spec file without a loadable
        // study would make every future daemon start fail.
        if tenant != DEFAULT_TENANT {
            if let Some(dir) = self.tenant_dir(&tenant) {
                std::fs::create_dir_all(&dir).map_err(|e| {
                    Refusal::new(
                        500,
                        "persistence",
                        format!("cannot create tenant dir {}: {e}", dir.display()),
                    )
                })?;
            }
        }
        let name = spec.name.clone();
        let spec_json = spec.to_json();
        self.attach(spec)
            .map_err(|e| Refusal::new(500, "persistence", e))?;
        if let Some(path) = self.spec_path(&tenant, &name) {
            if let Err(e) = write_atomic(&path, &spec_json) {
                self.studies.remove(&key);
                return Err(Refusal::new(500, "persistence", e));
            }
        }
        // Accounting: a created study charges the tenant's meter.
        self.tenants
            .get_mut(&tenant)
            .expect("ensured by attach")
            .usage
            .studies += 1;
        self.persist_usage()
            .map_err(|e| Refusal::new(500, "persistence", e))?;
        Ok((self.studies.get(&key).expect("just attached"), true))
    }

    /// Records a refusal in the journal and the per-reason counter,
    /// then hands it back unchanged (used as `Err(self.refused(..))`).
    fn refused(&self, r: Refusal) -> Refusal {
        self.obs.journal.event(
            None,
            EventKind::AdmissionRefused,
            &format!("{} {}", r.status, r.reason),
        );
        self.obs
            .registry
            .counter(
                &format!("tuna_admission_refused_total{{reason=\"{}\"}}", r.reason),
                "submissions refused by admission control, by reason",
            )
            .inc();
        r
    }

    /// Records a connection-engine shed (408/429/503) in the journal.
    /// Other statuses (framing errors) are not shed events and are
    /// ignored. The per-class counters live in the engine itself; this
    /// hook exists so the discrete events land in the same journal as
    /// scheduling, with the same clock.
    pub fn note_shed(&self, status: u16) {
        let kind = match status {
            408 => EventKind::Shed408,
            429 => EventKind::Shed429,
            503 => EventKind::Shed503,
            _ => return,
        };
        self.obs
            .journal
            .event(None, kind, &format!("status={status}"));
    }

    /// Running studies of a tenant.
    fn running_studies(&self, tenant: &str) -> usize {
        self.studies
            .iter()
            .filter(|((t, _), s)| t == tenant && s.phase() == StudyPhase::Running)
            .count()
    }

    /// Outstanding (declared minus completed) cells across a tenant's
    /// running studies — what the cell budget meters.
    fn outstanding_cells(&self, tenant: &str) -> u64 {
        self.studies
            .iter()
            .filter(|((t, _), s)| t == tenant && s.phase() == StudyPhase::Running)
            .map(|(_, s)| (s.campaign.n_cells() - s.store.len()) as u64)
            .sum()
    }

    /// Looks up a study in a tenant's namespace.
    pub fn get(&self, tenant: &str, name: &str) -> Option<&Study> {
        self.studies.get(&(tenant.to_string(), name.to_string()))
    }

    /// All studies, (tenant, name)-ordered.
    pub fn studies(&self) -> impl Iterator<Item = &Study> {
        self.studies.values()
    }

    /// One tenant's studies, name-ordered.
    pub fn studies_of<'a>(&'a self, tenant: &'a str) -> impl Iterator<Item = &'a Study> {
        self.studies
            .iter()
            .filter(move |((t, _), _)| t == tenant)
            .map(|(_, s)| s)
    }

    /// The tenant table this manager authenticates against.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Resolves a request's bearer token to a tenant name.
    ///
    /// # Errors
    ///
    /// A structured [`Refusal`]: `401 missing-token` or `403
    /// bad-token`.
    pub fn authenticate(&self, bearer: Option<&str>) -> Result<String, Refusal> {
        match self.registry.authenticate(bearer) {
            Ok(t) => Ok(t.name.clone()),
            Err(e) => Err(Refusal {
                status: e.status(),
                reason: e.reason(),
                message: e.message().to_string(),
            }),
        }
    }

    /// A tenant's usage meter.
    pub fn usage(&self, tenant: &str) -> Option<TenantUsage> {
        self.tenants.get(tenant).map(|t| t.usage)
    }

    /// The `GET /v1/tenants` document: every known tenant with its
    /// weight, running-study count, budgets and usage meter.
    pub fn tenants_json(&self) -> String {
        let rows: Vec<String> = self
            .tenants
            .iter()
            .map(|(name, ts)| {
                let budgets = self
                    .registry
                    .get(name)
                    .map(|t| {
                        let mut b = String::new();
                        if let Some(m) = t.max_cells {
                            b.push_str(&format!(", \"max_cells\": {m}"));
                        }
                        if let Some(m) = t.max_studies {
                            b.push_str(&format!(", \"max_studies\": {m}"));
                        }
                        b
                    })
                    .unwrap_or_default();
                format!(
                    "{{\"name\": {}, \"weight\": {}, \"running\": {}{budgets}, \
                     \"usage\": {{\"studies\": {}, \"cells\": {}, \"wall_ns\": {}}}}}",
                    tuna_stats::json::quote(name),
                    ts.weight,
                    self.running_studies(name),
                    ts.usage.studies,
                    ts.usage.cells,
                    ts.usage.wall_ns,
                )
            })
            .collect();
        format!("{{\"tenants\": [{}]}}\n", rows.join(", "))
    }

    /// Whether any study has pending cells to hand out.
    pub fn has_pending(&self) -> bool {
        self.studies
            .values()
            .any(|s| !s.cancelled && !s.pending.is_empty())
    }

    /// Whether any cell is currently executing.
    pub fn has_in_flight(&self) -> bool {
        self.studies.values().any(|s| !s.in_flight.is_empty())
    }

    /// Weighted fair-share scheduling (see the module docs): picks the
    /// candidate tenant with the least virtual time, then that tenant's
    /// study by the pre-tenant policy, respecting per-study worker caps
    /// and interactive-lane preemption. Returns `None` when no study
    /// has schedulable work.
    pub fn next_assignment(&mut self) -> Option<Assignment> {
        // Candidate studies under their per-study caps.
        let mut any_interactive = false;
        let mut cands: Vec<(String, String, Lane)> = Vec::new();
        for ((tenant, name), s) in &self.studies {
            if !s.schedulable() {
                continue;
            }
            if s.spec.lane == Lane::Interactive {
                any_interactive = true;
            }
            cands.push((tenant.clone(), name.clone(), s.spec.lane));
        }

        // Tenants with no work at all (pending or in flight) leave the
        // active set and their deficit resets. Judged on the unfiltered
        // study state, so a lane-suppressed or cap-limited tenant keeps
        // its deficit while it waits.
        let mut busy: BTreeSet<&str> = BTreeSet::new();
        for ((tenant, _), s) in &self.studies {
            if (!s.cancelled && !s.pending.is_empty()) || !s.in_flight.is_empty() {
                busy.insert(tenant.as_str());
            }
        }
        for (name, ts) in self.tenants.iter_mut() {
            if ts.active && !busy.contains(name.as_str()) {
                ts.active = false;
                ts.scheduled = 0;
            }
        }

        if cands.is_empty() {
            return None;
        }
        // Interactive preemption at cell boundaries: while any
        // interactive study can take a worker, batch cells wait.
        if any_interactive {
            let before = cands.len();
            cands.retain(|(_, _, lane)| *lane == Lane::Interactive);
            let deferred = (before - cands.len()) as u64;
            if deferred > 0 {
                self.obs.preempted.add(deferred);
                self.obs.journal.event(
                    None,
                    EventKind::Preempted,
                    &format!("{deferred} batch candidates deferred"),
                );
            }
        }

        // Activate candidate tenants. A newcomer starts at the current
        // active minimum virtual time scaled to its weight, so it gets
        // its share from now on instead of a monopolizing back-pay.
        let cand_tenants: BTreeSet<String> = cands.iter().map(|(t, _, _)| t.clone()).collect();
        let min_active: Option<(u64, u64)> = cand_tenants
            .iter()
            .filter_map(|t| self.tenants.get(t))
            .filter(|ts| ts.active)
            .map(|ts| (ts.scheduled, ts.weight))
            .min_by(|a, b| vtime_cmp(*a, *b));
        for t in &cand_tenants {
            let ts = self
                .tenants
                .get_mut(t)
                .expect("candidate tenants are registered");
            if !ts.active {
                ts.active = true;
                ts.scheduled = match min_active {
                    Some((sched, weight)) => {
                        ((sched as u128 * ts.weight as u128) / weight as u128) as u64
                    }
                    None => 0,
                };
            }
        }

        // Stage 1: the tenant minimizing scheduled/weight (ties:
        // least-recently-scheduled, then name).
        let tenant = cand_tenants
            .iter()
            .min_by(|a, b| {
                let ta = &self.tenants[a.as_str()];
                let tb = &self.tenants[b.as_str()];
                vtime_cmp((ta.scheduled, ta.weight), (tb.scheduled, tb.weight))
                    .then_with(|| ta.last_scheduled.cmp(&tb.last_scheduled))
                    .then_with(|| a.cmp(b))
            })?
            .clone();

        // Stage 2: within the tenant, the pre-tenant fair-share policy
        // (fewest in flight, least recently scheduled, name).
        let name = cands
            .iter()
            .filter(|(t, _, _)| *t == tenant)
            .min_by_key(|(t, n, _)| {
                let s = &self.studies[&(t.clone(), n.clone())];
                (s.in_flight.len(), s.last_scheduled, n.clone())
            })
            .map(|(_, n, _)| n.clone())
            .expect("selected tenant has a candidate");

        self.clock += 1;
        let clock = self.clock;
        // The journal's tick clock shadows the scheduler clock: one
        // tick per grant, deterministic at any worker count.
        self.obs.tick.set_at_least(clock);
        let ts = self.tenants.get_mut(&tenant).expect("selected tenant");
        ts.scheduled += 1;
        ts.last_scheduled = clock;
        let study = self
            .studies
            .get_mut(&(tenant.clone(), name.clone()))
            .expect("selected study");
        let cell = study.pending.pop_front().expect("selected study has work");
        study.in_flight.push(cell);
        study.last_scheduled = clock;
        let span = self
            .obs
            .journal
            .begin_span(Some(study.span), &format!("cell:{cell}"));
        study.cell_spans.insert(cell, span);
        let campaign = Arc::clone(&study.campaign);
        self.obs.journal.event(
            Some(span),
            EventKind::Scheduled,
            &format!("{tenant}/{name}"),
        );
        self.obs.assigned.inc();
        self.update_vtime_lag();
        Some(Assignment {
            tenant,
            study: name,
            cell,
            campaign,
        })
    }

    /// Refreshes the per-tenant fair-share lag gauges: each active
    /// tenant's virtual time (scheduled/weight, scaled ×1000 to keep
    /// integer gauges meaningful) minus the active minimum. A tenant
    /// at 0 is at the front of the fair-share queue; a large lag means
    /// it is owed service.
    fn update_vtime_lag(&self) {
        let scaled: Vec<(&String, u64)> = self
            .tenants
            .iter()
            .filter(|(_, ts)| ts.active)
            .map(|(name, ts)| (name, ts.scheduled.saturating_mul(1000) / ts.weight))
            .collect();
        let Some(min) = scaled.iter().map(|(_, v)| *v).min() else {
            return;
        };
        for (name, v) in scaled {
            self.obs
                .registry
                .gauge(
                    &format!("tuna_tenant_vtime_lag{{tenant=\"{name}\"}}"),
                    "fair-share virtual-time lag behind the active minimum, x1000",
                )
                .set(v - min);
        }
    }

    /// Records a finished cell together with its convergence trace and
    /// charges `wall_ns` to the tenant's meter. When the study's grid is
    /// complete its store is finalized (canonical CSV + JSON mirror on
    /// disk). The updated usage table persists atomically.
    ///
    /// Rows and trace go to the study's result journal as one append
    /// ([`ResultStore::record_traced`]), so a kill keeps or loses them
    /// together and the trace document is byte-identical across
    /// kill/restart and worker counts. Completions without a trace
    /// (synthetic perf records) are legal and journal rows only.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown studies and cells that were never
    /// assigned (double completion). A journal append failure records a
    /// `journal-append-failed` event and abandons the cell
    /// ([`StudyManager::abandon`]) before it is returned, so the study
    /// is cancelled instead of wedged with a cell that is neither in
    /// flight nor pending.
    pub fn complete_traced(
        &mut self,
        tenant: &str,
        study: &str,
        record: CellRecord,
        wall_ns: u64,
        trace: Option<CellTrace>,
    ) -> Result<(), String> {
        let key = (tenant.to_string(), study.to_string());
        let s = self
            .studies
            .get_mut(&key)
            .ok_or_else(|| format!("unknown study '{study}' for tenant '{tenant}'"))?;
        let Some(slot) = s.in_flight.iter().position(|&c| c == record.cell) else {
            return Err(format!(
                "study '{study}': cell {} was not in flight",
                record.cell
            ));
        };

        let cell_idx = record.cell;
        if let Err(e) = s.store.record_traced(&s.campaign, record, trace) {
            self.obs.journal.event(
                None,
                EventKind::JournalAppendFailed,
                &format!("{tenant}/{study} cell {cell_idx}"),
            );
            self.abandon(tenant, study, cell_idx)?;
            return Err(format!("study '{study}': {e}"));
        }
        s.in_flight.remove(slot);
        if s.store.len() == s.campaign.n_cells() {
            s.store
                .finalize(&s.campaign)
                .map_err(|e| format!("study '{study}': finalize failed: {e}"))?;
        }
        if let Some(span) = s.cell_spans.remove(&cell_idx) {
            self.obs.journal.end_span(span);
        }
        self.obs.journal.event(
            None,
            EventKind::Completed,
            &format!("{tenant}/{study} cell {cell_idx}"),
        );
        if s.store.len() == s.campaign.n_cells() {
            self.obs.journal.end_span(s.span);
        }
        self.obs.completed.inc();
        let ts = self
            .tenants
            .get_mut(tenant)
            .expect("study tenants are registered");
        ts.usage.cells += 1;
        ts.usage.wall_ns += wall_ns;
        self.persist_usage()
    }

    /// Cancels a study: pending cells are dropped (in-flight cells
    /// finish and are still recorded), and the cancellation is
    /// persisted (a marker file next to the store) so a restarted
    /// daemon does not resume it. Cancelling a `Done` study is a no-op.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown studies.
    pub fn cancel(&mut self, tenant: &str, study: &str) -> Result<&Study, String> {
        let marker = self.cancel_marker_path(tenant, study);
        let key = (tenant.to_string(), study.to_string());
        let s = self
            .studies
            .get_mut(&key)
            .ok_or_else(|| format!("unknown study '{study}' for tenant '{tenant}'"))?;
        if s.phase() != StudyPhase::Done {
            s.cancelled = true;
            s.pending.clear();
            if let Some(path) = marker {
                write_atomic(&path, "cancelled\n")?;
            }
        }
        Ok(self.studies.get(&key).expect("present"))
    }

    /// Abandons an in-flight cell whose execution failed (a worker
    /// caught a panic): the cell is taken out of flight and the study
    /// is cancelled — a panicking declaration is a bug, and retrying it
    /// forever would wedge the pool instead.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown studies; unknown cells are ignored.
    pub fn abandon(&mut self, tenant: &str, study: &str, cell: usize) -> Result<(), String> {
        {
            let key = (tenant.to_string(), study.to_string());
            let s = self
                .studies
                .get_mut(&key)
                .ok_or_else(|| format!("unknown study '{study}' for tenant '{tenant}'"))?;
            s.in_flight.retain(|&c| c != cell);
        }
        self.cancel(tenant, study).map(|_| ())
    }

    /// The study's results document — exactly the store's canonical
    /// JSON ([`ResultStore::to_json`]), which is also byte-identical to
    /// the `.json` mirror a batch [`tuna_core::campaign::CampaignRunner`]
    /// run of the same declaration finalizes to.
    pub fn results_json(&self, tenant: &str, study: &str) -> Option<String> {
        let s = self.get(tenant, study)?;
        Some(s.store.to_json(&s.campaign))
    }

    /// The study's convergence-trace document
    /// (`GET /v1/studies/<name>/trace`): best-cost-so-far series per
    /// arm, per completed cell, read from the traces in the study's
    /// result journal. Cells are sorted by index and the document
    /// carries no clock values, so it is byte-identical across worker
    /// counts and kill/restart.
    pub fn trace_json(&self, tenant: &str, study: &str) -> Option<String> {
        let s = self.get(tenant, study)?;
        Some(
            StudyTrace {
                study: s.spec.name.clone(),
                digest: s.campaign.digest(),
                n_cells: s.campaign.n_cells() as u64,
                cells: s.store.traces().cloned().collect(),
            }
            .to_json(),
        )
    }

    /// The Prometheus text exposition document (`GET /metrics`): the
    /// manager's own registry (scheduler, admission, fair-share)
    /// merged with the process-global one (executor, pipeline,
    /// quarantine, engine, store repair).
    pub fn metrics_text(&self) -> String {
        MetricsRegistry::render_many(&[&self.obs.registry, tuna_obs::global()])
    }

    /// The span/event journal's deterministic plain-text rendering
    /// (tests and diagnostics; not a wire surface).
    pub fn journal_render(&self) -> String {
        self.obs.journal.render()
    }

    /// The manager's journal (assertions on counts/events).
    pub fn journal(&self) -> &Journal {
        &self.obs.journal
    }
}

fn is_spec_path(p: &std::path::Path) -> bool {
    p.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".spec.json"))
}

fn read_spec(path: &std::path::Path) -> Result<StudySpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    StudySpec::parse(&text)
        .map_err(|e| format!("persisted spec {} is invalid: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuna_core::campaign::execute_cell;
    use tuna_core::executor::ExecutionMode;

    fn spec(name: &str, runs: usize) -> StudySpec {
        StudySpec::parse(&format!(
            r#"{{"name": "{name}", "seed": 5, "runs": {runs}, "rounds": 2,
                "workloads": ["tpcc"],
                "arms": [{{"label": "Default", "method": "default"}}]}}"#
        ))
        .unwrap()
    }

    fn tenant_spec(tenant: &str, name: &str, runs: usize, extra: &str) -> StudySpec {
        StudySpec::parse(&format!(
            r#"{{"name": "{name}", "tenant": "{tenant}", "seed": 5, "runs": {runs},
                "rounds": 2, {extra} "workloads": ["tpcc"],
                "arms": [{{"label": "Default", "method": "default"}}]}}"#
        ))
        .unwrap()
    }

    fn two_tenant_registry() -> TenantRegistry {
        TenantRegistry::parse(
            r#"{"tenants": [
                {"name": "alice", "token": "alice-secret", "weight": 3},
                {"name": "bob", "token": "bob-secret", "weight": 1}
            ]}"#,
        )
        .unwrap()
    }

    fn drain(mgr: &mut StudyManager) {
        while let Some(a) = mgr.next_assignment() {
            let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
            mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
                .unwrap();
        }
    }

    #[test]
    fn fair_share_interleaves_studies() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("aaa", 4)).unwrap();
        mgr.submit(spec("bbb", 4)).unwrap();
        // With nothing in flight, assignments alternate between the two
        // studies instead of draining one first.
        let order: Vec<String> = (0..4)
            .map(|_| mgr.next_assignment().unwrap().study)
            .collect();
        assert_eq!(order, ["aaa", "bbb", "aaa", "bbb"]);
    }

    #[test]
    fn late_study_gets_its_share() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("big", 8)).unwrap();
        let _a = mgr.next_assignment().unwrap();
        let _b = mgr.next_assignment().unwrap();
        // A second study arrives while 'big' holds two workers: the next
        // two grants go to the newcomer (0 in flight vs 2).
        mgr.submit(spec("late", 4)).unwrap();
        assert_eq!(mgr.next_assignment().unwrap().study, "late");
        assert_eq!(mgr.next_assignment().unwrap().study, "late");
    }

    #[test]
    fn weighted_share_respects_tenant_weights() {
        let mut mgr = StudyManager::new(None, two_tenant_registry()).unwrap();
        mgr.submit(tenant_spec("alice", "job", 8, "")).unwrap();
        mgr.submit(tenant_spec("bob", "job", 8, "")).unwrap();
        // Weight 3 vs 1: alice gets 3 of every 4 grants while both
        // compete; completions do not perturb the grant order.
        let mut order = Vec::new();
        while let Some(a) = mgr.next_assignment() {
            order.push(a.tenant.clone());
            let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
            mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
                .unwrap();
        }
        let expect = [
            "alice", "bob", "alice", "alice", "bob", "alice", "alice", "alice", "bob", "alice",
            "alice", "bob", "bob", "bob", "bob", "bob",
        ];
        assert_eq!(order, expect);
    }

    #[test]
    fn late_tenant_joins_at_the_active_minimum() {
        let mut mgr = StudyManager::new(None, two_tenant_registry()).unwrap();
        mgr.submit(tenant_spec("alice", "job", 8, "")).unwrap();
        // Alice alone takes 6 grants (virtual time 2.0)...
        for _ in 0..6 {
            let a = mgr.next_assignment().unwrap();
            let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
            mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
                .unwrap();
        }
        // ...then bob arrives. He starts at alice's virtual time (not
        // zero), so he gets his weighted share from now on instead of a
        // monopolizing back-pay burst: one grant (tie on virtual time,
        // broken by least-recently-scheduled), then alice's weight-3
        // share resumes until she drains, then bob has the pool.
        mgr.submit(tenant_spec("bob", "job", 4, "")).unwrap();
        let mut order = Vec::new();
        for _ in 0..4 {
            let a = mgr.next_assignment().unwrap();
            order.push(a.tenant.clone());
            let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
            mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
                .unwrap();
        }
        assert_eq!(order, ["bob", "alice", "alice", "bob"]);
    }

    #[test]
    fn interactive_lane_preempts_batch_at_cell_boundaries() {
        let mut mgr = StudyManager::new(None, two_tenant_registry()).unwrap();
        mgr.submit(tenant_spec("alice", "campaign", 6, "")).unwrap();
        let a = mgr.next_assignment().unwrap();
        assert_eq!(a.study, "campaign");
        // An interactive probe arrives: every grant goes to it until it
        // drains; the running batch cell still completes and records.
        mgr.submit(tenant_spec("bob", "probe", 2, r#""lane": "interactive","#))
            .unwrap();
        let p1 = mgr.next_assignment().unwrap();
        let p2 = mgr.next_assignment().unwrap();
        assert_eq!((p1.study.as_str(), p2.study.as_str()), ("probe", "probe"));
        let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
        mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
            .unwrap();
        // Probe exhausted (both cells in flight): batch resumes.
        assert_eq!(mgr.next_assignment().unwrap().study, "campaign");
    }

    #[test]
    fn per_study_worker_cap_bounds_concurrency() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let mut capped = spec("capped", 6);
        capped.max_workers = 2;
        mgr.submit(capped).unwrap();
        let a1 = mgr.next_assignment().unwrap();
        let _a2 = mgr.next_assignment().unwrap();
        assert!(
            mgr.next_assignment().is_none(),
            "cap of 2 holds the third grant back"
        );
        let (record, _) = execute_cell(&a1.campaign, a1.cell, ExecutionMode::Serial);
        mgr.complete_traced(&a1.tenant, &a1.study, record, 0, None)
            .unwrap();
        assert!(mgr.next_assignment().is_some(), "a completion frees a slot");
    }

    #[test]
    fn admission_budgets_refuse_with_structured_reasons() {
        let registry = TenantRegistry::parse(
            r#"{"tenants": [
                {"name": "alice", "token": "t", "max_cells": 6, "max_studies": 2}
            ]}"#,
        )
        .unwrap();
        let mut mgr = StudyManager::new(None, registry).unwrap();
        mgr.submit(tenant_spec("alice", "one", 2, "")).unwrap();
        mgr.submit(tenant_spec("alice", "two", 2, "")).unwrap();
        let r = mgr
            .submit(tenant_spec("alice", "three", 1, ""))
            .unwrap_err();
        assert_eq!((r.status, r.reason), (429, "study-budget"));
        // Finish a study: the concurrent-study budget frees up, but the
        // cell budget still meters outstanding work.
        drain(&mut mgr);
        mgr.submit(tenant_spec("alice", "three", 2, "")).unwrap();
        let r = mgr.submit(tenant_spec("alice", "four", 8, "")).unwrap_err();
        assert_eq!((r.status, r.reason), (429, "cell-budget"));
        assert!(r.message.contains("8 cells"), "{}", r.message);
        mgr.submit(tenant_spec("alice", "four", 4, "")).unwrap();
    }

    #[test]
    fn unknown_tenant_is_refused() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        let r = mgr.submit(tenant_spec("mallory", "x", 1, "")).unwrap_err();
        assert_eq!((r.status, r.reason), (403, "unknown-tenant"));
    }

    #[test]
    fn namespaces_isolate_same_named_studies() {
        let mut mgr = StudyManager::new(None, two_tenant_registry()).unwrap();
        mgr.submit(tenant_spec("alice", "nightly", 2, "")).unwrap();
        // Same name, different tenant, different declaration: no clash.
        mgr.submit(tenant_spec("bob", "nightly", 4, "")).unwrap();
        assert_eq!(mgr.get("alice", "nightly").unwrap().campaign.n_cells(), 2);
        assert_eq!(mgr.get("bob", "nightly").unwrap().campaign.n_cells(), 4);
        assert!(mgr.get("default", "nightly").is_none());
        assert_eq!(mgr.studies_of("alice").count(), 1);
        // Within a namespace the conflict rule still holds.
        let r = mgr
            .submit(tenant_spec("alice", "nightly", 3, ""))
            .unwrap_err();
        assert_eq!(r.status, 409);
    }

    #[test]
    fn usage_accounting_persists_and_restores() {
        let dir = std::env::temp_dir().join(format!("tuna-mgr-usage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = two_tenant_registry();
        let mut mgr = StudyManager::new(Some(dir.clone()), registry.clone()).unwrap();
        mgr.submit(tenant_spec("alice", "job", 2, "")).unwrap();
        let a = mgr.next_assignment().unwrap();
        let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
        mgr.complete_traced(&a.tenant, &a.study, record, 5_000, None)
            .unwrap();
        let before = std::fs::read(dir.join(USAGE_FILE)).unwrap();
        drop(mgr);

        // Restart: counters reload and the file is untouched until the
        // next mutation (kill/restart preserves it byte-identically).
        let mgr = StudyManager::new(Some(dir.clone()), registry).unwrap();
        assert_eq!(std::fs::read(dir.join(USAGE_FILE)).unwrap(), before);
        let u = mgr.usage("alice").unwrap();
        assert_eq!((u.studies, u.cells, u.wall_ns), (1, 1, 5_000));
        assert_eq!(mgr.usage("bob").unwrap(), TenantUsage::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn named_tenant_studies_live_in_subdirectories() {
        let dir = std::env::temp_dir().join(format!("tuna-mgr-ns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A loopback daemon writes a pre-tenant, top-level study...
        let mut mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("plain", 2)).unwrap();
        drain(&mut mgr);
        drop(mgr);

        // ...then the daemon is reconfigured with a tenant table: the
        // top-level study reloads as the default tenant's, and a named
        // tenant's files land in its subdirectory.
        let mut mgr = StudyManager::new(Some(dir.clone()), two_tenant_registry()).unwrap();
        assert_eq!(
            mgr.get(DEFAULT_TENANT, "plain").unwrap().phase(),
            StudyPhase::Done
        );
        mgr.submit(tenant_spec("alice", "job", 2, "")).unwrap();
        drain(&mut mgr);
        assert!(dir.join("alice/job.spec.json").exists());
        assert!(dir.join("alice/job.json").exists());
        // Default tenant keeps the pre-tenant top-level layout.
        assert!(dir.join("plain.spec.json").exists());
        drop(mgr);

        // A restart reloads both namespaces — even if the tenant table
        // shrank, disk studies are not dropped (implicit weight-1).
        let mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        assert_eq!(mgr.get("alice", "job").unwrap().phase(), StudyPhase::Done);
        assert_eq!(
            mgr.get(DEFAULT_TENANT, "plain").unwrap().phase(),
            StudyPhase::Done
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_records_and_finalizes() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 2)).unwrap();
        assert_eq!(
            mgr.get(DEFAULT_TENANT, "s").unwrap().phase(),
            StudyPhase::Running
        );
        drain(&mut mgr);
        let s = mgr.get(DEFAULT_TENANT, "s").unwrap();
        assert_eq!(s.phase(), StudyPhase::Done);
        assert_eq!(s.completed(), 2);
        assert!(mgr
            .results_json(DEFAULT_TENANT, "s")
            .unwrap()
            .contains("\"completed\": 2"));
    }

    #[test]
    fn duplicate_submissions_are_idempotent_conflicts_refused() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 2)).unwrap();
        assert!(mgr.submit(spec("s", 2)).is_ok());
        let r = mgr.submit(spec("s", 3)).unwrap_err();
        assert_eq!((r.status, r.reason), (409, "conflict"));
        assert!(r.message.contains("different declaration"), "{}", r.message);
    }

    #[test]
    fn cancel_drops_pending_work() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 4)).unwrap();
        let a = mgr.next_assignment().unwrap();
        mgr.cancel(DEFAULT_TENANT, "s").unwrap();
        assert_eq!(
            mgr.get(DEFAULT_TENANT, "s").unwrap().phase(),
            StudyPhase::Cancelled
        );
        assert!(mgr.next_assignment().is_none());
        // The in-flight cell still lands.
        let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
        mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
            .unwrap();
        assert_eq!(mgr.get(DEFAULT_TENANT, "s").unwrap().completed(), 1);
        assert!(mgr.cancel(DEFAULT_TENANT, "nope").is_err());
    }

    #[test]
    fn cancel_survives_restart() {
        let dir = std::env::temp_dir().join(format!("tuna-mgr-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 4)).unwrap();
        mgr.cancel(DEFAULT_TENANT, "s").unwrap();
        drop(mgr);

        let mut mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        assert_eq!(
            mgr.get(DEFAULT_TENANT, "s").unwrap().phase(),
            StudyPhase::Cancelled
        );
        assert!(
            mgr.next_assignment().is_none(),
            "a cancelled study must not resume after restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandon_cancels_instead_of_wedging() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 3)).unwrap();
        let a = mgr.next_assignment().unwrap();
        mgr.abandon(&a.tenant, &a.study, a.cell).unwrap();
        let s = mgr.get(DEFAULT_TENANT, "s").unwrap();
        assert_eq!(s.phase(), StudyPhase::Cancelled);
        assert_eq!(s.in_flight(), 0);
        assert!(mgr.next_assignment().is_none());
    }

    #[test]
    fn failed_journal_append_cancels_instead_of_wedging() {
        let dir = std::env::temp_dir().join(format!("tuna-mgr-blocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 3)).unwrap();
        let a = mgr.next_assignment().unwrap();
        let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
        mgr.complete_traced(&a.tenant, &a.study, record, 0, None)
            .unwrap();

        // A directory where the journal should be: the next append fails.
        let journal = dir.join("s.csv");
        std::fs::remove_file(&journal).unwrap();
        std::fs::create_dir(&journal).unwrap();
        let a = mgr.next_assignment().unwrap();
        let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
        let err = mgr
            .complete_traced(&a.tenant, &a.study, record, 0, None)
            .unwrap_err();
        assert!(err.contains("cannot append"), "{err}");
        assert_eq!(mgr.journal().count(EventKind::JournalAppendFailed), 1);
        assert!(mgr.journal_render().contains(&format!(
            "journal-append-failed span=- default/s cell {}",
            a.cell
        )));
        assert!(mgr
            .metrics_text()
            .contains("# TYPE tuna_store_append_failures_total counter"));
        let s = mgr.get(DEFAULT_TENANT, "s").unwrap();
        assert_eq!(s.phase(), StudyPhase::Cancelled);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.completed(), 1, "the failed cell is not recorded");
        assert!(mgr.next_assignment().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_submit_leaves_no_spec_behind() {
        let dir = std::env::temp_dir().join(format!("tuna-mgr-badsub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-existing store under the study's name with a *different*
        // declaration: attach must refuse, and the refused submission
        // must not persist a spec that would brick the next open().
        let other = spec("s", 4).to_campaign();
        let mut store = ResultStore::open(dir.join("s.csv"), &other).unwrap();
        while let Some(cell) = (0..other.n_cells()).find(|c| store.get(*c).is_none()) {
            let (record, _) = execute_cell(&other, cell, ExecutionMode::Serial);
            store.record(&other, record).unwrap();
        }
        drop(store);

        let mut mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        let r = mgr.submit(spec("s", 2)).unwrap_err();
        assert_eq!(r.status, 500);
        assert!(r.message.contains("digest"), "{}", r.message);
        assert!(mgr.get(DEFAULT_TENANT, "s").is_none());
        assert!(!dir.join("s.spec.json").exists(), "spec must not persist");
        // The daemon still starts over this data dir.
        assert!(StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_store_is_finalized_on_attach() {
        let dir = std::env::temp_dir().join(format!("tuna-mgr-finalize-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 2)).unwrap();
        drain(&mut mgr);
        let results = mgr.results_json(DEFAULT_TENANT, "s").unwrap();
        drop(mgr);

        // Simulate a kill that landed after the last journal append but
        // before finalize: delete the mirror the finalize wrote.
        let mirror = dir.join("s.json");
        std::fs::remove_file(&mirror).unwrap();
        let mgr = StudyManager::new(Some(dir.clone()), TenantRegistry::loopback()).unwrap();
        assert_eq!(
            mgr.get(DEFAULT_TENANT, "s").unwrap().phase(),
            StudyPhase::Done
        );
        assert_eq!(std::fs::read_to_string(&mirror).unwrap(), results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_completion_is_refused() {
        let mut mgr = StudyManager::new(None, TenantRegistry::loopback()).unwrap();
        mgr.submit(spec("s", 2)).unwrap();
        let a = mgr.next_assignment().unwrap();
        let (record, _) = execute_cell(&a.campaign, a.cell, ExecutionMode::Serial);
        mgr.complete_traced(&a.tenant, &a.study, record.clone(), 0, None)
            .unwrap();
        let err = mgr
            .complete_traced(&a.tenant, &a.study, record, 0, None)
            .unwrap_err();
        assert!(err.contains("not in flight"), "{err}");
    }
}
