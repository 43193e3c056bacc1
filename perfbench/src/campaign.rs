//! `campaign_random`: a `Campaign::protocol` grid (tpcc, ycsb-c and
//! wikipedia × TUNA, Traditional, Naive distributed and Default, all with
//! random search) run by `CampaignRunner::with_workers(2)` into an
//! on-disk `ResultStore`. No surrogate runs: the simulator, executor,
//! outlier/adjuster/aggregate, deployment and journal appends do the work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tuna_core::campaign::{Campaign, CampaignRunner, CellRecord, Recipe, ResultStore};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::{Method, SolverId};
use tuna_stats::rng::hash_combine;

use crate::protocol::{cell_row, run_traced, Probes};
use crate::trace::{self, nanos_since, now, span};
use crate::{fastest_setup, median, passes, Args, Outcome, WorkDir};

/// Runs (seeds) per (workload, arm) group.
const RUNS: usize = 240;

/// Cell-level worker threads.
const WORKERS: usize = 2;

/// Nominal seconds per grid pass on the 2-core benchmark machine.
const PASS_S: f64 = 3.5;

/// The grid of `--seed n`.
fn grid(seed: u64) -> Campaign {
    Campaign::protocol(
        "perfbench-grid",
        seed,
        vec![
            tuna_workloads::tpcc(),
            tuna_workloads::ycsb_c(),
            tuna_workloads::wikipedia(),
        ],
        &[
            ("TUNA", Method::Tuna),
            ("Traditional", Method::Traditional),
            // Equal cost: 96 rounds on the 10-node cluster.
            (
                "Naive distributed",
                Method::NaiveDistributed { samples: 960 },
            ),
            ("Default", Method::DefaultConfig),
        ],
    )
    .with_runs(RUNS)
    .with_optimizer(SolverId::random())
}

/// What a finished pass left behind, for comparing passes.
struct PassResult {
    wall_s: f64,
    checksum: String,
    json: String,
}

fn store_path(dir: &Path) -> std::path::PathBuf {
    dir.join("grid.csv")
}

/// Declares the grid and opens a fresh store for it in `dir`, which is
/// created untimed (directory creation is shared-disk noise).
fn setup(grid_seed: u64, dir: &Path) -> Result<(Campaign, ResultStore, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let t = now();
    let campaign = grid(grid_seed);
    let store = ResultStore::open(store_path(dir), &campaign)?;
    Ok((campaign, store, nanos_since(t) as f64 / 1e9))
}

/// One untraced grid run through `CampaignRunner`. A panic fails every
/// cell of the pass.
fn untraced_pass(out: &mut Outcome, seed: u64, dir: &Path) -> Result<Option<PassResult>, String> {
    let (campaign, mut store, _) = setup(seed, dir)?;
    let n = campaign.n_cells() as u64;
    out.attempted += n;
    let t = now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        CampaignRunner::with_workers(WORKERS).run(&campaign, &mut store)
    }));
    let wall_s = nanos_since(t) as f64 / 1e9;
    let Ok(result) = result else {
        out.failed += n;
        return Ok(None);
    };
    out.check(
        result.complete && result.executed as u64 == n,
        format!("grid incomplete: {} of {n} cells executed", result.executed),
    );
    let json = read(&store.json_path().expect("file-backed store"))?;
    // The finalized journal must reload and re-verify to the same grid.
    let reopened = ResultStore::open(store_path(dir), &campaign)?;
    out.check(
        reopened.len() as u64 == n && reopened.campaign_checksum() == result.checksum,
        "finalized store does not reload to the same checksum",
    );
    out.check(
        store.to_json(&campaign) == json,
        "JSON mirror on disk differs from the store",
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(Some(PassResult {
        wall_s,
        checksum: result.checksum,
        json,
    }))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n_cells = grid(args.seed).n_cells();

    // Every pass runs the same declaration into a fresh store.
    let mut setups = Vec::new();
    let mut first: Option<PassResult> = None;
    let mut rates = Vec::new();
    for i in 0..passes(args, PASS_S) {
        let mut j = 0;
        setups.push(fastest_setup(|| {
            j += 1;
            let dir = work.sub(&format!("setup-{i}-{j}"));
            let secs = setup(args.seed, &dir)?.2;
            let _ = std::fs::remove_dir_all(&dir);
            Ok::<_, String>(secs)
        })?);
        let Some(pass) = untraced_pass(&mut out, args.seed, &work.sub(&format!("pass-{i}")))?
        else {
            break;
        };
        rates.push(n_cells as f64 / pass.wall_s);
        match &first {
            None => first = Some(pass),
            Some(f) => out.check(
                pass.checksum == f.checksum && pass.json == f.json,
                "grid passes disagree on the store checksum or JSON",
            ),
        }
    }
    out.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let Some(first) = first else {
        out.check(false, "no grid pass completed");
        return Ok(out);
    };
    // Other tenants of the machine only ever slow a pass, so the fastest
    // pass is the steadiest estimate of the program's own speed.
    let best = rates.iter().copied().fold(0.0, f64::max);
    out.set("throughput_per_s", best);
    out.note("cells_per_s", best, "1/s");
    out.note("cells_per_s_median", median(&rates), "1/s");
    out.note("grid_passes", rates.len() as f64, "count");
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );

    if args.trace {
        let untraced_s = first.wall_s;
        let (checksum, json) = (first.checksum.clone(), first.json.clone());
        traced(&mut out, args.seed, work, &checksum, &json, untraced_s)?;
    }
    Ok(out)
}

/// One cell through the traced protocol reconstruction — what
/// `execute_cell` does for a protocol arm.
fn traced_cell(campaign: &Campaign, cell: usize, probes: &Probes) -> CellRecord {
    let (w, a, run) = campaign.coords(cell);
    let arm = &campaign.arms[a];
    let Recipe::Protocol { method, seed_salt } = &arm.recipe else {
        panic!("the benchmark grid declares protocol arms only");
    };
    let base = seed_salt.map_or(campaign.seed, |s| hash_combine(campaign.seed, s));
    let seed = hash_combine(base, run as u64);
    let exp = campaign.experiment(w, ExecutionMode::Serial);
    let summary = run_traced(&exp, *method, seed, probes);
    let rows = vec![cell_row(&arm.label, seed, &summary)];
    CellRecord {
        cell,
        checksum: CellRecord::compute_checksum(&rows),
        rows,
    }
}

/// The traced pass: `CampaignRunner::run` reproduced from outside (two
/// threads claiming cells from a shared cursor, each recording into the
/// store under a lock, then `finalize`).
fn traced(
    out: &mut Outcome,
    seed: u64,
    work: &WorkDir,
    checksum: &str,
    json: &str,
    untraced_s: f64,
) -> Result<(), String> {
    let dir = work.sub("traced");
    let (campaign, store, _) = setup(seed, &dir)?;
    let n_cells = campaign.n_cells();
    out.attempted += n_cells as u64;
    let probes = Probes::default();
    trace::take_spans();
    let t = now();
    let cursor = AtomicUsize::new(0);
    let shared = Mutex::new(store);
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n_cells {
                        break;
                    }
                    let record = {
                        let _s = span("core.campaign.cell");
                        traced_cell(&campaign, i, &probes)
                    };
                    let mut store = shared.lock().expect("store mutex poisoned");
                    let _s = span("core.campaign.record");
                    store.record(&campaign, record);
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| usize::from(h.join().is_err()))
            .sum::<usize>()
    });
    let store = shared.into_inner().map_err(|_| "store mutex poisoned")?;
    let journal_bytes = std::fs::metadata(store_path(&dir)).map_or(0, |m| m.len());
    let finalize_t = now();
    store.finalize(&campaign)?;
    let finalize_s = nanos_since(finalize_t) as f64 / 1e9;
    let traced_ns = nanos_since(t);
    let traced_s = traced_ns as f64 / 1e9;
    if panicked > 0 {
        out.failed += (n_cells - store.len()) as u64;
    }

    out.check(
        store.len() == n_cells && store.campaign_checksum() == checksum,
        "traced pass store checksum differs from the CampaignRunner run",
    );
    out.check(
        read(&store.json_path().expect("file-backed store"))? == json,
        "traced pass finalized JSON differs from the CampaignRunner run",
    );
    let _ = std::fs::remove_dir_all(&dir);

    let spans = trace::take_spans();
    let layers = trace::layers(&spans);
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let cell = get("core.campaign.cell");
    let record = get("core.campaign.record");
    out.set("core.campaign.cell.calls", cell.calls as f64);
    out.set("core.campaign.cell.busy_s", cell.busy_s());
    out.set("core.campaign.cell.p50_ms", cell.quantile_s(0.5) * 1e3);
    out.set("core.campaign.cell.p99_ms", cell.quantile_s(0.99) * 1e3);
    out.set("core.campaign.record.busy_s", record.busy_s());
    out.set("core.campaign.record.p99_us", record.quantile_s(0.99) * 1e6);
    out.set("core.campaign.finalize_s", finalize_s);
    out.set("core.campaign.journal_bytes", journal_bytes as f64);
    out.set(
        "core.campaign.worker_utilization",
        cell.busy_s() / (WORKERS as f64 * traced_s),
    );

    // Each worker thread builds its own span tree.
    probes.report(out, &layers, WORKERS as u64 * traced_ns);

    out.set("trace.traced_s", traced_s);
    out.set("trace.untraced_s", untraced_s);
    out.set("trace.overhead_s", traced_s - untraced_s);
    Ok(())
}
