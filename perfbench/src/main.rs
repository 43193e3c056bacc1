//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! tuna-perfbench --workload <tune_mssales|campaign_random|serve_fleet>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no tracing
//! in the path. With `--trace 1` it runs the workload once untraced and
//! once traced, checks that both produce bit-identical results, and
//! reports the per-layer breakdown. Either way the last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod campaign;
mod protocol;
mod serve;
mod trace;
mod tune;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per block. A block runs before each measured pass (each seed
/// on tune_mssales), so the blocks span the run rather than one moment of
/// it. `setup_s` is the fastest set-up of the run, by the rule that picks
/// the fastest pass for throughput: other tenants of the machine only
/// ever slow a set-up, and they do so for tens of seconds at a time.
pub const SETUP_BLOCK: usize = 20;

/// The fastest of [`SETUP_BLOCK`] calls of `setup`, each returning the
/// seconds it measured.
pub fn fastest_setup<E>(mut setup: impl FnMut() -> Result<f64, E>) -> Result<f64, E> {
    let mut best = f64::INFINITY;
    for _ in 0..SETUP_BLOCK {
        best = best.min(setup()?);
    }
    Ok(best)
}

/// Measured passes per run: `--seconds` at the workload's nominal pass
/// time, at least 2 so passes can be compared, 1 in a traced run. A run
/// thus does the same work whatever the machine's momentary speed.
pub fn passes(args: &Args, nominal_pass_s: f64) -> usize {
    if args.trace {
        1
    } else {
        ((args.seconds / nominal_pass_s).round() as usize).max(2)
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("optimizer.ask.calls", "count"),
    ("optimizer.ask.busy_s", "s"),
    ("optimizer.propose.calls", "count"),
    ("optimizer.propose.busy_s", "s"),
    ("optimizer.propose.p99_ms", "ms"),
    ("optimizer.tell.busy_s", "s"),
    ("optimizer.propose.share_of_tuning", "ratio"),
    ("core.adjuster.share_of_tuning", "ratio"),
    ("core.adjuster.trains", "count"),
    ("core.adjuster.train.busy_s", "s"),
    ("core.adjuster.adjust.busy_s", "s"),
    ("optimizer.surrogate_data.busy_s", "s"),
    ("ml.forest_fit.busy_s", "s"),
    ("ml.forest_fit.p50_ms", "ms"),
    ("ml.predict.busy_s", "s"),
    ("ml.replay.histories", "count"),
    ("sut.run.calls", "count"),
    ("sut.run.busy_s", "s"),
    ("core.executor.batches", "count"),
    ("core.executor.wall_s", "s"),
    ("core.executor.busy_s", "s"),
    ("core.executor.speedup", "ratio"),
    ("core.pipeline.self_s", "s"),
    ("core.deploy.busy_s", "s"),
    ("core.baselines.traditional_s", "s"),
    ("core.campaign.cell.calls", "count"),
    ("core.campaign.cell.busy_s", "s"),
    ("core.campaign.cell.p50_ms", "ms"),
    ("core.campaign.cell.p99_ms", "ms"),
    ("core.campaign.record.busy_s", "s"),
    ("core.campaign.record.p99_us", "us"),
    ("core.campaign.finalize_s", "s"),
    ("core.campaign.journal_bytes", "bytes"),
    ("core.campaign.worker_utilization", "ratio"),
    ("serve.engine.recv.busy_s", "s"),
    ("serve.dispatch.submit.p99_us", "us"),
    ("serve.dispatch.status.p99_us", "us"),
    ("serve.dispatch.results.p99_us", "us"),
    ("serve.dispatch.list.p99_ms", "ms"),
    ("serve.manager.next_assignment.calls", "count"),
    ("serve.manager.next_assignment.busy_s", "s"),
    ("serve.manager.next_assignment.p50_us", "us"),
    ("serve.manager.next_assignment.p99_us", "us"),
    ("serve.manager.next_assignment.share_of_fleet", "ratio"),
    (
        "serve.manager.next_assignment.share_of_stress_fleet",
        "ratio",
    ),
    ("serve.manager.has_pending.busy_s", "s"),
    ("serve.manager.complete.busy_s", "s"),
    ("serve.manager.complete.p99_us", "us"),
    ("serve.persist.complete.busy_s", "s"),
    ("serve.persist.complete.p99_us", "us"),
    ("serve.persist.bytes", "bytes"),
    ("serve.manager.open_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct only when empty.
    pub problems: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed for people, not in the JSON.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name} = {value} {unit}"));
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: tuna-perfbench --workload <tune_mssales|campaign_random|serve_fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    trace::quantile(values, 0.5)
}

/// Removes its directory when dropped, so every exit path cleans up.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tuna-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("tuna-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match args.workload.as_str() {
        "tune_mssales" => tune::run(&args),
        "campaign_random" => campaign::run(&args, &work),
        "serve_fleet" => serve::run(&args, &work),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    drop(work);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tuna-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }

    for note in &out.notes {
        println!("{note}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
