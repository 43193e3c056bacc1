//! The paper-figure runner and its shared harness.
//!
//! [`figures::FIGURES`] declares every table, figure and ablation of the
//! paper's evaluation that the reproduction regenerates; `tuna figures`
//! runs them. Each one runs its experiment on the simulated substrate and
//! returns a [`figures::FigureReport`]: the rows or series the paper
//! plots, and its measured paper claims, each a declared
//! [`figures::Claim`] that renders its paper-vs-measured line.
//! [`figures::run`] is the one place that prints them. Absolute numbers
//! are not expected to match (the substrate is a simulator, not the
//! authors' Azure/CloudLab testbed); the *shape* — who wins, by what
//! rough factor, where crossovers fall — is the reproduction target.
//!
//! Grid-shaped figures declare a [`tuna_core::campaign::Campaign`] and run
//! it through [`run_campaign`]; the campaign engine owns the (workload ×
//! method × seed) loop, cell-level parallelism and the optional
//! persistent, resumable result store (`--store`); every cell is one
//! tune-and-deploy run. The other figures fan their runs out over the
//! same workers through [`map_runs`]; every run is a pure function of
//! (root seed, run index). Among them are the two convergence figures,
//! fig17 and fig19, which build two-tuner run plans without deployment
//! and read only their tuning traces, so `--store` does not apply.
//!
//! Flags of `tuna figures`:
//!
//! - `--only ID..`: run only these figures (default: all, in table order),
//! - `--runs N`: tuning runs per method (default: the paper's, per figure),
//! - `--rounds N`: optimizer rounds per tuning run,
//! - `--seed N`: root seed,
//! - `--quick`: cut all budgets for a fast smoke run,
//! - `--store DIR`: stream each campaign's cells into
//!   `DIR/<campaign name>.csv` (plus a JSON mirror) and resume completed
//!   cells on re-runs (campaign-backed figures only).
//!
//! Without `--quick` every figure runs at the paper's budgets: the paper's
//! claims are stated there, and smaller budgets change their verdicts.
//! `--runs` and `--rounds` must be at least 1.

use std::path::Path;

use tuna_core::campaign::{Campaign, CampaignResult, CampaignRunner, ResultStore};
use tuna_core::executor::ExecutionMode;
use tuna_core::experiment::RunSummary;

pub mod figures;
pub mod perf;

/// Parsed `tuna figures` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HarnessArgs {
    /// Figure IDs to run (empty = all).
    pub only: Vec<String>,
    /// Tuning runs per method (None = figure default).
    pub runs: Option<usize>,
    /// Optimizer rounds per run (None = figure default).
    pub rounds: Option<usize>,
    /// Root seed.
    pub seed: u64,
    /// Fast smoke mode (otherwise: paper budgets).
    pub quick: bool,
    /// Campaign result-store directory (campaign-backed figures only).
    pub store: Option<String>,
}

/// The `tuna figures` usage message. `--store` only affects
/// campaign-backed figures.
pub const USAGE: &str = "usage: tuna figures [--only ID..] [--runs N] [--rounds N] [--seed N] \
                         [--quick] [--store DIR]";

/// Prints `msg` and the usage line to stderr, then exits with status 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

impl HarnessArgs {
    /// Parses the arguments after `tuna figures`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the offending flag on malformed,
    /// missing or zero budget values, unknown flags and unknown figure
    /// IDs.
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        fn value<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
            *i += 1;
            argv.get(*i)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} requires a value"))
        }
        fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag} requires a number, got '{raw}'"))
        }
        fn budget(argv: &[String], i: &mut usize, flag: &str) -> Result<Option<usize>, String> {
            match number(value(argv, i, flag)?, flag)? {
                0 => Err(format!("{flag} must be at least 1")),
                n => Ok(Some(n)),
            }
        }
        let mut args = HarnessArgs {
            seed: 42,
            ..HarnessArgs::default()
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--runs" => args.runs = budget(argv, &mut i, "--runs")?,
                "--rounds" => args.rounds = budget(argv, &mut i, "--rounds")?,
                "--seed" => args.seed = number(value(argv, &mut i, "--seed")?, "--seed")?,
                "--store" => args.store = Some(value(argv, &mut i, "--store")?.to_string()),
                "--only" => {
                    let ids: Vec<&String> = argv[i + 1..]
                        .iter()
                        .take_while(|a| !a.starts_with("--"))
                        .collect();
                    if ids.is_empty() {
                        return Err("--only requires at least one figure ID".to_string());
                    }
                    let known: Vec<&str> = figures::FIGURES.iter().map(|f| f.id).collect();
                    if let Some(id) = ids.iter().find(|id| !known.contains(&id.as_str())) {
                        return Err(format!(
                            "unknown figure '{id}' (known: {})",
                            known.join(", ")
                        ));
                    }
                    i += ids.len();
                    args.only.extend(ids.into_iter().cloned());
                }
                "--quick" => args.quick = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        Ok(args)
    }

    /// Picks a budget: quick / paper.
    pub fn pick(&self, quick: usize, paper: usize) -> usize {
        if self.quick {
            quick
        } else {
            paper
        }
    }

    /// Runs per method with figure-specific defaults.
    pub fn runs_or(&self, quick: usize, paper: usize) -> usize {
        self.runs.unwrap_or_else(|| self.pick(quick, paper))
    }

    /// Rounds per run with figure-specific defaults.
    pub fn rounds_or(&self, quick: usize, paper: usize) -> usize {
        self.rounds.unwrap_or_else(|| self.pick(quick, paper))
    }
}

/// Renders an inline ASCII distribution strip (poor man's boxplot) over a
/// fixed value range.
///
/// Degenerate ranges are handled explicitly: a zero `width` renders as an
/// empty strip, and when `hi <= lo` (constant series, reversed or
/// non-finite bounds) all mass lands on the strip's center cell instead
/// of silently aliasing to cell 0 through a NaN bucket index.
pub fn strip_plot(values: &[f64], lo: f64, hi: f64, width: usize) -> String {
    if width == 0 {
        return String::new();
    }
    let span = hi - lo;
    let mut cells = vec![0usize; width];
    for &v in values {
        if !v.is_finite() {
            continue;
        }
        let idx = if span > 0.0 && span.is_finite() {
            let frac = ((v - lo) / span).clamp(0.0, 1.0);
            ((frac * (width - 1) as f64).round() as usize).min(width - 1)
        } else {
            width / 2
        };
        cells[idx] += 1;
    }
    let max = cells.iter().copied().max().unwrap_or(1).max(1);
    cells
        .iter()
        .map(|&c| {
            if c == 0 {
                '.'
            } else {
                let level = (c * 4).div_ceil(max); // 1..=4
                [' ', '-', '+', '*', '#'][level.min(4)]
            }
        })
        .collect()
}

/// Runs a campaign with the harness's standard plumbing:
/// [`CampaignRunner::from_env`]'s cell-level workers (results do not
/// depend on the count); the store `--store DIR/<campaign name>.csv`
/// (resume included) when given; and a stderr note about where results
/// were persisted. Keeps only the cells' rows, which is all
/// the §6 method table reads; a figure that prints more of each
/// cell uses [`run_campaign_keeping`]. Exits with a usage error when the
/// store is unusable.
pub fn run_campaign(args: &HarnessArgs, campaign: &Campaign) -> CampaignResult {
    run_grid(args, campaign, |_, _| ())
}

/// [`run_campaign`], keeping `keep(cell, &summary)` of each cell
/// ([`CampaignRunner::run_keeping`]): a figure keeps only the columns it
/// prints, and reads them back with [`CampaignResult::kept`]. A store
/// holds only rows, so this exits with a usage error when `--store`
/// resumed any cell.
pub fn run_campaign_keeping<K: Send>(
    args: &HarnessArgs,
    campaign: &Campaign,
    keep: impl Fn(usize, &RunSummary) -> K + Sync,
) -> CampaignResult<K> {
    let result = run_grid(args, campaign, keep);
    if result.resumed > 0 {
        fail(&format!(
            "campaign '{}': this figure prints per-cell results that a --store \
             does not hold; delete the store files to recompute",
            campaign.name
        ));
    }
    result
}

fn run_grid<K: Send>(
    args: &HarnessArgs,
    campaign: &Campaign,
    keep: impl Fn(usize, &RunSummary) -> K + Sync,
) -> CampaignResult<K> {
    let mut store = match &args.store {
        None => ResultStore::in_memory(campaign),
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(&format!("cannot create --store {dir}: {e}")));
            let path = Path::new(dir).join(format!("{}.csv", campaign.name));
            ResultStore::open(path, campaign).unwrap_or_else(|e| fail(&e))
        }
    };
    let result = CampaignRunner::from_env().run_keeping(campaign, &mut store, keep);
    if let Some(path) = store.csv_path() {
        eprintln!(
            "campaign '{}': {} cells ({} executed, {} resumed), checksum {} -> {}",
            campaign.name,
            result.cells.len(),
            result.executed,
            result.resumed,
            result.checksum,
            path.display()
        );
    }
    result
}

/// Runs `run(item, ExecutionMode::Serial)` for every item on
/// [`CampaignRunner::from_env`]'s workers and returns the results in item
/// order. A figure's runs fan out as [`run_campaign`]'s cells do: each run
/// is a pure function of its item, so nothing depends on the worker count,
/// and its trials and forests run serially on its one worker.
pub fn map_runs<T: Send, R: Send>(
    items: Vec<T>,
    run: impl Fn(T, ExecutionMode) -> R + Sync,
) -> Vec<R> {
    let workers = CampaignRunner::from_env().mode.workers();
    tuna_stats::pool::map(
        workers,
        items,
        |_| (),
        |_, item| run(item, ExecutionMode::Serial),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pick_budget_tiers() {
        let mut a = HarnessArgs {
            seed: 1,
            ..HarnessArgs::default()
        };
        assert_eq!(a.pick(1, 2), 2);
        a.quick = true;
        assert_eq!(a.pick(1, 2), 1);
    }

    #[test]
    fn explicit_runs_override() {
        let a = HarnessArgs {
            runs: Some(7),
            seed: 1,
            quick: true,
            ..HarnessArgs::default()
        };
        assert_eq!(a.runs_or(1, 2), 7);
        assert_eq!(a.rounds_or(1, 2), 1);
    }

    #[test]
    fn parse_from_accepts_all_flags() {
        let a = HarnessArgs::parse_from(&argv(&[
            "--runs", "4", "--rounds", "9", "--seed", "7", "--quick", "--store", "out", "--only",
            "fig12", "fig20",
        ]))
        .unwrap();
        assert_eq!(a.runs, Some(4));
        assert_eq!(a.rounds, Some(9));
        assert_eq!(a.seed, 7);
        assert!(a.quick);
        assert_eq!(a.store.as_deref(), Some("out"));
        assert_eq!(a.only, ["fig12", "fig20"]);
        // `--only` IDs end at the next flag.
        let o = HarnessArgs::parse_from(&argv(&["--only", "table1", "--quick"])).unwrap();
        assert_eq!(o.only, ["table1"]);
        assert!(o.quick);
        let d = HarnessArgs::parse_from(&[]).unwrap();
        assert_eq!(d.seed, 42);
        assert_eq!(d.store, None);
        assert!(!d.quick);
        assert!(d.only.is_empty());
    }

    #[test]
    fn parse_from_rejects_bad_input() {
        // Missing value at end of argv.
        let e = HarnessArgs::parse_from(&argv(&["--runs"])).unwrap_err();
        assert!(e.contains("--runs requires a value"), "{e}");
        // Non-numeric value.
        let e = HarnessArgs::parse_from(&argv(&["--rounds", "many"])).unwrap_err();
        assert!(e.contains("--rounds requires a number"), "{e}");
        // Zero budgets are refused: no figure has anything to measure.
        let e = HarnessArgs::parse_from(&argv(&["--runs", "0"])).unwrap_err();
        assert!(e.contains("--runs must be at least 1"), "{e}");
        let e = HarnessArgs::parse_from(&argv(&["--quick", "--rounds", "0"])).unwrap_err();
        assert!(e.contains("--rounds must be at least 1"), "{e}");
        // Unknown flags are errors, not silently ignored.
        let e = HarnessArgs::parse_from(&argv(&["--frobnicate"])).unwrap_err();
        assert!(e.contains("unknown flag '--frobnicate'"), "{e}");
        // No flags already means paper budgets; there is no `--full`.
        let e = HarnessArgs::parse_from(&argv(&["--full"])).unwrap_err();
        assert!(e.contains("unknown flag '--full'"), "{e}");
        let e = HarnessArgs::parse_from(&argv(&["--pattern", "diurnal"])).unwrap_err();
        assert!(e.contains("unknown flag '--pattern'"), "{e}");
        // A flag value that is itself flag-shaped parses as a value miss.
        let e = HarnessArgs::parse_from(&argv(&["--seed", "--quick"])).unwrap_err();
        assert!(e.contains("--seed requires a number"), "{e}");
        // Unknown figure IDs are refused with the known ones listed.
        let e = HarnessArgs::parse_from(&argv(&["--only", "fig12", "fig07"])).unwrap_err();
        assert!(e.contains("unknown figure 'fig07'"), "{e}");
        assert!(
            e.contains("fig02, fig03") && e.contains("ablation_threshold"),
            "{e}"
        );
        // `arena_solvers` is refused and not among the known IDs.
        let e = HarnessArgs::parse_from(&argv(&["--only", "arena_solvers"])).unwrap_err();
        assert!(e.contains("unknown figure 'arena_solvers'"), "{e}");
        assert_eq!(e.matches("arena_solvers").count(), 1, "{e}");
        let e = HarnessArgs::parse_from(&argv(&["--only", "--quick"])).unwrap_err();
        assert!(e.contains("--only requires at least one figure ID"), "{e}");
    }

    #[test]
    fn figure_ids_are_unique() {
        let mut ids: Vec<&str> = figures::FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), 21);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), figures::FIGURES.len());
    }

    #[test]
    fn strip_plot_marks_mass() {
        let s = strip_plot(&[0.0, 0.0, 1.0], 0.0, 1.0, 10);
        assert_eq!(s.len(), 10);
        assert_ne!(s.chars().next().unwrap(), '.');
        assert_ne!(s.chars().last().unwrap(), '.');
        assert_eq!(s.chars().nth(5).unwrap(), '.');
    }

    #[test]
    fn strip_plot_constant_series_centers_mass() {
        // hi == lo (a constant series' natural bounds) must not alias
        // every sample to cell 0 through a NaN bucket index.
        let s = strip_plot(&[5.0, 5.0, 5.0], 5.0, 5.0, 11);
        assert_eq!(s.len(), 11);
        assert_ne!(s.chars().nth(5).unwrap(), '.');
        assert!(
            s.chars().enumerate().all(|(i, c)| i == 5 || c == '.'),
            "{s}"
        );
        // Reversed bounds degrade the same way instead of underflowing.
        let r = strip_plot(&[1.0, 2.0], 3.0, -3.0, 7);
        assert_ne!(r.chars().nth(3).unwrap(), '.');
    }

    #[test]
    fn strip_plot_degenerate_width_and_values() {
        assert_eq!(strip_plot(&[1.0, 2.0], 0.0, 1.0, 0), "");
        // Non-finite samples and bounds are ignored rather than panicking.
        let s = strip_plot(&[f64::NAN, f64::INFINITY], 0.0, 1.0, 5);
        assert_eq!(s, ".....");
        let t = strip_plot(&[0.5], f64::NAN, 1.0, 5);
        assert_ne!(t.chars().nth(2).unwrap(), '.');
    }
}
