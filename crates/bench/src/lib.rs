//! The paper-figure runner and its shared harness.
//!
//! [`figures::FIGURES`] declares every table, figure and ablation of the
//! paper's evaluation that the reproduction regenerates; `tuna figures`
//! runs them. Each one runs its experiment on the simulated substrate and
//! prints the rows or series the paper plots, annotated with the paper's
//! reported values. Absolute numbers are not expected to match (the
//! substrate is a simulator, not the authors' Azure/CloudLab testbed);
//! the *shape* — who wins, by what rough factor, where crossovers fall —
//! is the reproduction target.
//!
//! Grid-shaped figures declare a [`tuna_core::campaign::Campaign`] and run
//! it through [`run_campaign`]; the campaign engine owns the (workload ×
//! method × seed) loop, cell-level parallelism and the optional
//! persistent, resumable result store (`--store`).
//!
//! Flags of `tuna figures`:
//!
//! - `--only ID..`: run only these figures (default: all, in table order),
//! - `--runs N`: tuning runs per method (default varies per figure),
//! - `--rounds N`: optimizer rounds per tuning run,
//! - `--seed N`: root seed,
//! - `--quick`: cut all budgets for a fast smoke run,
//! - `--full`: paper-scale budgets (slow),
//! - `--store DIR`: stream each campaign's cells into
//!   `DIR/<campaign name>.csv` (plus a JSON mirror) and resume completed
//!   cells on re-runs (campaign-backed figures only),
//! - `--pattern NAME`: arrival pattern for fig11.

use std::path::Path;

use tuna_core::campaign::{Campaign, CampaignResult, CampaignRunner, ResultStore};
use tuna_core::experiment::Method;
use tuna_core::report::{method_comparison_table, MethodSummary};

pub mod figures;
pub mod perf;

/// The standard §6 method-comparison arms (TUNA vs traditional sampling
/// vs the vendor default) shared by Figures 11, 14, 15 and 18.
pub const PROTOCOL_METHODS: [(&str, Method); 3] = [
    ("TUNA", Method::Tuna),
    ("Traditional", Method::Traditional),
    ("Default", Method::DefaultConfig),
];

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
    /// Fast smoke mode.
    pub quick: bool,
    /// Paper-scale mode.
    pub full: bool,
    /// Campaign result-store directory (campaign-backed figures only).
    pub store: Option<String>,
    /// Arrival-pattern name (pattern-aware figures only; see
    /// [`tuna_workloads::arrival`]).
    pub pattern: Option<String>,
}

/// The `tuna figures` usage message. `--store` only affects
/// campaign-backed figures and `--pattern` only fig11.
pub const USAGE: &str = "usage: tuna figures [--only ID..] [--runs N] [--rounds N] [--seed N] \
                         [--quick] [--full] [--store DIR] [--pattern steady|diurnal|bursty]";

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
    /// Returns a message describing the offending flag on malformed or
    /// missing values, unknown flags and unknown figure IDs.
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
        let mut args = HarnessArgs {
            seed: 42,
            ..HarnessArgs::default()
        };
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--runs" => args.runs = Some(number(value(argv, &mut i, "--runs")?, "--runs")?),
                "--rounds" => {
                    args.rounds = Some(number(value(argv, &mut i, "--rounds")?, "--rounds")?)
                }
                "--seed" => args.seed = number(value(argv, &mut i, "--seed")?, "--seed")?,
                "--store" => args.store = Some(value(argv, &mut i, "--store")?.to_string()),
                "--pattern" => args.pattern = Some(value(argv, &mut i, "--pattern")?.to_string()),
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
                "--full" => args.full = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 1;
        }
        Ok(args)
    }

    /// Picks a budget: quick / default / full.
    pub fn pick(&self, quick: usize, default: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else if self.full {
            full
        } else {
            default
        }
    }

    /// Runs per method with figure-specific defaults.
    pub fn runs_or(&self, quick: usize, default: usize, full: usize) -> usize {
        self.runs.unwrap_or_else(|| self.pick(quick, default, full))
    }

    /// Rounds per run with figure-specific defaults.
    pub fn rounds_or(&self, quick: usize, default: usize, full: usize) -> usize {
        self.rounds
            .unwrap_or_else(|| self.pick(quick, default, full))
    }
}

/// Prints a paper-vs-measured comparison line.
pub fn paper_vs(label: &str, paper: &str, measured: &str) {
    println!("  {label:<46} paper: {paper:<18} measured: {measured}");
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
/// were persisted. Exits with a usage error when the grid is empty or
/// the store is unusable.
pub fn run_campaign(args: &HarnessArgs, campaign: &Campaign) -> CampaignResult {
    if campaign.n_cells() == 0 {
        fail("--runs 0: the campaign grid is empty");
    }
    let mut store = match &args.store {
        None => ResultStore::in_memory(campaign),
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(&format!("cannot create --store {dir}: {e}")));
            let path = Path::new(dir).join(format!("{}.csv", campaign.name));
            ResultStore::open(path, campaign).unwrap_or_else(|e| fail(&e))
        }
    };
    let result = CampaignRunner::from_env().run(campaign, &mut store);
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

/// Prints the §6-style method-comparison table for one workload of a
/// protocol campaign, in the workload's metric unit, and returns the
/// per-arm summaries in arm order. Exits with an error if a cell group
/// has no payloads to summarize.
pub fn campaign_method_table(
    campaign: &Campaign,
    result: &CampaignResult,
    workload: usize,
) -> Vec<(String, MethodSummary)> {
    let entries: Vec<(String, MethodSummary)> = campaign
        .arms
        .iter()
        .enumerate()
        .map(|(a, arm)| {
            let summary = result.method_summary(workload, a).unwrap_or_else(|| {
                fail(&format!(
                    "campaign '{}': arm '{}' has no deployment summaries to tabulate",
                    campaign.name, arm.label
                ))
            });
            (arm.label.clone(), summary)
        })
        .collect();
    let refs: Vec<(&str, MethodSummary)> = entries.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let unit = campaign.workloads[workload].metric.unit();
    println!("{}", method_comparison_table(unit, &refs));
    entries
}

/// The summary of the arm labeled `label` in [`campaign_method_table`]'s
/// entries.
///
/// # Panics
///
/// Panics if no entry carries `label`.
pub fn arm(entries: &[(String, MethodSummary)], label: &str) -> MethodSummary {
    entries
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("no arm labeled {label:?}"))
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
        assert_eq!(a.pick(1, 2, 3), 2);
        a.quick = true;
        assert_eq!(a.pick(1, 2, 3), 1);
        a.quick = false;
        a.full = true;
        assert_eq!(a.pick(1, 2, 3), 3);
    }

    #[test]
    fn explicit_runs_override() {
        let a = HarnessArgs {
            runs: Some(7),
            seed: 1,
            quick: true,
            ..HarnessArgs::default()
        };
        assert_eq!(a.runs_or(1, 2, 3), 7);
        assert_eq!(a.rounds_or(1, 2, 3), 1);
    }

    #[test]
    fn parse_from_accepts_all_flags() {
        let a = HarnessArgs::parse_from(&argv(&[
            "--runs",
            "4",
            "--rounds",
            "9",
            "--seed",
            "7",
            "--quick",
            "--store",
            "out",
            "--pattern",
            "diurnal",
            "--only",
            "fig12",
            "fig20",
        ]))
        .unwrap();
        assert_eq!(a.runs, Some(4));
        assert_eq!(a.rounds, Some(9));
        assert_eq!(a.seed, 7);
        assert!(a.quick && !a.full);
        assert_eq!(a.store.as_deref(), Some("out"));
        assert_eq!(a.pattern.as_deref(), Some("diurnal"));
        assert_eq!(a.only, ["fig12", "fig20"]);
        // `--only` IDs end at the next flag.
        let o = HarnessArgs::parse_from(&argv(&["--only", "table1", "--quick"])).unwrap();
        assert_eq!(o.only, ["table1"]);
        assert!(o.quick);
        let d = HarnessArgs::parse_from(&[]).unwrap();
        assert_eq!(d.seed, 42);
        assert_eq!(d.store, None);
        assert_eq!(d.pattern, None);
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
        // Unknown flags are errors, not silently ignored.
        let e = HarnessArgs::parse_from(&argv(&["--frobnicate"])).unwrap_err();
        assert!(e.contains("unknown flag '--frobnicate'"), "{e}");
        // A flag value that is itself flag-shaped parses as a value miss.
        let e = HarnessArgs::parse_from(&argv(&["--seed", "--quick"])).unwrap_err();
        assert!(e.contains("--seed requires a number"), "{e}");
        // Unknown figure IDs are refused with the known ones listed.
        let e = HarnessArgs::parse_from(&argv(&["--only", "fig12", "fig07"])).unwrap_err();
        assert!(e.contains("unknown figure 'fig07'"), "{e}");
        assert!(
            e.contains("fig02, fig03") && e.contains("arena_solvers"),
            "{e}"
        );
        let e = HarnessArgs::parse_from(&argv(&["--only", "--quick"])).unwrap_err();
        assert!(e.contains("--only requires at least one figure ID"), "{e}");
    }

    #[test]
    fn figure_ids_are_unique() {
        let mut ids: Vec<&str> = figures::FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), 22);
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
