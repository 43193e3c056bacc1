//! The §6 protocol prelude: a figure that tunes with each method, deploys
//! the winners on fresh VMs and compares the arms declares its campaign
//! and a claim list; this runs it at the figure's budgets, renders the
//! method table and measures each claim from the table's arms.

use super::report::{Claim, FigureReport};
use crate::{fail, HarnessArgs};
use tuna_core::campaign::{Campaign, CampaignResult};
use tuna_core::experiment::Method;
use tuna_core::report::{method_comparison_table, MethodSummary};
use tuna_workloads::Workload;

/// The standard §6 method-comparison arms: TUNA vs traditional sampling
/// vs the vendor default.
pub const METHODS: [(&str, Method); 3] = [
    ("TUNA", Method::Tuna),
    ("Traditional", Method::Traditional),
    ("Default", Method::DefaultConfig),
];

/// How a §6 claim compares two arms of a method table, named by label.
#[derive(Debug, Clone, Copy)]
pub enum Versus {
    /// The first arm's mean over the second's, minus one.
    MeanChange(&'static str, &'static str),
    /// The first arm's mean over the second's.
    MeanRatio(&'static str, &'static str),
    /// The first arm's average std over the second's (floored at 1e-9).
    StdRatio(&'static str, &'static str),
}

impl Versus {
    /// The comparison over `table`'s arms.
    pub fn value(self, table: &[(String, MethodSummary)]) -> f64 {
        match self {
            Versus::MeanChange(a, b) => Versus::MeanRatio(a, b).value(table) - 1.0,
            Versus::MeanRatio(a, b) => arm(table, a).mean_of_means / arm(table, b).mean_of_means,
            Versus::StdRatio(a, b) => arm(table, a).mean_std / arm(table, b).mean_std.max(1e-9),
        }
    }
}

/// A protocol campaign of `methods` on `workloads` at the budgets `args`
/// picks: `quick` (runs, rounds) under `--quick`, else the paper's 10
/// runs of 96 rounds.
pub fn campaign(
    args: &HarnessArgs,
    name: &str,
    workloads: Vec<Workload>,
    methods: &[(&str, Method)],
    quick: (usize, usize),
) -> Campaign {
    Campaign::protocol(name, args.seed, workloads, methods)
        .with_runs(args.runs_or(quick.0, 10))
        .with_rounds(args.rounds_or(quick.1, 96))
}

/// Reports the method table of `campaign`'s first workload from its
/// `result`, then `claims` measured from that table.
pub fn report<K>(
    campaign: &Campaign,
    result: &CampaignResult<K>,
    claims: &'static [(Claim, Versus)],
) -> FigureReport {
    let mut report = FigureReport::default();
    let table = table(&mut report, campaign, result, 0);
    for (claim, versus) in claims {
        report.claim(claim, versus.value(&table), "");
    }
    report
}

/// Renders the method-comparison table of `campaign`'s `workload` into
/// `report`, in the workload's metric unit, and returns the per-arm
/// summaries in arm order. Exits with an error if a cell group has no
/// deployment rows to summarize.
pub fn table<K>(
    report: &mut FigureReport,
    campaign: &Campaign,
    result: &CampaignResult<K>,
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
    report.line(method_comparison_table(unit, &refs));
    entries
}

/// The summary of the arm labeled `label` in a method table.
///
/// # Panics
///
/// Panics if no entry carries `label`.
pub fn arm(table: &[(String, MethodSummary)], label: &str) -> MethodSummary {
    table
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("no arm labeled {label:?}"))
}
