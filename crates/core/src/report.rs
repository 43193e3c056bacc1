//! Plain-text reporting for experiment results.
//!
//! The figures (`tuna figures`) print the same rows/series the paper plots;
//! these helpers keep their output consistent.

use crate::deploy::DeployStats;
use crate::experiment::RunSummary;
use tuna_stats::summary;

/// Renders a fixed-width table. The first row is the header.
///
/// # Panics
///
/// Panics if rows have inconsistent widths.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == cols), "ragged table rows");
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (w, cell) in widths.iter().zip(row) {
            out.push_str(&format!("{cell:<width$}  ", width = w));
        }
        out.pop();
        out.pop();
        out.push('\n');
        if i == 0 {
            for (j, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if j + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Formats a float with sensible precision for its magnitude.
pub fn fmt_value(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1_000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.1 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

/// Summarizes deployment stats of many runs of one method: per-run means
/// and per-run standard deviations averaged, as the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSummary {
    /// Average of per-run deployment means.
    pub mean_of_means: f64,
    /// Average of per-run deployment standard deviations.
    pub mean_std: f64,
    /// Worst single deployment value seen across runs.
    pub worst: f64,
    /// Best single deployment value seen across runs.
    pub best: f64,
    /// Total crashed deployment runs.
    pub crashes: usize,
    /// Number of runs.
    pub n_runs: usize,
}

/// Aggregates run summaries of one method.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn summarize_method(runs: &[RunSummary]) -> MethodSummary {
    assert!(!runs.is_empty(), "no runs to summarize");
    let means: Vec<f64> = runs.iter().map(|r| r.deployment.mean).collect();
    let stds: Vec<f64> = runs.iter().map(|r| r.deployment.std).collect();
    let all: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.deployment.values.iter().copied())
        .collect();
    MethodSummary {
        mean_of_means: summary::mean(&means),
        mean_std: summary::mean(&stds),
        worst: summary::min(&all).expect("non-empty"),
        best: summary::max(&all).expect("non-empty"),
        crashes: runs.iter().map(|r| r.deployment.crashes).sum(),
        n_runs: runs.len(),
    }
}

/// Renders the standard method-comparison table used by the Figure 11-15
/// regenerators.
pub fn method_comparison_table(unit: &str, entries: &[(&str, MethodSummary)]) -> String {
    let mut rows = vec![vec![
        "method".to_string(),
        format!("mean ({unit})"),
        format!("std ({unit})"),
        format!("min ({unit})"),
        format!("max ({unit})"),
        "crashes".to_string(),
        "runs".to_string(),
    ]];
    for (name, s) in entries {
        rows.push(vec![
            name.to_string(),
            fmt_value(s.mean_of_means),
            fmt_value(s.mean_std),
            fmt_value(s.worst),
            fmt_value(s.best),
            s.crashes.to_string(),
            s.n_runs.to_string(),
        ]);
    }
    render_table(&rows)
}

/// Renders one deployment's boxplot-style summary line.
pub fn deploy_line(name: &str, stats: &DeployStats) -> String {
    format!(
        "{name}: mean={} std={} min={} q1={} med={} q3={} max={} crashes={}",
        fmt_value(stats.mean),
        fmt_value(stats.std),
        fmt_value(stats.five.min),
        fmt_value(stats.five.q1),
        fmt_value(stats.five.median),
        fmt_value(stats.five.q3),
        fmt_value(stats.five.max),
        stats.crashes
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let rows = vec![
            vec!["a".to_string(), "long-header".to_string()],
            vec!["value".to_string(), "x".to_string()],
        ];
        let t = render_table(&rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render_table(&[vec!["a".to_string()], vec![]]);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(1925.3), "1925");
        assert_eq!(fmt_value(69.04), "69.0");
        assert_eq!(fmt_value(0.492), "0.492");
        assert_eq!(fmt_value(0.0492), "0.0492");
        assert_eq!(fmt_value(0.0), "0");
    }
}
