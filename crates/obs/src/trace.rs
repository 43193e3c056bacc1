//! The per-study convergence trace: best-cost-so-far series per arm,
//! per cell — the answer to "is this study converging, and how fast?".
//!
//! The rows a cell records are per-configuration *measurements*; the
//! convergence series lives in the tuning pipeline's iteration trace,
//! which is only materialized while a cell executes. To serve
//! `GET /v1/studies/<name>/trace` after a restart without re-running
//! anything, the serve manager records each cell's [`CellTrace`] in the
//! study's result journal, as one line ([`CellTrace::render_line`])
//! ahead of the cell's rows and in the same append. The journal's
//! torn-tail rule therefore keeps or drops a cell's rows and trace
//! together, and the assembled [`StudyTrace`] is byte-identical across
//! kill/restart and across `TUNA_WORKERS`.
//!
//! A line is one JSON object with no newline. All JSON goes through
//! `tuna_stats::json`, the workspace's single JSON surface.

use tuna_stats::json::{self, fmt_f64, quote, Value};

/// One arm's convergence series inside a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmTrace {
    /// Arm label, e.g. `TUNA` or `naive`.
    pub label: String,
    /// `(round, best_cost_so_far)` per tuning round that reported a
    /// best value.
    pub series: Vec<(u64, f64)>,
}

/// The convergence trace of one completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// Cell index within the campaign.
    pub cell: u64,
    /// Workload label at these coordinates.
    pub workload: String,
    /// Arm label at these coordinates.
    pub arm: String,
    /// Run (seed repeat) index at these coordinates.
    pub run: u64,
    /// One entry per tuner that ran in the cell (two for paired
    /// TUNA-vs-naive cells, one otherwise; empty when the arm does not
    /// tune, e.g. a static default-configuration arm).
    pub arms: Vec<ArmTrace>,
}

/// The assembled per-study document served by the trace endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyTrace {
    /// Study name.
    pub study: String,
    /// The campaign digest (pins the declaration the trace belongs to).
    pub digest: String,
    /// Total cells in the campaign (traced or not).
    pub n_cells: u64,
    /// Traced cells, sorted by cell index.
    pub cells: Vec<CellTrace>,
}

impl ArmTrace {
    fn render(&self) -> String {
        let points: Vec<String> = self
            .series
            .iter()
            .map(|(r, v)| format!("[{r},{}]", fmt_f64(*v)))
            .collect();
        format!(
            "{{\"label\":{},\"series\":[{}]}}",
            quote(&self.label),
            points.join(",")
        )
    }

    fn parse(v: &Value) -> Result<ArmTrace, String> {
        let label = v
            .get("label")
            .and_then(Value::as_str)
            .ok_or("arm missing 'label'")?
            .to_string();
        let mut series = Vec::new();
        for point in v
            .get("series")
            .and_then(Value::as_arr)
            .ok_or("arm missing 'series'")?
        {
            let pair = point.as_arr().ok_or("series point is not a pair")?;
            if pair.len() != 2 {
                return Err("series point is not a pair".into());
            }
            let round = pair[0].as_f64().ok_or("series round is not a number")? as u64;
            // A quarantined non-finite best renders as null; keep the
            // round with a NaN marker so the series length survives.
            let best = pair[1].as_f64().unwrap_or(f64::NAN);
            series.push((round, best));
        }
        Ok(ArmTrace { label, series })
    }
}

impl CellTrace {
    /// Render as one canonical line (no trailing newline).
    pub fn render_line(&self) -> String {
        let arms: Vec<String> = self.arms.iter().map(ArmTrace::render).collect();
        format!(
            "{{\"cell\":{},\"workload\":{},\"arm\":{},\"run\":{},\"arms\":[{}]}}",
            self.cell,
            quote(&self.workload),
            quote(&self.arm),
            self.run,
            arms.join(",")
        )
    }

    /// Parse one line rendered by [`CellTrace::render_line`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing field, never a
    /// panic.
    pub fn parse_line(line: &str) -> Result<CellTrace, String> {
        let v = json::parse(line)?;
        let cell = v
            .get("cell")
            .and_then(Value::as_f64)
            .ok_or("line missing 'cell'")? as u64;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("line missing 'workload'")?
            .to_string();
        let arm = v
            .get("arm")
            .and_then(Value::as_str)
            .ok_or("line missing 'arm'")?
            .to_string();
        let run = v
            .get("run")
            .and_then(Value::as_f64)
            .ok_or("line missing 'run'")? as u64;
        let mut arms = Vec::new();
        for a in v
            .get("arms")
            .and_then(Value::as_arr)
            .ok_or("line missing 'arms'")?
        {
            arms.push(ArmTrace::parse(a)?);
        }
        Ok(CellTrace {
            cell,
            workload,
            arm,
            run,
            arms,
        })
    }
}

impl StudyTrace {
    /// Render the wire document served by
    /// `GET /v1/studies/<name>/trace`. Cells are sorted by index and
    /// no clock values appear, so the document is byte-identical
    /// across worker counts and restarts.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(CellTrace::render_line).collect();
        format!(
            "{{\"study\":{},\"digest\":{},\"n_cells\":{},\"cells\":[{}]}}\n",
            quote(&self.study),
            quote(&self.digest),
            self.n_cells,
            cells.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(idx: u64) -> CellTrace {
        CellTrace {
            cell: idx,
            workload: "tpcc".into(),
            arm: "TUNA".into(),
            run: idx % 2,
            arms: vec![ArmTrace {
                label: "TUNA".into(),
                series: vec![(0, 2.5), (1, 1.25), (2, 1.25)],
            }],
        }
    }

    #[test]
    fn line_roundtrip() {
        let c = cell(3);
        let line = c.render_line();
        assert!(!line.contains('\n'));
        assert_eq!(CellTrace::parse_line(&line).unwrap(), c);
    }

    #[test]
    fn nan_best_survives_as_null() {
        let c = CellTrace {
            arms: vec![ArmTrace {
                label: "TUNA".into(),
                series: vec![(0, f64::NAN)],
            }],
            ..cell(0)
        };
        let line = c.render_line();
        assert!(line.contains("[0,null]"));
        let parsed = CellTrace::parse_line(&line).unwrap();
        assert!(parsed.arms[0].series[0].1.is_nan());
    }

    #[test]
    fn study_document_is_canonical() {
        let doc = StudyTrace {
            study: "alpha".into(),
            digest: "deadbeef".into(),
            n_cells: 4,
            cells: vec![cell(0), cell(1)],
        };
        let text = doc.to_json();
        assert!(text.ends_with('\n'));
        let v = json::parse(text.trim_end()).unwrap();
        assert_eq!(v.get("study").and_then(Value::as_str), Some("alpha"));
        assert_eq!(v.get("n_cells").and_then(Value::as_f64), Some(4.0));
        assert_eq!(v.get("cells").and_then(Value::as_arr).unwrap().len(), 2);
    }
}
