//! The wire-level study schema: what a client submits and how it maps
//! onto a [`Campaign`].
//!
//! A study is submitted as one JSON document:
//!
//! ```json
//! {
//!   "name": "nightly-tpcc",
//!   "seed": 42,
//!   "runs": 3,
//!   "rounds": 24,
//!   "optimizer": "smac",
//!   "workloads": ["tpcc", "ycsb-c"],
//!   "arms": [
//!     {"label": "TUNA", "method": "tuna"},
//!     {"label": "Traditional", "method": "traditional"},
//!     {"label": "Default", "method": "default"}
//!   ]
//! }
//! ```
//!
//! The spec is the durable identity of a study: the daemon persists the
//! *canonical* serialization ([`StudySpec::to_json`]) next to the
//! study's result store and rebuilds the [`Campaign`] from it after a
//! restart, so a killed daemon resumes exactly the declaration the
//! client submitted (the store's declaration digest is re-verified on
//! load). Validation is strict — every limit that the campaign layer
//! enforces with a panic (arm labels, grid shape) is checked here with
//! an `Err` first, because this input arrives from the network.

use tuna_core::campaign::{Arm, Campaign, Recipe};
use tuna_core::experiment::{Method, SolverId};
use tuna_stats::json::{self, Value};

/// Hard cap on cells per study; a submission above this is refused.
pub const MAX_CELLS: usize = 100_000;

/// Hard cap on a study's `max_workers` declaration.
pub const MAX_WORKER_CAP: usize = 1_000_000;

/// Scheduling lane of a study.
///
/// `interactive` studies (short probes, `run-local`-style) preempt
/// `batch` work at cell boundaries: while any interactive study has
/// pending cells, the scheduler hands out no batch cells. Running batch
/// cells are never aborted — preemption waits for the cell boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Default lane for long-running campaigns.
    Batch,
    /// Preempting lane for short probes.
    Interactive,
}

impl Lane {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Lane::Batch => "batch",
            Lane::Interactive => "interactive",
        }
    }
}

/// A validated study submission.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Study name: unique per tenant namespace, `[A-Za-z0-9._-]`, also
    /// the stem of the on-disk spec/store files.
    pub name: String,
    /// Tenant namespace the study belongs to. `None` on the wire means
    /// "whoever is submitting" — the router fills in the authenticated
    /// tenant before the manager sees the spec. The default tenant
    /// stays implicit (the manager normalizes it back to `None`) so a
    /// loopback spec's persisted bytes are exactly the pre-tenant ones.
    pub tenant: Option<String>,
    /// Scheduling lane (default [`Lane::Batch`]).
    pub lane: Lane,
    /// Per-study worker cap: at most this many of the study's cells in
    /// flight at once (`0` = unlimited, the default).
    pub max_workers: usize,
    /// Campaign root seed.
    pub seed: u64,
    /// Independent runs (seeds) per (workload, arm).
    pub runs: usize,
    /// Tuning rounds for protocol arms.
    pub rounds: usize,
    /// Optimizer (solver registry name) driving the arms.
    pub optimizer: SolverId,
    /// Workload names (validated against [`tuna_workloads::all_workloads`]).
    pub workloads: Vec<String>,
    /// `(label, method)` arms.
    pub arms: Vec<(String, Method)>,
}

fn method_wire_name(m: &Method) -> &'static str {
    match m {
        Method::Tuna => "tuna",
        Method::TunaNoOutlier => "tuna-no-outlier",
        Method::TunaNoAdjuster => "tuna-no-adjuster",
        Method::Traditional => "traditional",
        Method::TraditionalExtended { .. } => "traditional-extended",
        Method::NaiveDistributed { .. } => "naive-distributed",
        Method::DefaultConfig => "default",
    }
}

fn parse_method(arm: &Value) -> Result<Method, String> {
    let name = arm
        .get("method")
        .and_then(Value::as_str)
        .ok_or("arm lacks a string 'method'")?;
    let samples = || -> Result<usize, String> {
        let n = arm
            .get("samples")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("method '{name}' requires a numeric 'samples'"))?;
        if n.fract() != 0.0 || !(1.0..=1e9).contains(&n) {
            return Err(format!("'samples' must be a positive integer, got {n}"));
        }
        Ok(n as usize)
    };
    match name {
        "tuna" => Ok(Method::Tuna),
        "tuna-no-outlier" => Ok(Method::TunaNoOutlier),
        "tuna-no-adjuster" => Ok(Method::TunaNoAdjuster),
        "traditional" => Ok(Method::Traditional),
        "traditional-extended" => Ok(Method::TraditionalExtended {
            samples: samples()?,
        }),
        "naive-distributed" => Ok(Method::NaiveDistributed {
            samples: samples()?,
        }),
        "default" => Ok(Method::DefaultConfig),
        other => Err(format!(
            "unknown method '{other}' (expected tuna | tuna-no-outlier | tuna-no-adjuster | \
             traditional | traditional-extended | naive-distributed | default)"
        )),
    }
}

/// Whether a name is usable as a study id and file stem.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.starts_with('.')
}

fn parse_u64_field(obj: &Value, name: &str, default: Option<u64>) -> Result<u64, String> {
    match obj.get(name) {
        None => default.ok_or_else(|| format!("missing field '{name}'")),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("'{name}' must be a number"))?;
            if x.fract() != 0.0 || !(0.0..=1.8e19).contains(&x) {
                return Err(format!("'{name}' must be a non-negative integer, got {x}"));
            }
            Ok(x as u64)
        }
    }
}

impl StudySpec {
    /// Parses and validates a submission document.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message on malformed JSON, unknown
    /// workloads/methods/optimizers, invalid names or labels, or a grid
    /// over [`MAX_CELLS`].
    pub fn parse(text: &str) -> Result<StudySpec, String> {
        let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        if v.as_obj().is_none() {
            return Err("study spec must be a JSON object".into());
        }

        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing string field 'name'")?
            .to_string();
        if !valid_name(&name) {
            return Err(format!(
                "invalid study name {name:?}: use 1-128 chars of [A-Za-z0-9._-], not starting with '.'"
            ));
        }

        let tenant = match v.get("tenant").map(|t| t.as_str()) {
            None => None,
            Some(Some(t)) if valid_name(t) => Some(t.to_string()),
            Some(Some(t)) => return Err(format!("invalid tenant name {t:?}")),
            Some(None) => return Err("'tenant' must be a string".into()),
        };

        let lane = match v.get("lane").map(|l| l.as_str()) {
            None => Lane::Batch,
            Some(Some("batch")) => Lane::Batch,
            Some(Some("interactive")) => Lane::Interactive,
            Some(Some(other)) => {
                return Err(format!(
                    "unknown lane '{other}' (expected batch | interactive)"
                ))
            }
            Some(None) => return Err("'lane' must be a string".into()),
        };

        let max_workers = parse_u64_field(&v, "max_workers", Some(0))? as usize;
        if max_workers > MAX_WORKER_CAP {
            return Err(format!("'max_workers' must be at most {MAX_WORKER_CAP}"));
        }

        let seed = parse_u64_field(&v, "seed", Some(42))?;
        let runs = parse_u64_field(&v, "runs", Some(1))? as usize;
        let rounds = parse_u64_field(&v, "rounds", Some(96))? as usize;
        if runs == 0 || rounds == 0 {
            return Err("'runs' and 'rounds' must be at least 1".into());
        }

        // Any solver-registry name is a valid wire value; the original
        // "smac"/"gp" submissions parse unchanged.
        let optimizer = match v.get("optimizer").map(|o| o.as_str()) {
            None => SolverId::smac(),
            Some(Some(name)) => SolverId::new(name)?,
            Some(None) => return Err("'optimizer' must be a string".into()),
        };

        let known = tuna_workloads::all_workloads();
        let workloads = v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing array field 'workloads'")?
            .iter()
            .map(|w| {
                let name = w.as_str().ok_or("workload entries must be strings")?;
                if known.iter().any(|k| k.name == name) {
                    Ok(name.to_string())
                } else {
                    let names: Vec<&str> = known.iter().map(|k| k.name).collect();
                    Err(format!(
                        "unknown workload '{name}' (expected one of {names:?})"
                    ))
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        if workloads.is_empty() {
            return Err("'workloads' must not be empty".into());
        }

        let arms = v
            .get("arms")
            .and_then(Value::as_arr)
            .ok_or("missing array field 'arms'")?
            .iter()
            .map(|arm| {
                let label = arm
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or("arm lacks a string 'label'")?
                    .to_string();
                if label.is_empty()
                    || label.len() > 128
                    || label.contains(',')
                    || label.contains('\n')
                {
                    return Err(format!(
                        "invalid arm label {label:?}: 1-128 chars, no commas or newlines"
                    ));
                }
                Ok((label, parse_method(arm)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if arms.is_empty() {
            return Err("'arms' must not be empty".into());
        }
        let mut labels: Vec<&str> = arms.iter().map(|(l, _)| l.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != arms.len() {
            return Err("arm labels must be unique".into());
        }

        // Checked arithmetic: runs is attacker-controlled and can sit
        // near u64::MAX, so an unchecked product would overflow (panic
        // in debug, wrap past the limit in release).
        workloads
            .len()
            .checked_mul(arms.len())
            .and_then(|x| x.checked_mul(runs))
            .filter(|&c| c <= MAX_CELLS)
            .ok_or_else(|| format!("study declares more than {MAX_CELLS} cells"))?;

        Ok(StudySpec {
            name,
            tenant,
            lane,
            max_workers,
            seed,
            runs,
            rounds,
            optimizer,
            workloads,
            arms,
        })
    }

    /// The canonical serialization — what the daemon persists and what
    /// [`StudySpec::parse`] round-trips.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": {},\n", json::quote(&self.name)));
        // Tenant-era fields serialize only when set so that the
        // canonical form of a pre-tenant spec is byte-identical to what
        // a pre-tenant daemon persisted.
        if let Some(tenant) = &self.tenant {
            out.push_str(&format!("  \"tenant\": {},\n", json::quote(tenant)));
        }
        if self.lane != Lane::Batch {
            out.push_str(&format!("  \"lane\": \"{}\",\n", self.lane.label()));
        }
        if self.max_workers > 0 {
            out.push_str(&format!("  \"max_workers\": {},\n", self.max_workers));
        }
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"runs\": {},\n", self.runs));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!(
            "  \"optimizer\": \"{}\",\n",
            self.optimizer.as_str()
        ));
        out.push_str(&format!(
            "  \"workloads\": [{}],\n",
            self.workloads
                .iter()
                .map(|w| json::quote(w))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"arms\": [\n");
        for (i, (label, method)) in self.arms.iter().enumerate() {
            let samples = match method {
                Method::TraditionalExtended { samples } | Method::NaiveDistributed { samples } => {
                    format!(", \"samples\": {samples}")
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "    {{\"label\": {}, \"method\": \"{}\"{samples}}}{}\n",
                json::quote(label),
                method_wire_name(method),
                if i + 1 == self.arms.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The number of cells the spec declares (validated against
    /// [`MAX_CELLS`] at parse time, so this cannot overflow).
    pub fn n_cells(&self) -> usize {
        self.workloads.len() * self.arms.len() * self.runs
    }

    /// Builds the campaign this spec declares. Infallible after
    /// [`StudySpec::parse`]'s validation.
    ///
    /// The tenant, lane and worker cap deliberately do *not* enter the
    /// campaign: they say who owns the study and when its cells run,
    /// never what the cells compute — so the campaign digest (and every
    /// result byte) is independent of scheduling policy.
    pub fn to_campaign(&self) -> Campaign {
        let known = tuna_workloads::all_workloads();
        let workloads = self
            .workloads
            .iter()
            .map(|name| {
                known
                    .iter()
                    .find(|k| k.name == name)
                    .expect("validated workload name")
                    .clone()
            })
            .collect();
        let mut campaign = Campaign::protocol(self.name.clone(), self.seed, workloads, &[])
            .with_runs(self.runs)
            .with_rounds(self.rounds)
            .with_optimizer(self.optimizer.clone());
        campaign.arms = self
            .arms
            .iter()
            .map(|(label, method)| Arm::new(label.clone(), Recipe::protocol(*method)))
            .collect();
        campaign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_text() -> String {
        r#"{
            "name": "demo-1",
            "seed": 7,
            "runs": 2,
            "rounds": 3,
            "workloads": ["tpcc", "ycsb-c"],
            "arms": [
                {"label": "TUNA", "method": "tuna"},
                {"label": "Naive", "method": "naive-distributed", "samples": 50},
                {"label": "Default", "method": "default"}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_and_roundtrips_canonically() {
        let spec = StudySpec::parse(&demo_text()).unwrap();
        assert_eq!(spec.name, "demo-1");
        assert_eq!(spec.arms.len(), 3);
        assert_eq!(spec.arms[1].1, Method::NaiveDistributed { samples: 50 });
        let canonical = spec.to_json();
        let reparsed = StudySpec::parse(&canonical).unwrap();
        assert_eq!(reparsed, spec);
        // Canonical serialization is a fixed point.
        assert_eq!(reparsed.to_json(), canonical);
    }

    #[test]
    fn campaign_matches_declaration() {
        let spec = StudySpec::parse(&demo_text()).unwrap();
        let c = spec.to_campaign();
        assert_eq!(c.n_cells(), 2 * 3 * 2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.workloads[1].name, "ycsb-c");
        assert_eq!(c.arms[0].label, "TUNA");
        // Same spec, same digest — the resume identity.
        assert_eq!(c.digest(), spec.to_campaign().digest());
    }

    #[test]
    fn defaults_are_filled_in() {
        let spec = StudySpec::parse(
            r#"{"name": "d", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.runs, 1);
        assert_eq!(spec.rounds, 96);
        assert_eq!(spec.optimizer, SolverId::smac());
        assert_eq!(spec.tenant, None);
        assert_eq!(spec.lane, Lane::Batch);
        assert_eq!(spec.max_workers, 0);
    }

    #[test]
    fn tenant_fields_round_trip_and_stay_out_of_the_campaign() {
        let spec = StudySpec::parse(
            r#"{"name": "probe", "tenant": "alice", "lane": "interactive",
                "max_workers": 2, "runs": 2, "rounds": 2,
                "workloads": ["tpcc"],
                "arms": [{"label": "x", "method": "default"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.tenant.as_deref(), Some("alice"));
        assert_eq!(spec.lane, Lane::Interactive);
        assert_eq!(spec.max_workers, 2);
        assert_eq!(spec.n_cells(), 2);
        let canonical = spec.to_json();
        let reparsed = StudySpec::parse(&canonical).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_json(), canonical);
        // Scheduling policy never reaches the campaign digest: the same
        // declaration under any tenant/lane/cap computes the same cells.
        let mut plain = spec.clone();
        plain.tenant = None;
        plain.lane = Lane::Batch;
        plain.max_workers = 0;
        assert_eq!(spec.to_campaign().digest(), plain.to_campaign().digest());
        // An explicit "lane": "batch" normalizes away (canonical form
        // omits defaults), so pre-tenant canonical bytes are unchanged.
        let batch = StudySpec::parse(
            r#"{"name": "d", "lane": "batch", "workloads": ["tpcc"],
                "arms": [{"label": "x", "method": "default"}]}"#,
        )
        .unwrap();
        assert!(!batch.to_json().contains("lane"), "{}", batch.to_json());
    }

    #[test]
    fn rejects_bad_specs() {
        for (text, needle) in [
            ("not json", "invalid JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"workloads": [], "arms": []}"#, "'name'"),
            (
                r#"{"name": "bad name!", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "invalid study name",
            ),
            (
                r#"{"name": "d", "workloads": ["nope"], "arms": [{"label": "x", "method": "default"}]}"#,
                "unknown workload",
            ),
            (
                r#"{"name": "d", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "frob"}]}"#,
                "unknown method",
            ),
            (
                r#"{"name": "d", "workloads": ["tpcc"], "arms": [{"label": "a,b", "method": "default"}]}"#,
                "invalid arm label",
            ),
            (
                r#"{"name": "d", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "naive-distributed"}]}"#,
                "'samples'",
            ),
            (
                r#"{"name": "d", "runs": 0, "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "at least 1",
            ),
            (
                r#"{"name": "d", "runs": 2.5, "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "non-negative integer",
            ),
            (
                r#"{"name": "d", "runs": 1000000, "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "cells",
            ),
            // Near-u64::MAX runs must not overflow the cell product
            // (panic in debug, wrap past the limit in release).
            (
                r#"{"name": "d", "runs": 9223372036854775808, "workloads": ["tpcc", "ycsb-c"], "arms": [{"label": "x", "method": "default"}]}"#,
                "cells",
            ),
            (
                r#"{"name": "d", "optimizer": "adam", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "unknown solver",
            ),
            (
                r#"{"name": "d", "tenant": "bad tenant", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "invalid tenant name",
            ),
            (
                r#"{"name": "d", "lane": "express", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "unknown lane",
            ),
            (
                r#"{"name": "d", "max_workers": 2.5, "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}]}"#,
                "non-negative integer",
            ),
            (
                r#"{"name": "d", "workloads": ["tpcc"], "arms": [{"label": "x", "method": "default"}, {"label": "x", "method": "tuna"}]}"#,
                "unique",
            ),
        ] {
            let err = StudySpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("a-b_c.9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("path/../escape"));
        assert!(!valid_name(&"x".repeat(129)));
    }
}
