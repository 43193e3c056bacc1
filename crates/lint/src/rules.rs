//! The builtin rule registry.
//!
//! Each rule enforces one clause of the determinism contract
//! (docs/ARCHITECTURE.md, "The determinism contract"); the mapping is
//! documented rule-by-rule in docs/LINTS.md. Rules match against the
//! *code view* produced by [`crate::scan::scan`], so pattern text inside
//! comments or string literals never trips them.

use crate::engine::FileView;

/// How a diagnostic from this rule is treated. Every builtin rule is
/// `Deny` — the test harness and CI fail on any diagnostic; `Warn` is
/// reserved for downstream rules that want report-only rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Any diagnostic fails the build.
    Deny,
    /// Reported but never fails the build.
    Warn,
}

impl Severity {
    /// Lower-case name, as printed by `tuna-lint --list`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One static-analysis rule.
pub struct Rule {
    /// Stable identifier, used in diagnostics and `lint:allow(...)`.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description for `--list`.
    pub summary: &'static str,
    /// What to do instead; appended to every diagnostic.
    pub help: &'static str,
    /// Path suffixes (with `/` separators) the rule does not apply to:
    /// files where the flagged construct is the point.
    pub allow_paths: &'static [&'static str],
    /// Whether test code — `tests/` trees and `#[cfg(test)]` items —
    /// is exempt.
    pub skip_test_code: bool,
    /// The matcher: pushes `(1-based line, message)` pairs.
    pub check: fn(&FileView, &mut Vec<(usize, String)>),
}

impl Rule {
    /// Whether `rel_path` (always `/`-separated) is allowlisted.
    pub fn path_allowed(&self, rel_path: &str) -> bool {
        self.allow_paths.iter().any(|p| rel_path.ends_with(p))
    }
}

/// Finds `needle` in `line` at identifier boundaries: the characters
/// on both sides (if any) must not continue an identifier, so
/// `HashMap` matches but `MyHashMapLike` does not.
pub fn word_hit(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let p = start + pos;
        let before_ok = line[..p]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = line[p + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        start = p + needle.len();
    }
    false
}

fn needle_rule(view: &FileView, out: &mut Vec<(usize, String)>, needles: &[&str], what: &str) {
    for (i, line) in view.code_lines.iter().enumerate() {
        for needle in needles {
            if word_hit(line, needle) {
                out.push((i + 1, format!("`{needle}` {what}")));
                break;
            }
        }
    }
}

fn wall_clock(view: &FileView, out: &mut Vec<(usize, String)>) {
    needle_rule(
        view,
        out,
        &["Instant::now", "SystemTime::now"],
        "reads the wall clock on a deterministic path",
    );
}

fn ambient_randomness(view: &FileView, out: &mut Vec<(usize, String)>) {
    needle_rule(
        view,
        out,
        &["thread_rng", "from_entropy", "RandomState"],
        "draws ambient (unseeded) randomness",
    );
}

fn unordered_iteration(view: &FileView, out: &mut Vec<(usize, String)>) {
    needle_rule(
        view,
        out,
        &["HashMap", "HashSet"],
        "has unordered (and RandomState-seeded) iteration",
    );
}

fn thread_fanout(view: &FileView, out: &mut Vec<(usize, String)>) {
    needle_rule(
        view,
        out,
        &["thread::scope", "thread::spawn", "thread::Builder"],
        "fans work out on a private thread pool",
    );
}

/// Lines of lookahead after a `partial_cmp` before `unwrap`/`expect`
/// stops counting as part of the same expression.
const FLOAT_LOOKAHEAD: usize = 2;

fn float_ordering(view: &FileView, out: &mut Vec<(usize, String)>) {
    let lines = &view.code_lines;
    for i in 0..lines.len() {
        if !word_hit(lines[i], "partial_cmp") {
            continue;
        }
        let window = &lines[i..(i + 1 + FLOAT_LOOKAHEAD).min(lines.len())];
        if window
            .iter()
            .any(|l| l.contains(".unwrap(") || l.contains(".expect("))
        {
            out.push((
                i + 1,
                "`partial_cmp` + `unwrap`/`expect` panics on NaN".to_string(),
            ));
        }
    }
}

fn undocumented_unsafe(view: &FileView, out: &mut Vec<(usize, String)>) {
    for (i, line) in view.code_lines.iter().enumerate() {
        if !word_hit(line, "unsafe") {
            continue;
        }
        let ln = i + 1;
        // A trailing comment on the line itself counts, as does any
        // line of the contiguous comment block sitting directly above.
        let mut documented = view.comment_at(ln).is_some_and(|c| c.contains("SAFETY:"));
        let mut l = ln;
        while !documented && l > 1 {
            l -= 1;
            match view.comment_at(l) {
                Some(c) => documented = c.contains("SAFETY:"),
                None => break,
            }
        }
        if !documented {
            out.push((ln, "`unsafe` without a `// SAFETY:` comment".to_string()));
        }
    }
}

/// The builtin registry, in the order `--list` prints.
pub fn builtin() -> Vec<Rule> {
    vec![
        Rule {
            id: "wall-clock",
            severity: Severity::Deny,
            summary: "Instant::now/SystemTime::now outside wall-clock-legitimate files",
            help: "thread a seam (tick count, caller-supplied clock) through instead; \
                   real time may only be *reported*, never feed results",
            allow_paths: &[
                // The daemon's readiness loop and its client genuinely
                // live on the wall clock (timeouts, budgets, watch).
                "crates/serve/src/bin/tunad.rs",
                "crates/serve/src/bin/tuna_ctl.rs",
                // The perf gate measures wall time; that is its job.
                "crates/bench/src/perf.rs",
                // Executor exec_stats reports per-lane wall-clock; the
                // timing never reaches results.
                "crates/core/src/executor.rs",
                // The obs crate's two-clock rule: WallClock is the one
                // place real time may enter telemetry, behind the Clock
                // seam. Everything else in crates/obs stays banned.
                "crates/obs/src/wall.rs",
            ],
            skip_test_code: true,
            check: wall_clock,
        },
        Rule {
            id: "ambient-randomness",
            severity: Severity::Deny,
            summary: "thread_rng/from_entropy/RandomState anywhere",
            help: "all randomness must flow from a seeded tuna_stats::Rng (fork it, \
                   never re-seed from the environment)",
            allow_paths: &[],
            skip_test_code: false,
            check: ambient_randomness,
        },
        Rule {
            id: "unordered-iteration",
            severity: Severity::Deny,
            summary: "std HashMap/HashSet outside test code",
            help: "use BTreeMap/BTreeSet (or an insertion-ordered Vec + index) so \
                   iteration order is deterministic and seed-independent",
            allow_paths: &[],
            skip_test_code: true,
            check: unordered_iteration,
        },
        Rule {
            id: "float-ordering",
            severity: Severity::Deny,
            summary: "partial_cmp followed by unwrap/expect",
            help: "use f64::total_cmp or tuna_optimizer::history::cost_cmp; a NaN \
                   measurement must rank, not panic",
            allow_paths: &[],
            skip_test_code: true,
            check: float_ordering,
        },
        Rule {
            id: "undocumented-unsafe",
            severity: Severity::Deny,
            summary: "unsafe block/fn/impl without a SAFETY: comment",
            help: "state the invariant that makes the unsafe sound in a `// SAFETY:` \
                   comment on the line or in the comment block directly above",
            allow_paths: &[],
            skip_test_code: false,
            check: undocumented_unsafe,
        },
        Rule {
            id: "thread-fanout",
            severity: Severity::Deny,
            summary: "thread::scope/spawn/Builder outside the workspace pool",
            help: "fan work out through tuna_stats::pool::map, which returns results in \
                   item order whoever ran them",
            allow_paths: &[
                // The one pool.
                "crates/stats/src/pool.rs",
                // The daemon's long-lived workers are not a fan-out:
                // they serve the readiness loop for the process lifetime.
                "crates/serve/src/bin/tunad.rs",
                // The repo benchmark's own reconstruction of the campaign
                // runner, which times the runner's seams from outside.
                "perfbench/src/campaign.rs",
            ],
            skip_test_code: true,
            check: thread_fanout,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::word_hit;

    #[test]
    fn word_boundaries() {
        assert!(word_hit("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(word_hit("HashMap::new()", "HashMap"));
        assert!(!word_hit("struct MyHashMapLike;", "HashMap"));
        assert!(!word_hit("undocumented_unsafe(x)", "unsafe"));
        assert!(word_hit("unsafe { poll() }", "unsafe"));
        assert!(!word_hit("nowhere", "now"));
    }
}
