//! The analysis engine: walks a source tree, applies the rule
//! registry to each file's code view, and resolves suppressions.
//!
//! Three frontends drive this one core: the `tuna-lint` binary, the
//! `tests/source_lints.rs` harness (so `cargo test` fails on any
//! diagnostic), and the CI `lints` job.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::rules::{self, Rule};
use crate::scan::{scan, Comment};

/// Rule id under which suppression-hygiene diagnostics are reported.
/// Not a real registry rule: suppressions cannot suppress themselves.
pub const SUPPRESSION_RULE: &str = "suppression";

const SUPPRESSION_HELP: &str = "write `// lint:allow(<rule>): <justification>`; \
     the justification is mandatory and the suppression must actually hit";

/// One finding, ready to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (or [`SUPPRESSION_RULE`]).
    pub rule: String,
    /// Path relative to the scanned root, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// What to do instead.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Outcome of a tree scan.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// All diagnostics, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

/// Per-file context handed to rule matchers.
pub struct FileView<'a> {
    /// The blanked code view, split into lines.
    pub code_lines: Vec<&'a str>,
    comment_by_line: BTreeMap<usize, String>,
}

impl FileView<'_> {
    /// Comment text on `line` (1-based), if any; a line carrying
    /// several comments gets them joined with a space.
    pub fn comment_at(&self, line: usize) -> Option<&str> {
        self.comment_by_line.get(&line).map(String::as_str)
    }
}

/// Whether `rel_path` lives in a `tests/` tree (integration tests may
/// use whatever constructs a test needs, for rules that opt out of
/// test code).
fn is_test_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|c| c == "tests")
}

/// Marks the lines belonging to `#[cfg(test)]` items (typically
/// `mod tests { ... }`) by brace tracking over the code view.
fn test_item_lines(code_lines: &[&str]) -> Vec<bool> {
    let n = code_lines.len();
    let mut flags = vec![false; n];
    let mut i = 0;
    while i < n {
        if !code_lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip any further attributes to the decorated item.
        let mut j = i + 1;
        while j < n {
            let t = code_lines[j].trim_start();
            if t.is_empty() || t.starts_with("#[") {
                j += 1;
            } else {
                break;
            }
        }
        // Track the item to its end: balanced braces, or a `;` before
        // any brace opens (e.g. `#[cfg(test)] use ...;`).
        let mut depth: i64 = 0;
        let mut open_seen = false;
        let mut k = j.min(n.saturating_sub(1));
        'item: while k < n {
            flags[k] = true;
            for ch in code_lines[k].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        open_seen = true;
                    }
                    '}' => {
                        depth -= 1;
                        if open_seen && depth <= 0 {
                            break 'item;
                        }
                    }
                    ';' if !open_seen => break 'item,
                    _ => {}
                }
            }
            k += 1;
        }
        for flag in flags.iter_mut().take(k.min(n)).skip(i) {
            *flag = true;
        }
        i = (k + 1).max(j);
    }
    flags
}

enum SupParse {
    Valid { rule: String },
    Malformed { why: &'static str },
}

/// Parses a `lint:allow(...)` marker out of one comment's text.
/// Returns `None` when the comment is not a suppression at all. A
/// suppression must be the comment's whole content (the trimmed text
/// *starts with* the marker) — prose that merely mentions the syntax,
/// like this sentence, is not one.
fn parse_suppression(text: &str) -> Option<SupParse> {
    let trimmed = text.trim_start();
    let rest = trimmed.strip_prefix("lint:allow")?.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(SupParse::Malformed {
            why: "missing `(<rule>)` after `lint:allow`",
        });
    };
    let Some(close) = rest.find(')') else {
        return Some(SupParse::Malformed {
            why: "unclosed `(` in `lint:allow`",
        });
    };
    let rule = rest[..close].trim();
    if rule.is_empty() {
        return Some(SupParse::Malformed {
            why: "empty rule id in `lint:allow()`",
        });
    }
    let after = rest[close + 1..].trim_start();
    let just = match after.strip_prefix(':') {
        Some(j) => j,
        None => {
            return Some(SupParse::Malformed {
                why: "suppression without a justification (expected `): <why>`)",
            })
        }
    };
    if just.trim().is_empty() {
        return Some(SupParse::Malformed {
            why: "suppression with an empty justification",
        });
    }
    Some(SupParse::Valid {
        rule: rule.to_string(),
    })
}

struct Suppression {
    line: usize,
    rule: String,
    used: bool,
}

/// The engine: a rule registry plus the walking/suppression logic.
pub struct Engine {
    rules: Vec<Rule>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builtin()
    }
}

impl Engine {
    /// Engine with the builtin registry ([`rules::builtin`]).
    pub fn builtin() -> Self {
        Engine {
            rules: rules::builtin(),
        }
    }

    /// The registered rules, in `--list` order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Analyzes one file's source text. `rel_path` must be
    /// `/`-separated and relative to the tree root (it drives path
    /// allowlists and `tests/` detection).
    pub fn check_file(&self, rel_path: &str, text: &str) -> Vec<Diagnostic> {
        let scanned = scan(text);
        let code_lines: Vec<&str> = scanned.code.lines().collect();
        let mut comment_by_line: BTreeMap<usize, String> = BTreeMap::new();
        for Comment { line, text } in &scanned.comments {
            let slot = comment_by_line.entry(*line).or_default();
            if !slot.is_empty() {
                slot.push(' ');
            }
            slot.push_str(text);
        }
        let view = FileView {
            code_lines,
            comment_by_line,
        };
        let in_tests_dir = is_test_path(rel_path);
        let test_lines = test_item_lines(&view.code_lines);

        let mut found: Vec<Diagnostic> = Vec::new();
        for rule in &self.rules {
            if rule.path_allowed(rel_path) {
                continue;
            }
            let mut hits: Vec<(usize, String)> = Vec::new();
            (rule.check)(&view, &mut hits);
            for (line, message) in hits {
                if rule.skip_test_code
                    && (in_tests_dir || test_lines.get(line - 1).copied().unwrap_or(false))
                {
                    continue;
                }
                found.push(Diagnostic {
                    rule: rule.id.to_string(),
                    path: rel_path.to_string(),
                    line,
                    message,
                    help: rule.help.to_string(),
                });
            }
        }

        // Resolve suppressions: a marker covers matching diagnostics
        // on its own line (trailing comment) or the line below it.
        let mut sups: Vec<Suppression> = Vec::new();
        let mut out: Vec<Diagnostic> = Vec::new();
        let known: Vec<&str> = self.rules.iter().map(|r| r.id).collect();
        for (&line, text) in &view.comment_by_line {
            match parse_suppression(text) {
                None => {}
                Some(SupParse::Malformed { why }) => out.push(Diagnostic {
                    rule: SUPPRESSION_RULE.to_string(),
                    path: rel_path.to_string(),
                    line,
                    message: why.to_string(),
                    help: SUPPRESSION_HELP.to_string(),
                }),
                Some(SupParse::Valid { rule }) => {
                    if known.contains(&rule.as_str()) {
                        sups.push(Suppression {
                            line,
                            rule,
                            used: false,
                        });
                    } else {
                        out.push(Diagnostic {
                            rule: SUPPRESSION_RULE.to_string(),
                            path: rel_path.to_string(),
                            line,
                            message: format!("`lint:allow({rule})` names an unknown rule"),
                            help: SUPPRESSION_HELP.to_string(),
                        });
                    }
                }
            }
        }
        // A suppression covers its own line (trailing comment) or the
        // next line carrying code — so a marker whose justification
        // wraps onto further comment lines still reaches its target.
        let next_code_line = |after: usize| -> Option<usize> {
            ((after + 1)..=view.code_lines.len())
                .find(|&l| !view.code_lines[l - 1].trim().is_empty())
        };
        for d in found {
            let sup = sups.iter_mut().find(|s| {
                s.rule == d.rule && (s.line == d.line || next_code_line(s.line) == Some(d.line))
            });
            match sup {
                Some(s) => s.used = true,
                None => out.push(d),
            }
        }
        for s in &sups {
            if !s.used {
                out.push(Diagnostic {
                    rule: SUPPRESSION_RULE.to_string(),
                    path: rel_path.to_string(),
                    line: s.line,
                    message: format!(
                        "unused suppression: no `{}` diagnostic here to allow",
                        s.rule
                    ),
                    help: SUPPRESSION_HELP.to_string(),
                });
            }
        }
        out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
        out
    }

    /// Walks `root` and analyzes every `.rs` file, skipping `target/`,
    /// `vendor/` (external shims), `.git/` and `fixtures/` (seeded
    /// violations for the lint's own tests).
    pub fn check_tree(&self, root: &Path) -> io::Result<Report> {
        let mut files: Vec<String> = Vec::new();
        collect_rs(root, root, &mut files)?;
        files.sort();
        let mut diagnostics = Vec::new();
        for rel in &files {
            let text = fs::read_to_string(root.join(rel))?;
            diagnostics.extend(self.check_file(rel, &text));
        }
        diagnostics.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
        Ok(Report {
            files_scanned: files.len(),
            diagnostics,
        })
    }
}

const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let scanned = scan(src);
        let lines: Vec<&str> = scanned.code.lines().collect();
        let flags = test_item_lines(&lines);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_single_item_is_marked() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn c() {}\n";
        let scanned = scan(src);
        let lines: Vec<&str> = scanned.code.lines().collect();
        let flags = test_item_lines(&lines);
        assert_eq!(flags, vec![true, true, false]);
    }

    #[test]
    fn suppression_parsing() {
        assert!(parse_suppression("just a comment").is_none());
        match parse_suppression("lint:allow(wall-clock): CLI timing only") {
            Some(SupParse::Valid { rule }) => assert_eq!(rule, "wall-clock"),
            _ => panic!("expected valid"),
        }
        assert!(matches!(
            parse_suppression("lint:allow(wall-clock)"),
            Some(SupParse::Malformed { .. })
        ));
        assert!(matches!(
            parse_suppression("lint:allow(wall-clock):   "),
            Some(SupParse::Malformed { .. })
        ));
        assert!(matches!(
            parse_suppression("lint:allow wall-clock: x"),
            Some(SupParse::Malformed { .. })
        ));
    }
}
