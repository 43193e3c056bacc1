//! Fixture tests: every rule must catch its seeded violation and pass
//! the clean twin, the comment-stripping regression must stay fixed,
//! and suppression hygiene must be enforced.

use tuna_lint::{Engine, SUPPRESSION_RULE};

/// A production-looking path: not allowlisted, not test code.
const SRC: &str = "crates/demo/src/lib.rs";

fn rules_hit(path: &str, text: &str) -> Vec<String> {
    let mut rules: Vec<String> = Engine::builtin()
        .check_file(path, text)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

#[track_caller]
fn assert_catches(rule: &str, text: &str) {
    let hits = rules_hit(SRC, text);
    assert_eq!(
        hits,
        vec![rule.to_string()],
        "fixture for `{rule}` must trip exactly that rule"
    );
}

#[track_caller]
fn assert_clean(text: &str) {
    let diags = Engine::builtin().check_file(SRC, text);
    assert!(
        diags.is_empty(),
        "clean twin produced diagnostics:\n  {}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

#[test]
fn wall_clock_positive_negative() {
    assert_catches("wall-clock", include_str!("../fixtures/wall_clock_bad.rs"));
    assert_clean(include_str!("../fixtures/wall_clock_clean.rs"));
}

#[test]
fn obs_two_clock_rule() {
    // Inside crates/obs, wall-clock reads are only legal in wall.rs —
    // the Clock seam's sole implementation file on the allowlist. The
    // same text trips `wall-clock` at any other obs path...
    let bad = include_str!("../fixtures/obs_clock_bad.rs");
    assert_eq!(
        rules_hit("crates/obs/src/journal.rs", bad),
        vec!["wall-clock".to_string()],
        "wall-clock must fire inside crates/obs outside wall.rs"
    );
    // ...and is allowlisted, by exact suffix, only at wall.rs.
    assert!(
        rules_hit("crates/obs/src/wall.rs", bad).is_empty(),
        "crates/obs/src/wall.rs is the one legal wall-clock site in obs"
    );
    assert_eq!(
        rules_hit("crates/obs/src/not_wall.rs", bad),
        vec!["wall-clock".to_string()],
        "the allowlist is a path suffix match on wall.rs, not a pattern"
    );
    // The seamed twin is clean everywhere.
    assert!(rules_hit(
        "crates/obs/src/journal.rs",
        include_str!("../fixtures/obs_clock_clean.rs")
    )
    .is_empty());
    assert_clean(include_str!("../fixtures/obs_clock_clean.rs"));
}

#[test]
fn ambient_randomness_positive_negative() {
    assert_catches(
        "ambient-randomness",
        include_str!("../fixtures/ambient_randomness_bad.rs"),
    );
    assert_clean(include_str!("../fixtures/ambient_randomness_clean.rs"));
}

#[test]
fn unordered_iteration_positive_negative() {
    assert_catches(
        "unordered-iteration",
        include_str!("../fixtures/unordered_iteration_bad.rs"),
    );
    // The clean twin also proves the #[cfg(test)] exemption: it uses a
    // HashSet inside its tests module.
    assert_clean(include_str!("../fixtures/unordered_iteration_clean.rs"));
}

#[test]
fn float_ordering_positive_negative() {
    let bad = include_str!("../fixtures/float_ordering_bad.rs");
    let diags = Engine::builtin().check_file(SRC, bad);
    // Both the single-line and the multi-line (lookahead) form.
    assert_eq!(diags.len(), 2, "expected 2 float-ordering hits: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == "float-ordering"));
    assert_clean(include_str!("../fixtures/float_ordering_clean.rs"));
}

#[test]
fn undocumented_unsafe_positive_negative() {
    assert_catches(
        "undocumented-unsafe",
        include_str!("../fixtures/undocumented_unsafe_bad.rs"),
    );
    assert_clean(include_str!("../fixtures/undocumented_unsafe_clean.rs"));
}

#[test]
fn thread_fanout_positive_negative() {
    let bad = include_str!("../fixtures/thread_fanout_bad.rs");
    let diags = Engine::builtin().check_file(SRC, bad);
    // `thread::scope`, `thread::spawn` and `thread::Builder`, once each.
    assert_eq!(diags.len(), 3, "expected 3 thread-fanout hits: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == "thread-fanout"));
    // The pool itself is the one place threads may be spawned.
    assert!(Engine::builtin()
        .check_file("crates/stats/src/pool.rs", bad)
        .is_empty());
    assert_clean(include_str!("../fixtures/thread_fanout_clean.rs"));
}

#[test]
fn comment_stripping_regression() {
    let text = include_str!("../fixtures/comment_in_string.rs");
    let diags = Engine::builtin().check_file(SRC, text);
    // Exactly one finding: the violation hidden behind "//" inside a
    // string literal. Pattern text in strings/comments stays silent.
    assert_eq!(diags.len(), 1, "expected 1 diagnostic: {diags:?}");
    assert_eq!(diags[0].rule, "float-ordering");
    let flagged_line = text
        .lines()
        .position(|l| l.contains("example.com"))
        .expect("probe line exists")
        + 1;
    assert_eq!(diags[0].line, flagged_line);
}

#[test]
fn valid_suppressions_silence_and_are_used() {
    assert_clean(include_str!("../fixtures/suppression_ok.rs"));
}

#[test]
fn bad_suppressions_are_violations() {
    let diags = Engine::builtin().check_file(SRC, include_str!("../fixtures/suppression_bad.rs"));
    let sup: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == SUPPRESSION_RULE)
        .collect();
    // Missing justification (x2), unknown rule, unused suppression.
    assert_eq!(sup.len(), 4, "expected 4 suppression findings: {diags:?}");
    // A malformed suppression does not suppress: the wall-clock hits
    // behind the two unjustified markers still fire.
    let wall: Vec<_> = diags.iter().filter(|d| d.rule == "wall-clock").collect();
    assert_eq!(wall.len(), 2, "malformed suppressions must not hide hits");
}

#[test]
fn allowlisted_paths_are_exempt() {
    let text = "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(Engine::builtin()
        .check_file("crates/bench/src/perf.rs", text)
        .is_empty());
    assert_eq!(rules_hit(SRC, text), vec!["wall-clock".to_string()]);
}

#[test]
fn tests_dirs_are_exempt_for_optouts_only() {
    // HashMap in an integration test: fine (rule opts out of tests).
    let hashmap = "use std::collections::HashMap;\n";
    assert!(Engine::builtin()
        .check_file("crates/demo/tests/it.rs", hashmap)
        .is_empty());
    // Ambient randomness never gets a pass, not even in tests.
    let rng = "pub fn r() { let _ = rand::thread_rng(); }\n";
    assert_eq!(
        rules_hit("crates/demo/tests/it.rs", rng),
        vec!["ambient-randomness".to_string()]
    );
}
