//! The figures that run outside campaigns print exactly their sections
//! of `bench/figures_quick.txt` at any worker count. Each of them fans
//! its runs out through `tuna_bench::map_runs`, and every run is a pure
//! function of (root seed, run index): its own seed, cluster and
//! generator, with profiled configs measured on fresh machines through
//! `evaluate_deployment_with`. A run that leaked state into another
//! (a shared generator, cluster or machine) would print other bytes at
//! some worker count, or at some run count, and fail this test.

use std::process::Command;

/// The figures that fan runs out themselves and their banner names, in
/// `FIGURES` order.
const FANNED_OUT: [(&str, &str); 6] = [
    ("fig02", "Figure 2:"),
    ("fig05", "Figure 5:"),
    ("fig08", "Figure 8:"),
    ("fig09", "Figure 9:"),
    ("fig17", "Figure 17:"),
    ("fig19", "Figure 19:"),
];

const RULE: &str = "==================================================================";

/// The reference's figure sections whose banner title starts with one
/// of `names`, in file order. A banner is a rule, the title, the
/// `paper:` line and a rule; its section runs to the next banner.
fn sections(reference: &str, names: &[&str]) -> String {
    let lines: Vec<&str> = reference.lines().collect();
    let is_banner = |i: usize| {
        lines[i] == RULE
            && lines.get(i + 2).is_some_and(|l| l.starts_with("paper: "))
            && lines.get(i + 3) == Some(&RULE)
    };
    let starts: Vec<usize> = (0..lines.len()).filter(|&i| is_banner(i)).collect();
    let mut out = String::new();
    for (k, &start) in starts.iter().enumerate() {
        if names.iter().any(|n| lines[start + 1].starts_with(n)) {
            let end = starts.get(k + 1).copied().unwrap_or(lines.len());
            for line in &lines[start..end] {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn threaded_figures_match_the_quick_reference() {
    let reference = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/figures_quick.txt"
    ))
    .expect("read bench/figures_quick.txt");
    let expected = sections(&reference, &FANNED_OUT.map(|(_, name)| name));
    assert_eq!(expected.matches(RULE).count(), 2 * FANNED_OUT.len());
    for workers in ["1", "3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tuna"))
            .env("TUNA_WORKERS", workers)
            .args(["figures", "--quick", "--only"])
            .args(FANNED_OUT.map(|(id, _)| id))
            .output()
            .expect("run the tuna binary");
        assert!(
            out.status.success(),
            "tuna figures failed at TUNA_WORKERS={workers}: {out:?}"
        );
        assert_eq!(
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            expected,
            "TUNA_WORKERS={workers}"
        );
    }
}
