//! The figures that thread one generator through several simulated runs
//! print exactly their sections of `bench/figures_quick.txt`. Each of
//! them settles every run's guest-metric draws before drawing again
//! (see `tuna_metrics::MetricVector::settle`). A missing settle shifts
//! the rest of the figure's stream, which fails this test wherever a
//! later draw shapes the printed output (fig02, fig08 and fig09 at
//! `--quick`; fig05's runs on its shared generator rarely draw at all).

use std::process::Command;

/// The threaded figures and their banner names, in `FIGURES` order.
const THREADED: [(&str, &str); 4] = [
    ("fig02", "Figure 2:"),
    ("fig05", "Figure 5:"),
    ("fig08", "Figure 8:"),
    ("fig09", "Figure 9:"),
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
    let out = Command::new(env!("CARGO_BIN_EXE_tuna"))
        .args(["figures", "--quick", "--only"])
        .args(THREADED.map(|(id, _)| id))
        .output()
        .expect("run the tuna binary");
    assert!(out.status.success(), "tuna figures failed: {out:?}");
    let reference = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/figures_quick.txt"
    ))
    .expect("read bench/figures_quick.txt");
    let expected = sections(&reference, &THREADED.map(|(_, name)| name));
    assert_eq!(expected.matches(RULE).count(), 2 * THREADED.len());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        expected
    );
}
