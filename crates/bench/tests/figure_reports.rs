//! Every figure at `--quick`, run in-process through the one renderer
//! (`tuna_bench::figures::run`): its output equals
//! `bench/figures_quick.txt` byte for byte, every paper-vs-measured line
//! comes from a declared claim, claim ids are unique, and each declared
//! paper number agrees with the paper text the claim prints.

use std::collections::HashSet;

use tuna_bench::figures::{self, FIGURES};
use tuna_bench::HarnessArgs;

/// The first number in `text` with its sign, if any: `~30%` reads 30,
/// `+8.5% (2810 vs 2572)` reads 8.5 and `-38.9%` reads -38.9.
fn leading_number(text: &str) -> Option<f64> {
    let start = text.find(|c: char| c.is_ascii_digit())?;
    let end = text[start..]
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .map_or(text.len(), |n| start + n);
    let value: f64 = text[start..end].parse().ok()?;
    Some(if text[..start].ends_with('-') {
        -value
    } else {
        value
    })
}

#[test]
fn quick_reports_match_the_reference_and_every_claim_line_is_declared() {
    let reference = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/figures_quick.txt"
    ))
    .expect("read bench/figures_quick.txt");
    let args = HarnessArgs::parse_from(&["--quick".to_string()]).expect("--quick parses");
    let mut out = Vec::new();
    let reports = figures::run(&args, &mut out).expect("write to memory");
    assert_eq!(reports.len(), FIGURES.len());
    assert!(
        String::from_utf8(out).expect("utf-8 output") == reference,
        "`tuna figures --quick` differs from bench/figures_quick.txt"
    );

    let mut ids = HashSet::new();
    for (figure, report) in FIGURES.iter().zip(&reports) {
        for (claim, _) in &report.claims {
            assert!(
                ids.insert(claim.id),
                "claim id {} is declared twice",
                claim.id
            );
            assert!(
                claim.id.starts_with(&format!("{}.", figure.id)),
                "claim {} measured by {}",
                claim.id,
                figure.id
            );
            if let Some(number) = claim.number {
                let rendered = claim.format.render(number);
                assert_eq!(
                    leading_number(&rendered),
                    leading_number(claim.paper),
                    "{}: the paper number renders {rendered:?}, the paper text is {:?}",
                    claim.id,
                    claim.paper
                );
            }
        }
        for line in report.lines.iter().flat_map(|entry| entry.lines()) {
            if line.starts_with("  ") && line.contains(" paper: ") && line.contains(" measured: ") {
                assert!(
                    report
                        .claims
                        .iter()
                        .any(|(claim, _)| line.starts_with(&claim.line(""))),
                    "{}: no declared claim renders {line:?}",
                    figure.id
                );
            }
        }
    }
}
