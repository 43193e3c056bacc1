//! The convergence figures at budgets too small to measure. Naive
//! distributed spends a whole 10-node round on each config, so fig17
//! needs 10 samples per run; fig19 reads its curves at two points 10
//! samples apart, so it needs 20. Below that each figure prints the
//! budget it needs and exits cleanly instead of panicking.

use std::process::Command;

#[test]
fn convergence_figures_name_the_budget_they_need() {
    // (rounds, how many of fig17 and fig19 are below their minimum)
    for (rounds, short) in [("1", 2), ("9", 2), ("19", 1)] {
        let out = Command::new(env!("CARGO_BIN_EXE_tuna"))
            .args(["figures", "--quick", "--only", "fig17", "fig19"])
            .args(["--rounds", rounds])
            .output()
            .expect("run the tuna binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--rounds {rounds}: {out:?}");
        assert!(!stderr.contains("panicked"), "--rounds {rounds}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(
            stdout.matches("this figure needs --rounds >= ").count(),
            short,
            "--rounds {rounds}: {stdout}"
        );
    }
}
