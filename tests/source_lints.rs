//! Source lints: the whole tree must satisfy the determinism contract
//! (docs/LINTS.md), mechanically.
//!
//! This replaces the old `tests/float_ordering_lint.rs` grep-style
//! check: `tuna-lint` is token-aware (comments, string/char/raw-string
//! literals), covers six rules instead of one, and requires every
//! suppression to carry a written justification. `cargo test` fails on
//! any diagnostic; the CI `lints` job runs the same engine via the
//! `tuna-lint` binary.

use std::path::Path;

use tuna_lint::Engine;

#[test]
fn tree_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = Engine::builtin().check_tree(root).expect("scan the tree");
    // vendor/, target/ and crates/lint/fixtures/ are excluded; the
    // rest of the workspace — every crate, tests/, examples/ — is not.
    assert!(
        report.files_scanned > 100,
        "lint walked too few files: {}",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "the determinism contract is violated (fix it, or suppress with \
         `// lint:allow(<rule>): <justification>` — see docs/LINTS.md):\n  {}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{d}\n      help: {}", d.help))
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}
