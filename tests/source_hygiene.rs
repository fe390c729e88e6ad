//! Self-lint: the `S*` source passes must hold over this workspace's own
//! crate sources. This is the enforcement point for the concurrency
//! conventions — every atomic behind the `syncx` facade, every mixed-file
//! `Relaxed` argued, every spawn inside the parallel engine, and no
//! `unsafe` in any crate (each root forbids it) — so a regression fails
//! `cargo test`, not just CI.

use std::path::Path;

use atpg_easy_lint::source::lint_tree;
use atpg_easy_lint::{Code, SourceLintConfig};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_sources_pass_the_s_family() {
    let report = lint_tree(workspace_root(), &SourceLintConfig::default()).expect("scan workspace");
    assert!(
        report.is_empty(),
        "S-pass findings in the workspace source:\n{}",
        report.render_human()
    );
}

#[test]
fn the_scan_actually_covers_the_lock_free_core() {
    // Guard against the pass silently scanning nothing: the files whose
    // conventions the S-passes exist for must be in scope and carry the
    // expected markers.
    for file in [
        "crates/atpg/src/parallel.rs",
        "crates/syncx/src/lib.rs",
        "crates/implic/src/graph.rs",
        "crates/implic/src/redundancy.rs",
    ] {
        let path = workspace_root().join(file);
        assert!(path.is_file(), "{file} missing — did the layout change?");
    }
    let parallel = std::fs::read_to_string(workspace_root().join("crates/atpg/src/parallel.rs"))
        .expect("read parallel.rs");
    assert!(
        parallel.contains("ORDERING:"),
        "parallel.rs lost its ordering audit trail"
    );
    // No crate has `unsafe` code, and every crate root keeps it that way.
    let mut roots = 0;
    for entry in std::fs::read_dir(workspace_root().join("crates")).expect("list crates/") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        let text =
            std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("read {}: {e}", lib.display()));
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} does not forbid unsafe_code",
            lib.display()
        );
        roots += 1;
    }
    assert!(roots >= 16, "the crate scan found only {roots} crate roots");
}

#[test]
fn stripping_an_ordering_comment_is_caught() {
    // End-to-end negative check on real code: parallel.rs mixes Relaxed
    // queue cursors with the drop bitmap's Release/Acquire, so the S003
    // pass must flag it if its ORDERING comments were deleted.
    let parallel = std::fs::read_to_string(workspace_root().join("crates/atpg/src/parallel.rs"))
        .expect("read parallel.rs");
    let stripped: String = parallel
        .lines()
        .filter(|l| !l.trim_start().starts_with("// ORDERING:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let report = atpg_easy_lint::source::lint_file(
        "crates/atpg/src/parallel.rs",
        &stripped,
        &SourceLintConfig::default(),
    );
    assert!(
        report.has_code(Code::S003),
        "deleting ORDERING comments went unnoticed:\n{}",
        report.render_human()
    );
}
