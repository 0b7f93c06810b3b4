//! Non-vacuity proof for the pattern passes.
//!
//! Every fixture under `fixtures/` marks the lines its pass must flag
//! with a trailing `lint-hit` comment and carries at least one inline
//! allow the engine must honor. The harness injects each fixture as a
//! virtual file (the real scanner skips `fixtures/`), runs the full
//! pass set, and requires the flagged lines to equal the marked lines
//! exactly — a pass that fires nowhere, fires on the wrong line, or
//! ignores its allow fails here. The plant gate and the clean-tree
//! invariant are pinned alongside.

use pscg_lint::plant::{run_with_plant, PLANTED_PASSES, PLANT_PATH};
use pscg_lint::{render_text, run, scan_workspace, Workspace};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn empty_workspace() -> Workspace {
    Workspace {
        root: workspace_root(),
        files: Vec::new(),
        docs: Vec::new(),
    }
}

/// Injects `fixtures/<fixture>` at `virtual_path`, runs every pass, and
/// checks the findings on that path are exactly the `lint-hit` lines,
/// all from `pass`, with `want_allows` valid inline allows parsed.
fn check_fixture(fixture: &str, virtual_path: &str, pass: &str, want_allows: usize) {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(fixture),
    )
    .expect("fixture readable");
    let mut ws = empty_workspace();
    ws.add_virtual(virtual_path, &text);
    let report = run(&ws);
    let got: BTreeSet<u32> = report
        .findings
        .iter()
        .filter(|f| f.rel_path == virtual_path)
        .inspect(|f| {
            assert_eq!(
                f.pass, pass,
                "{fixture}: unexpected pass {} at line {}: {}",
                f.pass, f.line, f.message
            );
        })
        .map(|f| f.line)
        .collect();
    let want: BTreeSet<u32> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("lint-hit"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    assert!(
        !want.is_empty(),
        "{fixture}: fixture has no lint-hit markers"
    );
    assert_eq!(
        got, want,
        "{fixture}: flagged lines differ from the lint-hit markers"
    );
    assert_eq!(
        report.allows, want_allows,
        "{fixture}: valid inline allow count"
    );
}

#[test]
fn nan_clamp_fixture() {
    check_fixture(
        "nan_clamp.rs",
        "crates/core/src/methods/__fixture_nan_clamp__.rs",
        "nan-clamp",
        1,
    );
}

#[test]
fn panic_hot_path_fixture() {
    check_fixture(
        "panic_hot_path.rs",
        "crates/par/src/__fixture_panic__.rs",
        "panic-in-hot-path",
        1,
    );
}

#[test]
fn unsafe_safety_fixture() {
    check_fixture(
        "unsafe_safety.rs",
        "crates/par/src/__fixture_unsafe__.rs",
        "unsafe-without-safety",
        1,
    );
}

#[test]
fn float_eq_fixture() {
    check_fixture(
        "float_eq.rs",
        "crates/core/src/__fixture_float_eq__.rs",
        "float-eq",
        1,
    );
}

#[test]
fn nondet_iteration_fixture() {
    check_fixture(
        "nondet_iteration.rs",
        "crates/sim/src/__fixture_nondet__.rs",
        "nondet-iteration",
        1,
    );
}

#[test]
fn allow_syntax_fixture() {
    // Malformed directives are findings themselves and register zero
    // valid allows.
    check_fixture(
        "allow_syntax.rs",
        "crates/core/src/__fixture_allow_syntax__.rs",
        "allow-syntax",
        0,
    );
}

/// The standing gate: the real tree scans clean. A new finding must be
/// fixed or carry a reasoned allow before it lands.
#[test]
fn whole_tree_scans_clean() {
    let report = scan_workspace(&workspace_root()).expect("workspace loads");
    assert!(
        report.findings.is_empty(),
        "lint findings in the tree:\n{}",
        render_text(&report)
    );
    assert!(
        report.files_scanned >= 100,
        "suspiciously few files scanned ({}): did the walker break?",
        report.files_scanned
    );
    assert!(
        report.allows >= 40,
        "inline allows vanished ({}): did directive parsing break?",
        report.allows
    );
}

/// The plant gate: every planted violation must be caught by its pass,
/// and the plant must not leak findings onto real files.
#[test]
fn plant_is_caught_by_every_code_pass() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    let (report, escaped) = run_with_plant(ws);
    assert!(escaped.is_empty(), "plant escaped passes: {escaped:?}");
    let caught: BTreeSet<&str> = report
        .findings
        .iter()
        .filter(|f| f.rel_path == PLANT_PATH)
        .map(|f| f.pass)
        .collect();
    for pass in PLANTED_PASSES {
        assert!(caught.contains(pass), "plant not caught by {pass}");
    }
    assert!(
        report.findings.iter().all(|f| f.rel_path == PLANT_PATH),
        "plant run produced findings outside the planted file:\n{}",
        render_text(&report)
    );
}
