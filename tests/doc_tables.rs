//! Each registry table is stated once in the docs and checked here against
//! the code that defines it: exit codes (README) against `FindingClass`,
//! recovery codes (DESIGN §8) against `resilience::code`, span kinds
//! (DESIGN §7) against `SpanKind`. A table is found by its header line; the
//! key columns of its rows must equal the rendered ones, in order. A
//! mismatch prints the rows to paste.

use pipescg::resilience::code;
use pscg_analysis::FindingClass;
use pscg_obs::SpanKind;

const README: &str = include_str!("../README.md");
const DESIGN: &str = include_str!("../DESIGN.md");

/// Asserts that the rows of the table headed `header` in `doc` start with
/// the cells of `expected`, row by row. A retired code keeps a row with no
/// class (`—`), so it is never reused; such rows are skipped.
fn check(doc: &str, header: &str, expected: Vec<String>) {
    let width = expected.first().map_or(0, |e| e.split(" | ").count());
    let rows: Vec<String> = doc
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect::<Vec<_>>()
        })
        .filter(|cells| cells.get(1) != Some(&"—"))
        .map(|cells| cells[..width.min(cells.len())].join(" | "))
        .collect();
    if rows != expected {
        let paste: Vec<String> = expected.iter().map(|r| format!("| {r} | … |")).collect();
        panic!(
            "table `{header}` disagrees with the code; its rows should start:\n{}",
            paste.join("\n")
        );
    }
}

#[test]
fn readme_exit_codes_match_finding_classes() {
    let expected = FindingClass::ALL
        .iter()
        .map(|c| format!("{} | `{c}`", c.exit_code()));
    check(README, "| code | class | meaning |", expected.collect());
}

#[test]
fn design_recovery_codes_match_the_constants() {
    macro_rules! rows {
        ($($name:ident),*) => { vec![$(format!("{} | `{}`", code::$name, stringify!($name))),*] };
    }
    let expected = rows![
        REDUCE_RETRY,
        REDUCE_REPOST,
        ROLLBACK,
        REPLACEMENT,
        PCG_RESTART,
        REDUCE_DRAIN,
        PC_DEMOTE,
        PC_PROMOTE,
        RANK_REBUILD,
        STALL_ABORT
    ];
    let source = include_str!("../crates/core/src/resilience.rs");
    let module = source
        .split("pub mod code {")
        .nth(1)
        .and_then(|m| m.split("\n}").next());
    let consts = module.map_or(0, |m| m.matches("pub const ").count());
    assert_eq!(
        consts,
        expected.len(),
        "list every resilience::code constant above"
    );
    check(DESIGN, "| code | action | meaning |", expected);
}

#[test]
fn design_span_kinds_match_the_enum() {
    let expected = SpanKind::ALL.iter().map(|k| format!("`{}`", k.name()));
    check(DESIGN, "| span kind | records |", expected.collect());
}
