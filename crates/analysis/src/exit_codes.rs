//! Process exit codes of the verification binaries, one per finding
//! class, so CI and scripts can tell *what kind* of check failed without
//! parsing output.
//!
//! `repro --verify-schedule`, `--verify-concurrency`, `--verify-ir` and
//! `--chaos` exit with [`FindingClass::exit_code`]. The registry table
//! (code, class, meaning) is stated once, in the README's "Exit codes"
//! section, and `tests/doc_tables.rs` checks it against [`FindingClass::ALL`].
//! Codes 13 and 19 are retired and never reused; 17 belongs to the
//! `perf-report --check` gate.
//!
//! Codes 1 (generic failure) and 2 (usage error) keep their conventional
//! meanings. When a run produces several classes, the process exits with
//! the numerically smallest one — the classes are ordered most-fundamental
//! first, and a schedule with a hazard makes its other findings moot.

use std::fmt;

/// What kind of verification finding occurred (ordered most severe first;
/// the discriminant order fixes [`most_severe`]'s preference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingClass {
    /// An overlap or collective-discipline hazard ([`crate::hazards`]).
    Hazard,
    /// A Table I structure violation ([`crate::structure`]).
    Structure,
    /// A numerical probe finding ([`crate::probes`]) — advisory unless the
    /// caller opted into strict probes.
    Probe,
    /// The `pscg-check` model checker found a protocol violation.
    Model,
    /// The `pscg-check` race detector found unordered conflicting accesses.
    Race,
    /// A method's declarative IR failed static verification (dataflow,
    /// structure derivation) or trace conformance (`pscg-ir`).
    Ir,
    /// The chaos campaign (`repro --chaos`) observed a resilience-contract
    /// violation: a hung method or a silently wrong accepted answer.
    Chaos,
}

impl FindingClass {
    /// Every finding class, in severity order (the README table's row
    /// order).
    pub const ALL: [FindingClass; 7] = [
        FindingClass::Hazard,
        FindingClass::Structure,
        FindingClass::Probe,
        FindingClass::Model,
        FindingClass::Race,
        FindingClass::Ir,
        FindingClass::Chaos,
    ];

    /// The reserved process exit code of this class.
    pub fn exit_code(self) -> i32 {
        match self {
            FindingClass::Hazard => 10,
            FindingClass::Structure => 11,
            FindingClass::Probe => 12,
            FindingClass::Model => 14,
            FindingClass::Race => 15,
            FindingClass::Ir => 16,
            // 13 and 19 are retired; 17 is reserved by the perf-report
            // analyzer binary.
            FindingClass::Chaos => 18,
        }
    }
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FindingClass::Hazard => "hazard",
            FindingClass::Structure => "structure",
            FindingClass::Probe => "probe",
            FindingClass::Model => "model",
            FindingClass::Race => "race",
            FindingClass::Ir => "ir",
            FindingClass::Chaos => "chaos",
        };
        write!(f, "{name}")
    }
}

/// The class a multi-finding run should exit with: the most severe
/// (numerically smallest code) present, or `None` for a clean run.
pub fn most_severe(classes: &[FindingClass]) -> Option<FindingClass> {
    classes.iter().copied().min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_reserved() {
        let all = FindingClass::ALL;
        let codes: Vec<i32> = all.iter().map(|c| c.exit_code()).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "codes collide: {codes:?}");
        // Stay clear of the conventional 0/1/2 and of the shell's 126+.
        assert!(codes.iter().all(|&c| (10..=19).contains(&c)));
        // 17 belongs to the perf-report binary, not a finding class; 13
        // (doc-table) and 19 (lint) are retired and never reused.
        for reserved in [13, 17, 19] {
            assert!(!codes.contains(&reserved), "{reserved} is not a class code");
        }
    }

    #[test]
    fn severity_follows_code_order() {
        assert_eq!(
            most_severe(&[FindingClass::Race, FindingClass::Hazard]),
            Some(FindingClass::Hazard)
        );
        assert_eq!(
            most_severe(&[FindingClass::Model, FindingClass::Structure]),
            Some(FindingClass::Structure)
        );
        assert_eq!(most_severe(&[]), None);
    }
}
