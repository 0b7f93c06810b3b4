//! Declarative per-iteration schedule IR for the CG variants, with a
//! by-construction static verifier and a dynamic conformance checker.
//!
//! The repo's other analyses (`pscg_analysis`) inspect *recorded traces* —
//! they can only vouch for schedules a solve happened to execute. This
//! crate adds the complementary artifact: a typed, declarative IR of each
//! method's per-iteration schedule ([`MethodIr`]: prologue + steady-state
//! body + optional replacement pass and phase-2 handoff), over which three
//! static passes run **without executing a solve**:
//!
//! * [`dataflow`] — symbolic buffer dataflow: no use-before-def of
//!   reduction results (reading inside your own overlap window is the
//!   read-before-wait bug), no write to a window-owned dot operand while
//!   the reduction is in flight (the Cools–Vanroose hazard, derived from
//!   the spec instead of observed in a trace), window-protocol sanity.
//! * [`table`] — Table I structure derivation: allreduce cadence and the
//!   per-window kernel mix, cross-checked against
//!   `pscg_analysis::structure::MethodShape` *and*
//!   `pipescg::costmodel::table1`, so the IR, the trace analyzer and the
//!   cost model cannot drift apart silently.
//! * [`overlap`] — overlap-capacity report: what each method hides under
//!   its in-flight reductions.
//!
//! What ties the IR to reality is [`conform`]: replaying a recorded
//! [`pscg_sim::OpTrace`] op-for-op against the IR and failing on the first
//! divergence. The specs in [`methods`] pass both layers for all eleven
//! methods; the planted bugs in [`broken`] (feature `broken-ir`) are each
//! rejected, keeping the verifier non-vacuous. `repro --verify-ir` wires
//! the whole stack into the reproduction binary (exit code 16 on failure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conform;
pub mod costs;
pub mod dataflow;
pub mod methods;
pub mod node;
pub mod overlap;
pub mod spec;
pub mod table;

#[cfg(any(test, feature = "broken-ir"))]
pub mod broken;

pub use conform::{conform, Divergence};
pub use dataflow::StaticFinding;
pub use methods::spec as method_ir;
pub use node::{MethodIr, Node, NodeKind, ReplacePhase, Sym};

/// Run every static pass over one IR (and, recursively, its phase-2
/// handoff). An empty result means the schedule is well-formed, hazard-free
/// and structurally exactly what the analyzer and the cost model claim —
/// all established without executing a solve.
pub fn verify_static(ir: &MethodIr) -> Vec<StaticFinding> {
    let mut out = dataflow::analyze(ir);
    out.extend(table::check(ir));
    if let Some(handoff) = &ir.handoff {
        out.extend(verify_static(handoff));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipescg::methods::MethodKind;

    #[test]
    fn all_eleven_specs_verify_statically() {
        for s in [2, 3, 4, 5] {
            for kind in MethodKind::ALL {
                let findings = verify_static(&method_ir(kind, s));
                assert!(
                    findings.is_empty(),
                    "{kind:?} at s={s}: {}",
                    findings
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
    }

    #[test]
    fn every_planted_bug_is_rejected_by_its_layer() {
        for b in broken::all() {
            let findings = verify_static(&b.ir);
            match b.expect {
                broken::Expect::Static => assert!(
                    !findings.is_empty(),
                    "{}: static verifier missed the planted bug",
                    b.name
                ),
                broken::Expect::Conformance => assert!(
                    findings.is_empty(),
                    "{}: must be statically clean (only conformance catches it), got {:?}",
                    b.name,
                    findings
                ),
            }
        }
    }
}
