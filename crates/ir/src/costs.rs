//! Aggregate per-body-pass cost totals derived from a method's IR.
//!
//! The IR nodes already carry their cost metadata (`flops_per_row`,
//! `bytes_per_row`, MPK depth) because the conformance checker matches on
//! it. This module folds one steady-state body into a [`BodyCost`] so the
//! observatory tier (`pscg-bench`'s perf-report) can price each recorded
//! kernel against the *declared* schedule instead of re-deriving per-method
//! constants: one body pass advances [`MethodIr::steps`] CG steps, and the
//! totals below say how many of each kernel that pass contains and what
//! per-row work the IR claims for the local BLAS-1 kinds.

use crate::node::{MethodIr, NodeKind};

/// Kernel totals for one steady-state body pass of a method.
///
/// Counts are per *body pass* (which advances [`MethodIr::steps`] CG
/// steps), not per CG step. The `*_flops_per_row` / `*_bytes_per_row`
/// fields are **sums over the pass's nodes of that kind** — divide by the
/// matching count for the per-call average a span-level roofline needs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BodyCost {
    /// Plain SpMV nodes in the body.
    pub spmvs: usize,
    /// Matrix-powers kernel nodes in the body.
    pub mpks: usize,
    /// Sum of MPK depths (total SpMV-equivalents done by MPK sweeps).
    pub mpk_depth_total: usize,
    /// Preconditioner applications in the body.
    pub pcs: usize,
    /// Local dot-product nodes in the body.
    pub dots: usize,
    /// Sum of the dot nodes' declared FLOPs per local row.
    pub dot_flops_per_row: f64,
    /// Sum of the dot nodes' declared bytes per local row.
    pub dot_bytes_per_row: f64,
    /// Local combine (VMA) nodes in the body.
    pub combines: usize,
    /// Sum of the combine nodes' declared FLOPs per local row.
    pub combine_flops_per_row: f64,
    /// Sum of the combine nodes' declared bytes per local row.
    pub combine_bytes_per_row: f64,
    /// Total rank-replicated scalar-recurrence FLOPs in the body.
    pub scalar_flops: f64,
}

/// Folds the steady-state body of `ir` into its kernel totals.
///
/// Only the primary body is counted — replacement passes and phase-2
/// handoffs are occasional or transitional and would skew a steady-state
/// roofline; callers wanting those can fold `ir.replace` / `ir.handoff`
/// themselves with the same logic.
pub fn body_cost(ir: &MethodIr) -> BodyCost {
    let mut c = BodyCost::default();
    for node in &ir.body {
        match &node.kind {
            NodeKind::Spmv => c.spmvs += 1,
            NodeKind::Mpk { depth } => {
                c.mpks += 1;
                c.mpk_depth_total += depth;
            }
            NodeKind::Pc => c.pcs += 1,
            NodeKind::Dot {
                flops_per_row,
                bytes_per_row,
            } => {
                c.dots += 1;
                c.dot_flops_per_row += flops_per_row;
                c.dot_bytes_per_row += bytes_per_row;
            }
            NodeKind::Combine {
                flops_per_row,
                bytes_per_row,
            } => {
                c.combines += 1;
                c.combine_flops_per_row += flops_per_row;
                c.combine_bytes_per_row += bytes_per_row;
            }
            NodeKind::ScalarRecurrence { flops } => c.scalar_flops += flops,
            NodeKind::ArPost { .. }
            | NodeKind::ArWait { .. }
            | NodeKind::ArBlocking { .. }
            | NodeKind::ResCheck => {}
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::spec;
    use pipescg::methods::MethodKind;

    #[test]
    fn pcg_body_counts_match_its_schedule() {
        // PCG's body: one SpMV, one PC, its dots and AXPYs — no MPK.
        let c = body_cost(&spec(MethodKind::Pcg, 3));
        assert_eq!(c.spmvs, 1);
        assert_eq!(c.mpks, 0);
        assert_eq!(c.pcs, 1);
        assert!(c.dots >= 1, "PCG must have local dot work");
        assert!(c.combines >= 1, "PCG must have AXPY work");
    }

    #[test]
    fn sstep_bodies_scale_spmv_equivalents_with_s() {
        for s in [2, 4] {
            let c = body_cost(&spec(MethodKind::Pscg, s));
            assert!(
                c.spmvs + c.mpk_depth_total >= s,
                "s={s}: {} SpMV-equivalents must cover the block",
                c.spmvs + c.mpk_depth_total
            );
            assert!(c.scalar_flops > 0.0, "s-step methods solve s×s systems");
        }
        let c2 = body_cost(&spec(MethodKind::Pscg, 2));
        let c4 = body_cost(&spec(MethodKind::Pscg, 4));
        assert!(
            c4.spmvs + c4.mpk_depth_total > c2.spmvs + c2.mpk_depth_total,
            "basis work must grow with s"
        );
    }

    #[test]
    fn every_method_body_has_some_priced_work() {
        for kind in MethodKind::ALL {
            let ir = spec(kind, 3);
            let c = body_cost(&ir);
            assert!(
                c.spmvs + c.mpk_depth_total >= 1,
                "{kind:?}: body must advance the Krylov space"
            );
            assert!(
                c.dot_bytes_per_row + c.combine_bytes_per_row > 0.0,
                "{kind:?}: body must have local BLAS-1 traffic"
            );
        }
    }
}
