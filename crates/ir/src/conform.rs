//! Dynamic IR↔trace conformance: replay a recorded [`OpTrace`] against the
//! method's declarative IR and fail on the first divergence.
//!
//! The contract (DESIGN.md §10): the trace must be exactly
//! `setup · body* · prefix`, where each body pass is the steady-state body
//! or — on replacement iterations — the replacement body, and the final
//! prefix ends immediately after a convergence check (every solver exit —
//! converged, max-iterations, breakdown, stagnation — sits right after the
//! check). A two-phase driver may instead diverge from its body *at the
//! node after the check*, at which point the suffix must conform to the
//! handoff IR from the top.
//!
//! Matching is per-op and exact on kind and cost metadata (FLOP/byte rates,
//! payload sizes, MPK depth); runtime buffer ids, preconditioner cost
//! fields, and residual values are ignored. Post→wait pairing is checked by
//! *handle*: the trace op id recorded at a tagged post must be the id the
//! same-tag wait retires, so a spec cannot pass by pairing the right kinds
//! with crossed windows.

use std::collections::HashMap;
use std::fmt;

use pscg_sim::{LocalKind, Op, OpTrace};

use crate::node::{MethodIr, Node, NodeKind};

/// The first point where a trace stops following its IR.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index into `trace.ops` of the offending op (== `ops.len()` when the
    /// trace ended while the schedule expected more).
    pub at: usize,
    /// Where in the schedule the mismatch happened (phase, pass, node).
    pub context: String,
    /// The node the IR expected here.
    pub expected: String,
    /// The op the trace recorded, or `None` when the trace ended.
    pub got: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.got {
            Some(got) => write!(
                f,
                "op {}: {} expected {}, trace recorded {}",
                self.at, self.context, self.expected, got
            ),
            None => write!(
                f,
                "op {}: trace ended at {}, which expected {} (not a legal exit point)",
                self.at, self.context, self.expected
            ),
        }
    }
}

/// Does `op` realise `node`? `tags` carries the window-tag → runtime-handle
/// bindings established by earlier posts; a matching `ArPost` records its
/// binding here.
#[expect(clippy::float_cmp, reason = "the IR states the exact charged cost")]
fn op_matches(node: &Node, op: &Op, tags: &mut HashMap<&'static str, u64>) -> bool {
    match (&node.kind, op) {
        (NodeKind::Spmv, Op::Spmv { .. }) => true,
        (NodeKind::Mpk { depth }, Op::Mpk { depth: d, .. }) => depth == d,
        (NodeKind::Pc, Op::Pc { .. }) => true,
        (
            NodeKind::Dot {
                flops_per_row,
                bytes_per_row,
            },
            Op::Local {
                kind: LocalKind::Dot,
                flops_per_row: f,
                bytes_per_row: b,
                ..
            },
        )
        | (
            NodeKind::Combine {
                flops_per_row,
                bytes_per_row,
            },
            Op::Local {
                kind: LocalKind::Vma,
                flops_per_row: f,
                bytes_per_row: b,
                ..
            },
        ) => flops_per_row == f && bytes_per_row == b,
        (NodeKind::ScalarRecurrence { flops }, Op::Scalar { flops: f }) => flops == f,
        (NodeKind::ArPost { tag, doubles }, Op::ArPost { id, doubles: d, .. }) if doubles == d => {
            tags.insert(tag, *id);
            true
        }
        (NodeKind::ArWait { tag }, Op::ArWait { id }) => tags.get(tag) == Some(id),
        (NodeKind::ArBlocking { doubles }, Op::ArBlocking { doubles: d, .. }) => doubles == d,
        (NodeKind::ResCheck, Op::ResCheck { .. }) => true,
        _ => false,
    }
}

fn diverge(at: usize, context: String, node: &Node, op: Option<&Op>) -> Divergence {
    Divergence {
        at,
        context,
        expected: node.kind.describe(),
        got: op.map(|o| format!("{o:?}")),
    }
}

/// Replay `ops[start..]` against `ir` from its prologue. Returns `Ok` only
/// when the whole suffix is consumed at a legal exit point.
fn run(ir: &MethodIr, ops: &[Op], start: usize) -> Result<(), Divergence> {
    let mut tags: HashMap<&'static str, u64> = HashMap::new();
    let mut pos = start;

    for (i, node) in ir.setup.iter().enumerate() {
        let context = format!("{:?} setup node {i}", ir.kind);
        let Some(op) = ops.get(pos) else {
            return Err(diverge(pos, context, node, None));
        };
        if !op_matches(node, op, &mut tags) {
            return Err(diverge(pos, context, node, Some(op)));
        }
        pos += 1;
    }
    if ir.setup_check && pos == ops.len() {
        return Ok(()); // converged on the initial residual
    }

    let mut outer = 0usize;
    loop {
        let body = ir.body_for(outer);
        assert!(!body.is_empty(), "an IR body cannot be empty");
        for (i, node) in body.iter().enumerate() {
            let context = format!("{:?} pass {outer} node {i}", ir.kind);
            let Some(op) = ops.get(pos) else {
                // Exhausted mid-pass: only legal right after the check
                // (i == check_at + 1 — the check itself matched `pos - 1`).
                if i == ir.check_at + 1 {
                    return Ok(());
                }
                return Err(diverge(pos, context, node, None));
            };
            if !op_matches(node, op, &mut tags) {
                // A two-phase driver may leave its body right after the
                // check; the remainder must then conform to the phase-2 IR.
                // When the check is the last body node, "right after" is
                // node 0 of the following pass.
                let after_check = if i == 0 {
                    outer > 0 && ir.check_at + 1 == ir.body_for(outer - 1).len()
                } else {
                    i == ir.check_at + 1
                };
                if after_check {
                    if let Some(handoff) = &ir.handoff {
                        return run(handoff, ops, pos);
                    }
                }
                return Err(diverge(pos, context, node, Some(op)));
            }
            pos += 1;
            if i == ir.check_at && pos == ops.len() {
                return Ok(()); // exited at this pass's convergence check
            }
        }
        outer += 1;
    }
}

/// Check that `trace` (a complete solve recording) conforms to `ir`.
pub fn conform(ir: &MethodIr, trace: &OpTrace) -> Result<(), Divergence> {
    run(ir, &trace.ops, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{dot, post, rescheck, spmv, wait};
    use pipescg::methods::MethodKind;

    fn tiny_ir() -> MethodIr {
        MethodIr {
            kind: MethodKind::Pipecg,
            steps: 1,
            setup: vec![spmv("x", "ax")],
            body: vec![
                dot("r", "r", "red.part"),
                post("red", 1, "red.part"),
                spmv("m", "n"),
                wait("red", "red"),
                rescheck("red"),
            ],
            check_at: 4,
            setup_check: false,
            replace: None,
            handoff: None,
        }
    }

    fn pass(t: &mut OpTrace, id: u64) {
        t.push(Op::local(LocalKind::Dot, 2.0, 16.0));
        t.push(Op::post(id, 1));
        t.push(Op::spmv(0));
        t.push(Op::wait(id));
        t.push(Op::ResCheck { relres: 0.5 });
    }

    #[test]
    fn conforming_trace_passes() {
        let mut t = OpTrace::new(8);
        t.push(Op::spmv(0));
        pass(&mut t, 0);
        pass(&mut t, 1);
        assert_eq!(conform(&tiny_ir(), &t), Ok(()));
    }

    #[test]
    fn crossed_window_handles_diverge() {
        let mut t = OpTrace::new(8);
        t.push(Op::spmv(0));
        t.push(Op::local(LocalKind::Dot, 2.0, 16.0));
        t.push(Op::post(7, 1));
        t.push(Op::spmv(0));
        t.push(Op::wait(3)); // retires a handle this spec never posted
        t.push(Op::ResCheck { relres: 0.5 });
        let d = conform(&tiny_ir(), &t).unwrap_err();
        assert_eq!(d.at, 4);
        assert!(d.expected.contains("ArWait"));
    }

    #[test]
    fn wrong_cost_metadata_diverges() {
        let mut t = OpTrace::new(8);
        t.push(Op::spmv(0));
        t.push(Op::local(LocalKind::Dot, 2.0, 24.0)); // 24 B/row, spec says 16
        let d = conform(&tiny_ir(), &t).unwrap_err();
        assert_eq!(d.at, 1);
    }

    #[test]
    fn early_trace_end_is_a_divergence() {
        let mut t = OpTrace::new(8);
        t.push(Op::spmv(0));
        t.push(Op::local(LocalKind::Dot, 2.0, 16.0));
        t.push(Op::post(0, 1));
        let d = conform(&tiny_ir(), &t).unwrap_err();
        assert_eq!(d.at, 3);
        assert!(d.got.is_none());
    }

    #[test]
    fn handoff_conforms_the_suffix() {
        let phase2 = MethodIr {
            kind: MethodKind::Pcg,
            steps: 1,
            setup: vec![spmv("x", "ax")],
            body: vec![dot("r", "r", "n.part"), rescheck("n")],
            check_at: 1,
            setup_check: false,
            replace: None,
            handoff: None,
        };
        let mut ir = tiny_ir();
        ir.handoff = Some(Box::new(phase2));
        let mut t = OpTrace::new(8);
        t.push(Op::spmv(0));
        pass(&mut t, 0);
        // Phase 2 begins where phase 1's body would have continued.
        t.push(Op::spmv(0));
        t.push(Op::local(LocalKind::Dot, 2.0, 16.0));
        t.push(Op::ResCheck { relres: 0.5 });
        assert_eq!(conform(&ir, &t), Ok(()));
    }
}
