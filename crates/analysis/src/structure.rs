//! Structural Table I verification: does a trace have the communication
//! *shape* the paper claims for its method?
//!
//! Table I's claims are timing-free: how many allreduces per `s` steps,
//! whether they block, and which kernels overlap a pending reduction
//! (PIPE-sCG hides `s` SPMVs, PIPE-PsCG hides `s` PCs + `s` SPMVs, PCG's
//! dots serialize the pipeline entirely). Each [`MethodShape`] encodes one
//! row; [`verify`] checks a recorded trace against it.
//!
//! The shapes are cross-checked against `pipescg::costmodel::table1()` in
//! this module's tests, so the analyzer and the cost model cannot drift
//! apart silently.

use crate::dag::ScheduleDag;
use pipescg::methods::MethodKind;
use pscg_sim::{Op, OpTrace};

/// Allreduce discipline of a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Every reduction blocks; no overlap window may appear. `per_pass` is
    /// the number of blocking allreduces per loop pass (PCG: 3 — its dots
    /// serialize the pipeline; the s-step methods: 1 fused reduction).
    Blocking {
        /// Blocking allreduces per loop pass.
        per_pass: usize,
    },
    /// One non-blocking reduction per pass, overlapped with exactly this
    /// kernel mix.
    Overlapped {
        /// SPMV applications inside every overlap window.
        window_spmvs: usize,
        /// Preconditioner applications inside every overlap window.
        window_pcs: usize,
    },
    /// Phased mixture (the hybrid driver): windows must still hide real
    /// work, but the cadence switches mid-solve and is not checked.
    Mixed,
}

/// The Table I shape of one method at a given `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodShape {
    /// Matching row name in `costmodel::table1()`, when the paper's table
    /// has one (it omits sCG, sCG-sSPMV, PIPE-sCG, CG3 and the hybrid).
    pub table_row: Option<&'static str>,
    /// CG steps advanced per loop pass (per convergence check).
    pub steps_per_pass: usize,
    /// Reduction discipline.
    pub pipeline: Pipeline,
}

impl MethodShape {
    /// The shape of `kind` at s-step parameter `s` (ignored by the classic
    /// and depth-2 methods, exactly as their solvers ignore `opts.s`).
    pub fn of(kind: MethodKind, s: usize) -> MethodShape {
        use MethodKind::*;
        let (table_row, steps_per_pass, pipeline) = match kind {
            Pcg => (Some("PCG"), 1, Pipeline::Blocking { per_pass: 3 }),
            Cg3 => (None, 1, Pipeline::Blocking { per_pass: 1 }),
            Pipecg => (
                Some("PIPECG"),
                1,
                Pipeline::Overlapped {
                    window_spmvs: 1,
                    window_pcs: 1,
                },
            ),
            Pipecg3 => (
                Some("PIPECG3"),
                2,
                Pipeline::Overlapped {
                    window_spmvs: 2,
                    window_pcs: 2,
                },
            ),
            PipecgOati => (
                Some("PIPECG-OATI"),
                2,
                Pipeline::Overlapped {
                    window_spmvs: 2,
                    window_pcs: 2,
                },
            ),
            Scg => (None, s, Pipeline::Blocking { per_pass: 1 }),
            ScgSspmv => (None, s, Pipeline::Blocking { per_pass: 1 }),
            Pscg => (Some("PsCG"), s, Pipeline::Blocking { per_pass: 1 }),
            PipeScg => (
                None,
                s,
                Pipeline::Overlapped {
                    window_spmvs: s,
                    window_pcs: 0,
                },
            ),
            PipePscg => (
                Some("PIPE-PsCG"),
                s,
                Pipeline::Overlapped {
                    window_spmvs: s,
                    window_pcs: s,
                },
            ),
            Hybrid => (None, s, Pipeline::Mixed),
        };
        MethodShape {
            table_row,
            steps_per_pass,
            pipeline,
        }
    }

    /// Closed-form allreduces per `s` CG steps implied by this shape —
    /// the quantity Table I tabulates.
    pub fn allreduces_per_s_steps(&self, s: usize) -> usize {
        let passes = s.div_ceil(self.steps_per_pass);
        match self.pipeline {
            Pipeline::Blocking { per_pass } => per_pass * passes,
            Pipeline::Overlapped { .. } => passes,
            Pipeline::Mixed => passes,
        }
    }
}

/// One way a trace deviates from its method's Table I shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureViolation {
    /// A blocking-only method posted a non-blocking reduction.
    UnexpectedNonblocking {
        /// Trace index of the post.
        at: usize,
    },
    /// An overlap window hid the wrong kernel mix (e.g. a hoisted wait
    /// leaves the window empty — the pipeline exists in name only).
    WindowShape {
        /// Index of the window in post order.
        window: usize,
        /// Expected `(spmvs, pcs)` inside the window.
        expected: (usize, usize),
        /// Observed `(spmvs, pcs)`.
        got: (usize, usize),
    },
    /// The reduction count disagrees with the Table I cadence beyond the
    /// setup allowance.
    CadenceMismatch {
        /// Reductions the shape predicts for the observed pass count.
        expected: usize,
        /// Reductions observed.
        got: usize,
        /// Convergence-check passes observed.
        passes: usize,
    },
    /// A pipelined method fell back to blocking reductions mid-loop.
    ExcessBlocking {
        /// Blocking allreduces observed.
        got: usize,
        /// Setup allowance.
        allowed: usize,
    },
}

impl std::fmt::Display for StructureViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructureViolation::UnexpectedNonblocking { at } => {
                write!(
                    f,
                    "op {at}: non-blocking reduction in a blocking-only method"
                )
            }
            StructureViolation::WindowShape {
                window,
                expected,
                got,
            } => write!(
                f,
                "window {window}: expected {}+{} SPMVs+PCs overlapped, got {}+{}",
                expected.0, expected.1, got.0, got.1
            ),
            StructureViolation::CadenceMismatch {
                expected,
                got,
                passes,
            } => write!(
                f,
                "cadence: expected ~{expected} reductions over {passes} passes, got {got}"
            ),
            StructureViolation::ExcessBlocking { got, allowed } => write!(
                f,
                "{got} blocking allreduces in a pipelined method (setup allowance {allowed})"
            ),
        }
    }
}

/// Reductions outside the iteration loop that every solver is allowed:
/// reference-norm of `b`, the basis-scale estimate, and initial-residual setup.
const SETUP_ALLOWANCE: usize = 4;

/// Checks a recorded trace against the Table I shape of `kind` at
/// parameter `s`. An empty result means the schedule is structurally
/// exactly what the paper's table claims.
pub fn verify(trace: &OpTrace, kind: MethodKind, s: usize) -> Vec<StructureViolation> {
    let shape = MethodShape::of(kind, s);
    let dag = ScheduleDag::build(trace);
    let mut out = Vec::new();

    let mut passes = 0usize;
    let mut blocking = 0usize;
    let mut posts = 0usize;
    let mut first_post = None;
    for (i, op) in trace.ops.iter().enumerate() {
        match op {
            Op::ResCheck { .. } => passes += 1,
            Op::ArBlocking { .. } => blocking += 1,
            Op::ArPost { .. } => {
                posts += 1;
                first_post.get_or_insert(i);
            }
            _ => {}
        }
    }

    match shape.pipeline {
        Pipeline::Blocking { per_pass } => {
            if let Some(at) = first_post {
                out.push(StructureViolation::UnexpectedNonblocking { at });
            }
            if passes > 0 {
                let expected = per_pass * passes;
                if blocking.abs_diff(expected) > SETUP_ALLOWANCE {
                    out.push(StructureViolation::CadenceMismatch {
                        expected,
                        got: blocking,
                        passes,
                    });
                }
            }
        }
        Pipeline::Overlapped {
            window_spmvs,
            window_pcs,
        } => {
            for (w, window) in dag.windows.iter().enumerate() {
                let k = dag.kernels(trace, window);
                if (k.spmvs, k.pcs) != (window_spmvs, window_pcs) {
                    out.push(StructureViolation::WindowShape {
                        window: w,
                        expected: (window_spmvs, window_pcs),
                        got: (k.spmvs, k.pcs),
                    });
                }
            }
            if passes > 0 && posts.abs_diff(passes) > SETUP_ALLOWANCE {
                out.push(StructureViolation::CadenceMismatch {
                    expected: passes,
                    got: posts,
                    passes,
                });
            }
            if blocking > SETUP_ALLOWANCE {
                out.push(StructureViolation::ExcessBlocking {
                    got: blocking,
                    allowed: SETUP_ALLOWANCE,
                });
            }
        }
        Pipeline::Mixed => {
            // Phase boundaries move, so only the invariant part is checked:
            // every window must hide at least one SPMV.
            for (w, window) in dag.windows.iter().enumerate() {
                let k = dag.kernels(trace, window);
                if k.spmvs == 0 {
                    out.push(StructureViolation::WindowShape {
                        window: w,
                        expected: (1, 0),
                        got: (k.spmvs, k.pcs),
                    });
                }
            }
        }
    }
    out
}

/// [`verify`] for a fault-perturbed trace (one recorded under an active
/// `crates/fault` plan).
///
/// *Delayed* completions (retriable [`Op::ArTimeout`]s) are
/// shape-transparent — the overlap window simply extends to the successful
/// retry and the kernel mix inside it is unchanged — so a delay-only trace
/// is held to the full Table I shape. A *dropped* completion
/// (non-retriable timeout) is different: from that point on the solver is
/// in recovery by design — re-posting reductions, restarting, possibly
/// falling back to a blocking method — so Table I stops being the
/// specification. This function therefore verifies the strict shape on the
/// prefix up to the first drop and leaves the recovery suffix to the
/// hazard analysis ([`crate::analyze`]), which still applies in full.
pub fn verify_faulted(trace: &OpTrace, kind: MethodKind, s: usize) -> Vec<StructureViolation> {
    let first_drop = trace.ops.iter().position(|op| {
        matches!(
            op,
            Op::ArTimeout {
                retriable: false,
                ..
            }
        )
    });
    match first_drop {
        None => verify(trace, kind, s),
        Some(cut) => {
            let prefix = OpTrace {
                nrows: trace.nrows,
                profiles: trace.profiles.clone(),
                ops: trace.ops[..cut].to_vec(),
            };
            verify(&prefix, kind, s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipescg::costmodel::table1;

    /// The analyzer's shapes and the cost model's Table I must agree on
    /// the allreduce cadence for every method the paper tabulates.
    #[test]
    fn shapes_agree_with_cost_model_table1() {
        let rows = table1();
        let kinds = [
            MethodKind::Pcg,
            MethodKind::Pipecg,
            MethodKind::Pipecg3,
            MethodKind::PipecgOati,
            MethodKind::Pscg,
            MethodKind::PipePscg,
        ];
        for s in 1..=8 {
            for kind in kinds {
                let shape = MethodShape::of(kind, s);
                let name = shape.table_row.expect("kind has a table row");
                let row = rows
                    .iter()
                    .find(|r| r.method == name)
                    .unwrap_or_else(|| panic!("no table1 row named {name}"));
                assert_eq!(
                    shape.allreduces_per_s_steps(s),
                    (row.allreduces)(s),
                    "{name} at s={s}"
                );
            }
        }
    }

    /// Every table1 row except PIPELCG (which the repo does not implement;
    /// see ROADMAP.md) must be claimed by some method shape.
    #[test]
    fn every_implemented_table1_row_is_claimed() {
        let claimed: Vec<&str> = [
            MethodKind::Pcg,
            MethodKind::Pipecg,
            MethodKind::Pipecg3,
            MethodKind::PipecgOati,
            MethodKind::Pscg,
            MethodKind::PipePscg,
        ]
        .iter()
        .filter_map(|&k| MethodShape::of(k, 4).table_row)
        .collect();
        for row in table1() {
            if row.method == "PIPELCG" {
                continue;
            }
            assert!(
                claimed.contains(&row.method),
                "unclaimed row {}",
                row.method
            );
        }
    }

    #[test]
    fn empty_window_is_a_shape_violation() {
        use pscg_sim::Op;
        let mut t = OpTrace::new(8);
        t.push(Op::post(0, 2));
        t.push(Op::wait(0));
        t.push(Op::ResCheck { relres: 0.5 });
        let v = verify(&t, MethodKind::Pipecg, 1);
        assert!(v
            .iter()
            .any(|v| matches!(v, StructureViolation::WindowShape { got: (0, 0), .. })));
    }

    #[test]
    fn blocking_method_rejects_posts() {
        use pscg_sim::Op;
        let mut t = OpTrace::new(8);
        t.push(Op::post(0, 2));
        t.push(Op::wait(0));
        let v = verify(&t, MethodKind::Pcg, 1);
        assert_eq!(v, vec![StructureViolation::UnexpectedNonblocking { at: 0 }]);
    }

    /// A delayed completion (retriable timeout inside the window, then the
    /// successful wait) leaves the Table I shape intact, so a delay-only
    /// trace is verified in full and comes back clean.
    #[test]
    fn retriable_timeouts_are_shape_transparent() {
        use pscg_sim::Op;
        let mut t = OpTrace::new(64);
        t.push(Op::post(0, 2));
        t.push(Op::pc(0, 1.0, 8.0, 0));
        t.push(Op::timeout(0, true));
        t.push(Op::spmv(0));
        t.push(Op::wait(0));
        t.push(Op::ResCheck { relres: 0.5 });
        assert!(verify_faulted(&t, MethodKind::Pipecg, 1).is_empty());
    }

    /// After a dropped completion the solver is in recovery, which is not
    /// Table I's specification: `verify_faulted` holds only the prefix up
    /// to the drop to the strict shape, while plain `verify` on the same
    /// trace flags the recovery suffix.
    #[test]
    fn drop_truncates_verification_to_the_prefix() {
        use pscg_sim::Op;
        let mut t = OpTrace::new(64);
        // One clean PIPECG pass.
        t.push(Op::post(0, 2));
        t.push(Op::pc(0, 1.0, 8.0, 0));
        t.push(Op::spmv(0));
        t.push(Op::wait(0));
        t.push(Op::ResCheck { relres: 0.5 });
        // The drop, then a recovery suffix that no longer looks like
        // PIPECG: an empty window and a blocking fallback.
        t.push(Op::post(1, 2));
        t.push(Op::timeout(1, false));
        t.push(Op::post(2, 2));
        t.push(Op::wait(2));
        for _ in 0..SETUP_ALLOWANCE + 1 {
            t.push(Op::blocking(2));
        }
        assert!(verify_faulted(&t, MethodKind::Pipecg, 1).is_empty());
        assert!(!verify(&t, MethodKind::Pipecg, 1).is_empty());
    }
}
