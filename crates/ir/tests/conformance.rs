//! IR↔trace conformance on real solves: every method's recorded schedule
//! must replay op-for-op against its declarative IR, at one and at four
//! threads, including the hybrid driver's phase-2 handoff.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_ir::{conform, method_ir, verify_static};
use pscg_precond::Jacobi;
use pscg_sim::{Layout, MatrixProfile, OpTrace, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::CsrMatrix;

fn problem() -> (CsrMatrix, Vec<f64>, MatrixProfile) {
    let g = Grid3::cube(8);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
    (a, b, prof)
}

fn solve_trace(
    a: &CsrMatrix,
    b: &[f64],
    prof: &MatrixProfile,
    kind: MethodKind,
    opts: &SolveOptions,
) -> OpTrace {
    let mut ctx = SimCtx::traced(a, Box::new(Jacobi::new(a)), prof.clone());
    kind.solve(&mut ctx, b, None, opts);
    ctx.take_trace().unwrap()
}

/// The acceptance gate: all eleven methods, two block sizes, one and four
/// threads. Thread counts are swept inside one test because the thread pool
/// is process-global.
#[test]
fn all_methods_conform_at_one_and_four_threads() {
    let (a, b, prof) = problem();
    let before = pscg_par::global_threads();
    for threads in [1, 4] {
        pscg_par::set_global_threads(threads);
        for s in [3, 4] {
            for kind in MethodKind::ALL {
                let opts = SolveOptions::with_rtol(1e-6).with_s(s);
                let trace = solve_trace(&a, &b, &prof, kind, &opts);
                let ir = method_ir(kind, s);
                if let Err(d) = conform(&ir, &trace) {
                    panic!("{} (s={s}, {threads} threads): {d}", kind.name());
                }
            }
        }
    }
    pscg_par::set_global_threads(before);
}

/// At an unreachable tolerance the hybrid driver stagnates in phase 1 and
/// hands the iterate to PIPECG-OATI; the recorded trace must follow the
/// phase-1 body up to a convergence check and then conform to the phase-2
/// IR — including OATI's periodic replacement passes.
#[test]
fn hybrid_handoff_trace_conforms() {
    let (a, b, prof) = problem();
    let opts = SolveOptions {
        rtol: 1e-30,
        atol: 0.0,
        max_iters: 400,
        s: 3,
        ..Default::default()
    };
    let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof.clone());
    let res = MethodKind::Hybrid.solve(&mut ctx, &b, None, &opts);
    let trace = ctx.take_trace().unwrap();
    // The handoff must actually have happened for this test to mean
    // anything: phase 2 re-runs the reference norm, so the trace carries
    // more than one blocking allreduce of 3.
    let refnorms = trace
        .ops
        .iter()
        .filter(|op| matches!(op, pscg_sim::Op::ArBlocking { doubles: 3, .. }))
        .count();
    assert!(
        refnorms >= 2,
        "phase 2 never started (stop: {:?})",
        res.stop
    );
    let ir = method_ir(MethodKind::Hybrid, 3);
    if let Err(d) = conform(&ir, &trace) {
        panic!("hybrid handoff: {d}");
    }
}

/// OATI's replacement cadence shows up in real traces: run long enough to
/// cross `replace_every` and the replacement-pass body must be taken.
#[test]
fn oati_replacement_passes_conform() {
    let (a, b, prof) = problem();
    // 24 replacement period × 2 steps per pass: ~60 passes crosses it twice.
    let opts = SolveOptions {
        rtol: 1e-30,
        atol: 0.0,
        max_iters: 120,
        s: 3,
        ..Default::default()
    };
    let trace = solve_trace(&a, &b, &prof, MethodKind::PipecgOati, &opts);
    let ir = method_ir(MethodKind::PipecgOati, 3);
    if let Err(d) = conform(&ir, &trace) {
        panic!("OATI replacement: {d}");
    }
}

/// Every planted broken spec is rejected by its designated layer against a
/// *real* trace of the method it sabotages — the verifier is not vacuous.
#[test]
fn planted_bugs_are_rejected_against_real_traces() {
    let (a, b, prof) = problem();
    for bug in pscg_ir::broken::all() {
        let statically = verify_static(&bug.ir);
        match bug.expect {
            pscg_ir::broken::Expect::Static => {
                assert!(
                    !statically.is_empty(),
                    "{}: static verifier missed it",
                    bug.name
                );
            }
            pscg_ir::broken::Expect::Conformance => {
                assert!(
                    statically.is_empty(),
                    "{}: expected statically clean, got {:?}",
                    bug.name,
                    statically
                );
                let opts = SolveOptions::with_rtol(1e-6).with_s(bug.ir.steps);
                let trace = solve_trace(&a, &b, &prof, bug.ir.kind, &opts);
                assert!(
                    conform(&bug.ir, &trace).is_err(),
                    "{}: conformance waved the planted bug through",
                    bug.name
                );
            }
        }
    }
}
