//! Mixed-precision preconditioning policy (DESIGN.md §12): with
//! `SolveOptions::pc_fp32` the recovery-ladder supervisor demotes the
//! preconditioner apply to fp32 (half the diagonal/factor traffic) inside
//! the fp64 outer loop. The existing acceptance machinery — the in-loop
//! drift probe plus the supervisor's recomputed-true-residual check —
//! guards the reduced precision: a demoted apply may cost a restart, but
//! it can never produce a silently wrong answer, because any failed or
//! lying attempt promotes back to fp64 before the ladder retries.
//!
//! Two halves: (1) attainable accuracy — on the seed Poisson problem the
//! fp32 apply converges to the same fp64 tolerance as the full-precision
//! run; (2) clean fallback — on a symmetrically rescaled problem whose
//! inverse diagonal overflows f32, the demoted apply breaks down
//! immediately and the ladder must still return a *verified* fp64 answer,
//! recording the demote/promote recovery spans.

use pipescg::methods::MethodKind;
use pipescg::resilience::code;
use pipescg::solver::{NormType, SolveOptions};
use pscg_obs::span::SpanKind;
use pscg_precond::{BlockJacobi, PcKind};
use pscg_sim::{Context, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::CsrMatrix;
use pscg_sparse::Operator;

fn opts_fp32() -> SolveOptions {
    SolveOptions {
        rtol: 1e-6,
        s: 3,
        max_iters: 10_000,
        pc_fp32: true,
        norm: NormType::Unpreconditioned,
        ..Default::default()
    }
}

/// Recomputed true relative residual `‖b − A x‖₂ / ‖b‖₂`, from scratch.
fn true_relres(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    let num: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, yi)| (bi - yi) * (bi - yi))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den
}

/// Attainable accuracy: the fp32 apply must reach the *fp64* tolerance on
/// the seed Poisson problem, for both fp32-capable preconditioners, and
/// the recomputed residual must honour it (spans are checked in the
/// supervisor test below, which is this binary's only span drainer).
#[test]
fn fp32_preconditioner_reaches_fp64_tolerance_on_seed_poisson() {
    let a = poisson3d_7pt(Grid3::cube(8), None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    for (pc_name, block) in [("Jacobi", false), ("BlockJacobi", true)] {
        for method in [MethodKind::Pcg, MethodKind::PipePscg] {
            let pc: Box<dyn Operator> = if block {
                Box::new(BlockJacobi::new(&a, 16))
            } else {
                PcKind::Jacobi.build(&a, None)
            };
            let mut ctx = SimCtx::serial(&a, pc);
            let res = method
                .solve_resilient(&mut ctx, &b, None, &opts_fp32())
                .unwrap_or_else(|e| panic!("{} + fp32 {pc_name}: {e:?}", method.name()));
            assert!(res.converged(), "{} + fp32 {pc_name}", method.name());
            let t = true_relres(&a, &b, &res.x);
            assert!(
                t <= 1e-5,
                "{} + fp32 {pc_name}: recomputed residual {t:.3e} misses the fp64 tolerance",
                method.name()
            );
        }
    }
}

/// Clean fallback: diagonal entries near 1e-60 invert to ~1e59 — finite in
/// f64, **infinite** in f32 — so the demoted Jacobi apply produces
/// non-finite iterates at once. The breakdown guard fails the attempt, the
/// ladder promotes back to fp64, and the retry must converge with an
/// honest recomputed residual. Both the demotion and the promotion must
/// appear as recovery spans. This is the binary's only test that enables
/// telemetry and drains spans, so the global ring is single-reader.
#[test]
fn fp32_overflow_falls_back_to_fp64_cleanly() {
    // Symmetric rescaling D·A·D of the Poisson operator with d = 1e-30 on
    // the first rows: SPD, solvable in fp64 (Jacobi undoes the scaling),
    // but inv(diag) ≈ 1.7e59 overflows f32 on the scaled block.
    let mut a = poisson3d_7pt(Grid3::cube(6), None);
    let n = a.nrows();
    let d: Vec<f64> = (0..n).map(|i| if i < 8 { 1e-30 } else { 1.0 }).collect();
    let (rp, ci): (Vec<usize>, Vec<u32>) = (a.row_ptr().to_vec(), a.col_idx().to_vec());
    let vals = a.vals_mut();
    for r in 0..n {
        for k in rp[r]..rp[r + 1] {
            vals[k] *= d[r] * d[ci[k] as usize];
        }
    }
    let b = a.mul_vec(&vec![1.0; n]);

    pscg_obs::set_enabled(true);
    pscg_obs::span::drain(); // discard anything recorded before this test
    let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
    let res = MethodKind::Pcg
        .solve_resilient(&mut ctx, &b, None, &opts_fp32())
        .expect("ladder must recover from the fp32 overflow");
    let spans = pscg_obs::span::drain();
    pscg_obs::set_enabled(false);

    assert!(res.converged(), "fallback solve did not converge");
    assert!(res.x.iter().all(|v| v.is_finite()));
    let t = true_relres(&a, &b, &res.x);
    assert!(t <= 1e-5, "recomputed residual {t:.3e} contradicts success");

    let recoveries: Vec<u64> = spans
        .records
        .iter()
        .filter(|s| s.kind == SpanKind::Recovery)
        .map(|s| s.arg)
        .collect();
    assert!(
        recoveries.contains(&code::PC_DEMOTE),
        "demotion was not recorded: {recoveries:?}"
    );
    assert!(
        recoveries.contains(&code::PC_PROMOTE),
        "fp64 promotion was not recorded: {recoveries:?}"
    );
    assert!(
        !ctx.pc_demoted(),
        "the context must end the solve back at fp64"
    );
}

/// The knob is inert by default: with `pc_fp32` left false the resilient
/// path never demotes, and its solution is bitwise identical to a plain
/// armed-resilience solve (mixed precision is strictly opt-in).
#[test]
fn pc_fp32_defaults_off_and_changes_nothing() {
    let a = poisson3d_7pt(Grid3::cube(7), None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let opts = SolveOptions {
        pc_fp32: false,
        ..opts_fp32()
    };
    let mut c1 = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
    let r1 = MethodKind::Pcg
        .solve_resilient(&mut c1, &b, None, &opts)
        .unwrap();
    assert!(!c1.pc_demoted());
    let mut c2 = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
    let r2 = MethodKind::Pcg
        .solve_resilient(&mut c2, &b, None, &opts)
        .unwrap();
    assert_eq!(
        r1.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        r2.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "fp64 solves must stay bitwise reproducible"
    );
}
