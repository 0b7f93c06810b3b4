//! Tier-1 acceptance: every shipped method, under each of the three
//! paper preconditioners, must produce a hazard-free schedule whose
//! structure matches its Table I row.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_analysis::{analyze, verify};
use pscg_precond::{BlockJacobi, Ic0, Jacobi};
use pscg_sim::{Layout, MatrixProfile, SimCtx};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::{CsrMatrix, Operator};

const S: usize = 4;

fn problem() -> (CsrMatrix, Vec<f64>, MatrixProfile) {
    let g = Grid3::cube(8);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let prof = MatrixProfile::stencil3d(8, 8, 8, 1, a.nnz(), Layout::Box);
    (a, b, prof)
}

fn precond(name: &str, a: &CsrMatrix) -> Box<dyn Operator> {
    match name {
        "Jacobi" => Box::new(Jacobi::new(a)),
        "BlockJacobi" => Box::new(BlockJacobi::new(a, 16)),
        "IC(0)" => Box::new(Ic0::new(a).expect("Poisson matrix admits IC(0)")),
        _ => unreachable!(),
    }
}

#[test]
fn every_method_is_hazard_free_under_every_preconditioner() {
    let (a, b, prof) = problem();
    for pc_name in ["Jacobi", "BlockJacobi", "IC(0)"] {
        for method in MethodKind::ALL {
            let pc = precond(pc_name, &a);
            let mut ctx = SimCtx::traced(&a, pc, prof.clone());
            let opts = SolveOptions::with_rtol(1e-6).with_s(S);
            let res = method.solve(&mut ctx, &b, None, &opts);
            assert!(
                res.converged(),
                "{} + {pc_name} did not converge",
                method.name()
            );
            let trace = ctx.take_trace().unwrap();
            let report = analyze(&trace);
            assert!(
                report.is_clean(),
                "{} + {pc_name} schedule hazards: {:?}",
                method.name(),
                report.hazards
            );
            let violations = verify(&trace, method, S);
            assert!(
                violations.is_empty(),
                "{} + {pc_name} structure violations: {:?}",
                method.name(),
                violations
            );
        }
    }
}

#[test]
fn pipelined_methods_actually_open_windows() {
    // A trace with zero overlap windows would pass the hazard checks
    // vacuously; pin down that the pipelined methods really overlap.
    let (a, b, prof) = problem();
    for method in [
        MethodKind::Pipecg,
        MethodKind::Pipecg3,
        MethodKind::PipecgOati,
        MethodKind::PipeScg,
        MethodKind::PipePscg,
        MethodKind::Hybrid,
    ] {
        let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof.clone());
        let opts = SolveOptions::with_rtol(1e-6).with_s(S);
        let res = method.solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let trace = ctx.take_trace().unwrap();
        let report = analyze(&trace);
        assert!(
            !report.windows.is_empty(),
            "{} opened no overlap windows",
            method.name()
        );
    }
}

#[test]
fn blocking_methods_open_no_windows() {
    let (a, b, prof) = problem();
    for method in [
        MethodKind::Pcg,
        MethodKind::Scg,
        MethodKind::ScgSspmv,
        MethodKind::Pscg,
        MethodKind::Cg3,
    ] {
        let mut ctx = SimCtx::traced(&a, Box::new(Jacobi::new(&a)), prof.clone());
        let opts = SolveOptions::with_rtol(1e-6).with_s(S);
        method.solve(&mut ctx, &b, None, &opts);
        let trace = ctx.take_trace().unwrap();
        assert!(
            analyze(&trace).windows.is_empty(),
            "{} unexpectedly posted a non-blocking reduction",
            method.name()
        );
    }
}
