//! Method × problem × preconditioner matrix: every solver must converge on
//! every (reasonable) combination and produce a solution whose *recomputed*
//! residual honours the tolerance within the drift allowance of its class.

use pipescg::methods::MethodKind;
use pipescg::solver::{SolveOptions, StopReason};
use pscg_precond::PcKind;
use pscg_sim::SimCtx;
use pscg_sparse::stencil::{poisson2d_5pt, poisson3d_125pt, poisson3d_27pt, poisson3d_7pt, Grid3};
use pscg_sparse::suitesparse;
use pscg_sparse::CsrMatrix;

fn problems() -> Vec<(String, CsrMatrix, Option<Grid3>)> {
    let g7 = Grid3::cube(7);
    let g27 = Grid3::new(6, 5, 7);
    let g125 = Grid3::cube(6);
    vec![
        ("poisson7".into(), poisson3d_7pt(g7, None), Some(g7)),
        ("poisson27".into(), poisson3d_27pt(g27), Some(g27)),
        ("poisson125".into(), poisson3d_125pt(g125), Some(g125)),
        ("aniso2d".into(), poisson2d_5pt(18, 15, 1.0, 0.25), None),
        (
            "thermal-like".into(),
            suitesparse::thermal2_like(Grid3::cube(6), 3).unwrap(),
            None,
        ),
    ]
}

fn all_methods() -> Vec<MethodKind> {
    vec![
        MethodKind::Pcg,
        MethodKind::Pipecg,
        MethodKind::Pipecg3,
        MethodKind::PipecgOati,
        MethodKind::Scg,
        MethodKind::ScgSspmv,
        MethodKind::Pscg,
        MethodKind::PipeScg,
        MethodKind::PipePscg,
        MethodKind::Hybrid,
    ]
}

#[test]
fn every_method_solves_every_problem_with_jacobi() {
    for (name, a, _) in problems() {
        let b = a.mul_vec(&vec![1.0; a.nrows()]);
        for m in all_methods() {
            // The *unpreconditioned* pipelined s-step recurrences are not
            // expected to survive a kappa ~ 1e5 heterogeneous operator —
            // the paper only runs PIPE-sCG on the Poisson problem — but
            // they must fail gracefully (defined stop reason, finite x).
            let may_break = name == "thermal-like"
                && matches!(
                    m,
                    MethodKind::PipeScg | MethodKind::ScgSspmv | MethodKind::Scg
                );
            let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
            let opts = SolveOptions {
                rtol: 1e-6,
                s: 3,
                max_iters: 30_000,
                ..Default::default()
            };
            let res = m.solve(&mut ctx, &b, None, &opts);
            if may_break && !res.converged() {
                assert!(
                    matches!(res.stop, StopReason::Breakdown | StopReason::Stagnated),
                    "{} on {name}: {:?}",
                    m.name(),
                    res.stop
                );
                assert!(
                    res.x.iter().all(|v| v.is_finite()),
                    "{} on {name}",
                    m.name()
                );
                continue;
            }
            assert!(
                res.converged(),
                "{} on {name}: {:?} at relres {:.2e}",
                m.name(),
                res.stop,
                res.final_relres
            );
            let true_res = res.true_relres(&a, &b);
            assert!(
                true_res < 1e-4,
                "{} on {name}: true residual {true_res:.2e} drifted too far",
                m.name()
            );
        }
    }
}

#[test]
fn preconditioned_methods_work_with_every_preconditioner() {
    let g = Grid3::cube(8);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    for pc in [
        PcKind::None,
        PcKind::Jacobi,
        PcKind::Sor,
        PcKind::Mg,
        PcKind::Gamg,
    ] {
        for m in [
            MethodKind::Pcg,
            MethodKind::Pipecg,
            MethodKind::Pscg,
            MethodKind::PipePscg,
        ] {
            let mut ctx = SimCtx::serial(&a, pc.build(&a, Some(g)));
            let opts = SolveOptions {
                rtol: 1e-7,
                s: 3,
                max_iters: 20_000,
                ..Default::default()
            };
            let res = m.solve(&mut ctx, &b, None, &opts);
            assert!(
                res.converged(),
                "{} with {}: {:?} at {:.2e}",
                m.name(),
                pc.name(),
                res.stop,
                res.final_relres
            );
            assert!(
                res.true_relres(&a, &b) < 1e-5,
                "{} with {}",
                m.name(),
                pc.name()
            );
        }
    }
}

#[test]
fn stronger_preconditioners_cut_iteration_counts() {
    let g = Grid3::cube(12);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let mut iters = Vec::new();
    for pc in [PcKind::None, PcKind::Jacobi, PcKind::Sor, PcKind::Mg] {
        let mut ctx = SimCtx::serial(&a, pc.build(&a, Some(g)));
        let opts = SolveOptions {
            rtol: 1e-8,
            ..Default::default()
        };
        let res = MethodKind::Pcg.solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        iters.push((pc.name(), res.iterations));
    }
    // None >= Jacobi >= SOR > MG (Jacobi == None for this operator only up
    // to scaling, so allow equality there).
    assert!(iters[0].1 >= iters[1].1, "{iters:?}");
    assert!(iters[1].1 >= iters[2].1, "{iters:?}");
    assert!(iters[2].1 > iters[3].1, "{iters:?}");
    assert!(
        iters[3].1 < 15,
        "MG-CG should converge in a handful of steps: {iters:?}"
    );
}

#[test]
fn methods_agree_on_the_solution() {
    // All methods implement the same Krylov process: solutions must agree
    // to roughly the convergence tolerance.
    let g = Grid3::new(6, 7, 5);
    let a = poisson3d_27pt(g);
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n).map(|i| (0.13 * i as f64).sin()).collect();
    let b = a.mul_vec(&xstar);
    let opts = SolveOptions {
        rtol: 1e-9,
        s: 3,
        ..Default::default()
    };
    for m in all_methods() {
        let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
        let res = m.solve(&mut ctx, &b, None, &opts);
        assert!(res.converged(), "{}", m.name());
        let err = res
            .x
            .iter()
            .zip(&xstar)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-6, "{}: max error {err}", m.name());
    }
}

#[test]
fn tiny_and_degenerate_systems_are_handled() {
    // 1x1 system.
    let a = CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![0], vec![4.0]).unwrap();
    let b = vec![8.0];
    let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
    let res = MethodKind::PipePscg.solve(&mut ctx, &b, None, &SolveOptions::default());
    assert!(res.converged());
    assert!((res.x[0] - 2.0).abs() < 1e-10);

    // Zero right-hand side: immediate convergence, x stays 0.
    let g = Grid3::cube(4);
    let a = poisson3d_7pt(g, None);
    let b = vec![0.0; a.nrows()];
    for m in [MethodKind::Pcg, MethodKind::PipePscg] {
        let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
        let res = m.solve(&mut ctx, &b, None, &SolveOptions::default());
        assert!(
            res.stop == StopReason::Converged || res.final_relres.is_nan(),
            "{}: {:?}",
            m.name(),
            res.stop
        );
        assert!(res.x.iter().all(|&v| v.abs() < 1e-12), "{}", m.name());
    }
}

#[test]
fn s_equals_one_pipelined_methods_still_work() {
    let g = Grid3::cube(6);
    let a = poisson3d_7pt(g, None);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    for m in [
        MethodKind::PipeScg,
        MethodKind::PipePscg,
        MethodKind::Pscg,
        MethodKind::Scg,
    ] {
        let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
        let opts = SolveOptions {
            rtol: 1e-7,
            s: 1,
            ..Default::default()
        };
        let res = m.solve(&mut ctx, &b, None, &opts);
        assert!(res.converged(), "{} at s=1", m.name());
    }
}

#[test]
fn large_s_eventually_breaks_down_gracefully() {
    // A monomial basis of degree ~20 on an ill-conditioned operator is
    // numerically rank deficient; the solver must stop with a defined
    // reason, not panic or return garbage silently.
    let a = poisson2d_5pt(40, 40, 1.0, 0.01);
    let b = a.mul_vec(&vec![1.0; a.nrows()]);
    let mut ctx = SimCtx::serial(&a, PcKind::Jacobi.build(&a, None));
    let opts = SolveOptions {
        rtol: 1e-12,
        s: 20,
        max_iters: 4000,
        ..Default::default()
    };
    let res = MethodKind::PipePscg.solve(&mut ctx, &b, None, &opts);
    assert!(
        matches!(
            res.stop,
            StopReason::Breakdown
                | StopReason::Stagnated
                | StopReason::MaxIterations
                | StopReason::Converged
        ),
        "{:?}",
        res.stop
    );
    // Whatever happened, the reported x must be finite.
    assert!(res.x.iter().all(|v| v.is_finite()));
}
