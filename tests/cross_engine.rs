//! Cross-engine equivalence: the same solver code must produce the same
//! solution whether it runs on the single-rank sim engine or as a genuine
//! SPMD program on the thread-backed message-passing runtime.
//!
//! This is the test that certifies the pipelined methods are *actually
//! distributed* — every dot product goes through a real (non-)blocking
//! allreduce, every SpMV through a real halo exchange — and not artifacts of
//! a shared address space.

use pipescg::methods::MethodKind;
use pipescg::solver::SolveOptions;
use pscg_precond::Jacobi;
use pscg_sim::thread::{run_spmd, LocalPc, RankCtx};
use pscg_sim::SimCtx;
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
use pscg_sparse::CsrMatrix;

fn problem() -> (CsrMatrix, Vec<f64>) {
    let g = Grid3::new(5, 5, 8);
    let a = poisson3d_7pt(g, None);
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n).map(|i| (0.17 * i as f64).sin()).collect();
    let b = a.mul_vec(&xstar);
    (a, b)
}

/// Runs `method` distributed over `p` ranks and returns the gathered
/// solution with the iteration count.
fn solve_distributed(
    a: &CsrMatrix,
    b: &[f64],
    method: MethodKind,
    p: usize,
    opts: &SolveOptions,
    jacobi: bool,
) -> (Vec<f64>, usize) {
    let (part, plan) = RankCtx::prepare(a, p);
    let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
    let pieces = run_spmd(p, |rank, world| {
        let (lo, hi) = part.range(rank);
        let pc = if jacobi {
            LocalPc::Jacobi(inv_diag[lo..hi].to_vec())
        } else {
            LocalPc::None
        };
        let mut ctx = RankCtx::new(world, rank, a, &part, &plan, pc);
        let res = method.solve(&mut ctx, &b[lo..hi], None, opts);
        (res.x, res.iterations)
    });
    let iters = pieces[0].1;
    for (_, it) in &pieces {
        assert_eq!(*it, iters, "ranks disagreed on iteration count");
    }
    (pieces.into_iter().flat_map(|(x, _)| x).collect(), iters)
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    let max = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    assert!(max < tol, "{what}: max deviation {max}");
}

#[test]
fn pcg_distributed_matches_serial_across_rank_counts() {
    let (a, b) = problem();
    let opts = SolveOptions::with_rtol(1e-8);
    let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
    let serial = MethodKind::Pcg.solve(&mut ctx, &b, None, &opts);
    assert!(serial.converged());
    for p in [1usize, 2, 4, 7] {
        let (x, iters) = solve_distributed(&a, &b, MethodKind::Pcg, p, &opts, true);
        // Reduction orders differ between engines, so iterates drift at
        // roundoff level; iteration counts may differ by a step.
        assert!(
            (iters as i64 - serial.iterations as i64).abs() <= 1,
            "p={p}"
        );
        assert_close(&x, &serial.x, 1e-6, &format!("PCG p={p}"));
    }
}

#[test]
fn pipecg_distributed_matches_serial() {
    let (a, b) = problem();
    let opts = SolveOptions::with_rtol(1e-8);
    let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
    let serial = MethodKind::Pipecg.solve(&mut ctx, &b, None, &opts);
    for p in [2usize, 5] {
        let (x, _) = solve_distributed(&a, &b, MethodKind::Pipecg, p, &opts, true);
        assert_close(&x, &serial.x, 1e-6, &format!("PIPECG p={p}"));
    }
}

#[test]
fn pipe_scg_distributed_matches_serial() {
    let (a, b) = problem();
    let opts = SolveOptions {
        rtol: 1e-7,
        s: 3,
        ..Default::default()
    };
    let mut ctx = SimCtx::serial(&a, Box::new(pscg_sparse::IdentityOp::new(a.nrows())));
    let serial = MethodKind::PipeScg.solve(&mut ctx, &b, None, &opts);
    assert!(serial.converged());
    for p in [2usize, 4] {
        let (x, _) = solve_distributed(&a, &b, MethodKind::PipeScg, p, &opts, false);
        assert_close(&x, &serial.x, 1e-5, &format!("PIPE-sCG p={p}"));
    }
}

#[test]
fn pipe_pscg_distributed_matches_serial() {
    let (a, b) = problem();
    let opts = SolveOptions {
        rtol: 1e-7,
        s: 3,
        ..Default::default()
    };
    let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
    let serial = MethodKind::PipePscg.solve(&mut ctx, &b, None, &opts);
    assert!(serial.converged());
    for p in [2usize, 3, 6] {
        let (x, _) = solve_distributed(&a, &b, MethodKind::PipePscg, p, &opts, true);
        assert_close(&x, &serial.x, 1e-5, &format!("PIPE-PsCG p={p}"));
    }
}

#[test]
fn distributed_solution_actually_solves_the_system() {
    let (a, b) = problem();
    let opts = SolveOptions {
        rtol: 1e-8,
        s: 2,
        ..Default::default()
    };
    let (x, _) = solve_distributed(&a, &b, MethodKind::PipecgOati, 3, &opts, true);
    let ax = a.mul_vec(&x);
    let resid: f64 = ax
        .iter()
        .zip(&b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    let bnorm = pscg_sparse::kernels::norm2(&b);
    assert!(resid / bnorm < 1e-6, "true residual {}", resid / bnorm);
}

#[test]
fn repeated_distributed_solves_are_bitwise_identical() {
    // Which rank finishes a reduction, and whether a waiter spins, yields or
    // parks, changes from run to run; the numbers must not.
    let (a, b) = problem();
    let opts = SolveOptions {
        rtol: 1e-8,
        s: 3,
        ..Default::default()
    };
    let (part2, plan2) = RankCtx::prepare(&a, 2);
    let (part3, plan3) = RankCtx::prepare(&a, 3);
    let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
    for method in [MethodKind::Pcg, MethodKind::PipePscg] {
        for (p, part, plan) in [(2, &part2, &plan2), (3, &part3, &plan3)] {
            let run = || {
                run_spmd(p, |rank, world| {
                    let (lo, hi) = part.range(rank);
                    let pc = LocalPc::Jacobi(inv_diag[lo..hi].to_vec());
                    let mut ctx = RankCtx::new(world, rank, &a, part, plan, pc);
                    let res = method.solve(&mut ctx, &b[lo..hi], None, &opts);
                    let history: Vec<u64> = res.history.iter().map(|h| h.to_bits()).collect();
                    let x: Vec<u64> = res.x.iter().map(|v| v.to_bits()).collect();
                    (x, history, res.iterations)
                })
            };
            let first = run();
            for k in 1..20 {
                assert!(
                    run() == first,
                    "{method:?} p={p}: run {k} differs from run 0"
                );
            }
        }
    }
}

#[test]
fn single_rank_thread_engine_is_bit_identical_to_serial() {
    // With p = 1 both engines perform the same arithmetic in the same
    // order, so the results must agree exactly.
    let (a, b) = problem();
    let opts = SolveOptions::with_rtol(1e-8);
    let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
    let serial = MethodKind::Pcg.solve(&mut ctx, &b, None, &opts);
    let (x, iters) = solve_distributed(&a, &b, MethodKind::Pcg, 1, &opts, true);
    assert_eq!(iters, serial.iterations);
    assert_eq!(x, serial.x);
}
