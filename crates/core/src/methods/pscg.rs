//! Preconditioned s-step conjugate gradients — the paper's Algorithm 3
//! (Chronopoulos & Gear \[7\]) — and, as its `M = I` case, Algorithm 2.
//!
//! One blocking allreduce per s-step iteration, **s+1** preconditioner
//! applications and **s+1** SPMVs per iteration: the residual and the
//! preconditioned monomial basis `{u, (M⁻¹A)u, …, (M⁻¹A)ˢu}` are rebuilt
//! from explicit products every time. This is the method whose "extra PC and
//! SPMV" the paper's Figure 4 shows dragging it below even PCG once the
//! preconditioner is expensive.

use pscg_sim::Context;

use crate::driver::Driver;
use crate::solver::{SolveOptions, SolveResult, StopReason};
use crate::sstep::{diverged, Chain, GramPacket, GramPacketBuf, PowerBasis, ScalarWork};

/// Solves `M⁻¹A x = M⁻¹b` with PsCG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    solve_chain(ctx, b, x0, opts, "PsCG", Chain::Preconditioned)
}

/// The blocking s-step loop over the basis `chain` generates: Algorithm 3,
/// or Algorithm 2 when the chain carries no preconditioner.
pub(crate) fn solve_chain<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
    method: &'static str,
    chain: Chain,
) -> SolveResult {
    let s = opts.s.min(ctx.nrows().max(1));
    assert!(s >= 1, "{method} requires s >= 1");
    let (mut drv, r) = Driver::begin(ctx, method, b, x0, opts, None);

    // Powers 0..=s of the σ-scaled chain (Alg. 3 lines 3–6: s SPMVs, and
    // s+1 PCs, after the residual).
    let mut basis = PowerBasis::new(ctx, chain, &r, s, s);

    let mut dirs = ctx.alloc_multi(s);
    let mut dirs_next = ctx.alloc_multi(s);
    let mut ax = ctx.alloc_vec();
    let mut scalar = ScalarWork::new(s);
    let mut packet = GramPacketBuf::new(s);

    loop {
        // Line 15 / 22: the 2s dot products in one blocking allreduce.
        basis.gram_packet(ctx, &dirs, &mut packet);
        let Some(red) = drv.reduce(ctx, packet.flat()) else {
            break;
        };
        let pkt = GramPacket::view(s, &red);
        let norms = pkt.norms();
        if drv
            .check(ctx, norms, scalar.report(), diverged(norms))
            .is_some()
        {
            break;
        }
        // Line 8: Scalar Work (two s×s LU solves).
        if scalar.step(ctx, &pkt).is_err() {
            drv.fail(ctx, StopReason::Breakdown);
            break;
        }

        // Lines 10–11 / 17–18: conjugate the u-type basis against the
        // previous directions and advance the solution; the directions live
        // in the σ-scaled basis, so x advances by σ·α.
        ctx.block_combine(&mut dirs_next, basis.lists().0, 0, &dirs, &scalar.b);
        std::mem::swap(&mut dirs, &mut dirs_next);
        scalar.scale_alpha(basis.sigma);
        ctx.block_gemv_acc(&dirs, &scalar.alpha_x, &mut drv.x);

        // Lines 12–14 / 19–21: fresh residual and basis — the s+1 SPMVs
        // (and PCs).
        basis.restart(ctx, &drv.x, b, &mut ax, s);
        drv.advance(s);
    }
    drv.finish(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pcg;
    use pscg_precond::Jacobi;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    #[test]
    fn pscg_converges_with_jacobi_for_various_s() {
        let (a, b) = problem();
        for s in [1usize, 2, 3, 5] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            let opts = SolveOptions {
                rtol: 1e-8,
                s,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "s={s}: {:?}", res.stop);
            assert!(res.true_relres(&a, &b) < 1e-6, "s={s}");
        }
    }

    #[test]
    fn pscg_matches_pcg_step_count_approximately() {
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-8,
            s: 3,
            ..Default::default()
        };
        let mut c1 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r1 = pcg::solve(&mut c1, &b, None, &opts);
        let mut c2 = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let r2 = solve(&mut c2, &b, None, &opts);
        assert!(r2.converged());
        assert!(
            r2.iterations <= r1.iterations + 2 * opts.s + 2,
            "PsCG {} vs PCG {}",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn pscg_counts_s_plus_1_pcs_and_spmvs_per_iteration() {
        let (a, b) = problem();
        let s = 3;
        let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
        let opts = SolveOptions {
            rtol: 1e-6,
            s,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let outer = (res.iterations / s) as u64;
        let su = s as u64;
        assert_eq!(res.counters.blocking_allreduce, outer + 3);
        // Setup: 1 + s SPMVs, s+2 PCs (incl. the reference norm); per
        // iteration: s+1 of each.
        assert_eq!(res.counters.spmv, 1 + su + outer * (su + 1));
        assert_eq!(res.counters.pc, su + 2 + outer * (su + 1));
        assert_eq!(res.counters.nonblocking_allreduce, 0);
    }

    #[test]
    fn pscg_converges_under_all_three_norms() {
        let (a, b) = problem();
        use crate::solver::NormType;
        for norm in [
            NormType::Preconditioned,
            NormType::Unpreconditioned,
            NormType::Natural,
        ] {
            let mut ctx = SimCtx::serial(&a, Box::new(Jacobi::new(&a)));
            let opts = SolveOptions {
                rtol: 1e-7,
                s: 3,
                norm,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "norm {norm:?}");
            assert!(res.true_relres(&a, &b) < 1e-5, "norm {norm:?}");
        }
    }
}
