//! s-step conjugate gradients of Chronopoulos & Gear — the paper's
//! Algorithm 2.
//!
//! One *blocking* allreduce per s-step iteration (each worth s PCG steps),
//! at the price of **s+1** SPMVs per iteration: the residual is recomputed
//! as `r = b − A x` and the monomial basis `{r, Ar, …, Aˢr}` is rebuilt with
//! fresh products every iteration. Unpreconditioned: the blocking s-step
//! loop of [`pscg`] over the plain chain.

use pscg_sim::Context;

use crate::methods::pscg;
use crate::solver::{SolveOptions, SolveResult};
use crate::sstep::Chain;

/// Solves `A x = b` with sCG. `x0` defaults to zero.
pub fn solve<C: Context>(
    ctx: &mut C,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &SolveOptions,
) -> SolveResult {
    pscg::solve_chain(ctx, b, x0, opts, "sCG", Chain::Plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::pcg;
    use pscg_sim::SimCtx;
    use pscg_sparse::stencil::{poisson3d_7pt, Grid3};
    use pscg_sparse::IdentityOp;

    fn problem() -> (pscg_sparse::CsrMatrix, Vec<f64>) {
        let g = Grid3::cube(6);
        let a = poisson3d_7pt(g, None);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 9) as f64 - 4.0) / 4.0).collect();
        let b = a.mul_vec(&xstar);
        (a, b)
    }

    fn serial_ctx(a: &pscg_sparse::CsrMatrix) -> SimCtx<'_> {
        SimCtx::serial(a, Box::new(IdentityOp::new(a.nrows())))
    }

    #[test]
    fn scg_converges_like_cg_for_various_s() {
        let (a, b) = problem();
        let opts_cg = SolveOptions {
            rtol: 1e-8,
            ..Default::default()
        };
        let mut c0 = serial_ctx(&a);
        let rcg = pcg::solve(&mut c0, &b, None, &opts_cg);
        for s in [1usize, 2, 3, 4, 5] {
            let mut ctx = serial_ctx(&a);
            let opts = SolveOptions {
                rtol: 1e-8,
                s,
                ..Default::default()
            };
            let res = solve(&mut ctx, &b, None, &opts);
            assert!(res.converged(), "s={s}: {:?}", res.stop);
            assert!(res.true_relres(&a, &b) < 1e-6, "s={s}");
            // s-step CG performs the work of s PCG steps per iteration; the
            // step count rounds up to a multiple of s.
            let slack = 2 * s + 2;
            assert!(
                res.iterations <= rcg.iterations + slack,
                "s={s}: sCG {} vs PCG {}",
                res.iterations,
                rcg.iterations
            );
        }
    }

    #[test]
    fn scg_counts_one_allreduce_and_s_plus_1_spmvs_per_iteration() {
        let (a, b) = problem();
        let s = 3;
        let mut ctx = serial_ctx(&a);
        let opts = SolveOptions {
            rtol: 1e-6,
            s,
            ..Default::default()
        };
        let res = solve(&mut ctx, &b, None, &opts);
        assert!(res.converged());
        let outer = (res.iterations / s) as u64;
        // One blocking allreduce per outer iteration + final check + bnorm
        // + the basis-scale estimate.
        assert_eq!(res.counters.blocking_allreduce, outer + 3);
        // Setup: 1 (residual) + s (basis); each outer iteration: s+1.
        assert_eq!(res.counters.spmv, 1 + s as u64 + outer * (s as u64 + 1));
        // Only the reference-norm M^-1 b (identity); none in the loop.
        assert_eq!(res.counters.pc, 1, "sCG is unpreconditioned");
    }

    #[test]
    fn scg_s1_matches_cg_trajectory() {
        // s = 1 s-step CG is plain CG; trajectories agree step for step
        // until roundoff accumulates.
        let (a, b) = problem();
        let opts = SolveOptions {
            rtol: 1e-6,
            s: 1,
            ..Default::default()
        };
        let mut c1 = serial_ctx(&a);
        let r1 = solve(&mut c1, &b, None, &opts);
        let mut c2 = serial_ctx(&a);
        let r2 = pcg::solve(&mut c2, &b, None, &opts);
        assert!(r1.converged() && r2.converged());
        assert!((r1.iterations as i64 - r2.iterations as i64).abs() <= 2);
    }
}
